//! GraLMatch core: entity group matching with graph cleanup.
//!
//! The paper's primary contribution, end to end (Figure 1), as one
//! **long-lived incremental engine**: a [`MatchingDomain`] (companies,
//! securities, products, or any future workload) plugs its records,
//! ground truth, and declarative blocking-strategy list into a
//! [`MatchEngine`], whose batches drive blocking → pairwise matching →
//! **GraLMatch Graph Cleanup** (pre-cleanup + Algorithm 1: minimum edge
//! cuts above γ, max-betweenness edge removal above μ) → entity groups,
//! with per-stage diagnostics in a [`PipelineTrace`] and the three-stage
//! evaluation protocol (pairwise / pre-cleanup / post-cleanup) with
//! Cluster Purity.
//!
//! * [`domain`] — the `MatchingDomain` trait + the three paper domains,
//! * [`engine`] — the long-lived `MatchEngine`: bootstrap / apply-batch /
//!   group-lookup lifecycle, the single production execution path,
//! * [`reference`](mod@reference) — the naive from-scratch pipeline,
//!   the single oracle the engine is tested against,
//! * [`host`] — the multi-tenant `EngineHost`: named, domain-erased
//!   `TenantEngine`s with per-tenant model routing and hot model swap,
//! * [`shard`] — the `ShardPlan` partition and the dirty-component merge,
//! * [`incremental`] — upsert batches against a persisted `PipelineState`,
//! * [`persist`] — crash-safe binary persistence: checksummed
//!   `PipelineState` snapshots, the append-only `UpsertBatch` WAL, and
//!   snapshot+replay recovery,
//! * [`snapshot`] — immutable epoch-published `GroupSnapshot` for
//!   lock-free concurrent group lookups,
//! * [`trace`] — unified per-stage wall-clock/throughput reporting,
//! * [`groups`] — prediction graph, components, closure counting,
//! * [`cleanup`] — Algorithm 1 + pre-cleanup + sensitivity variants,
//! * [`adaptive`] — the adaptive-μ cleanup variant of the sweeps,
//! * [`metrics`] — pairwise & group metrics, Cluster Purity,
//! * [`pipeline`] — config, outcome, oracle scorers.

pub mod adaptive;
pub mod cleanup;
pub mod domain;
pub mod engine;
pub mod groups;
pub mod host;
pub mod incremental;
pub mod metrics;
pub mod persist;
pub mod pipeline;
pub mod reference;
pub mod shard;
pub mod snapshot;
pub mod trace;

pub use adaptive::{adaptive_cleanup, AdaptiveConfig};
pub use cleanup::{
    graph_cleanup, graph_cleanup_with_pool, pre_cleanup, CleanupConfig, CleanupReport,
    CleanupVariant,
};
pub use domain::{
    blocked_candidates, run_domain, run_domain_with_matcher, CompanyDomain, MatchingDomain,
    ProductDomain, SecurityDomain,
};
pub use engine::{
    CompiledScorerProvider, EngineStats, FixedScorerProvider, GroupIndex, MatchEngine,
    ScorerProvider,
};
pub use groups::{count_group_pairs, entity_groups, group_assignment, prediction_graph};
pub use host::{
    model_fingerprint, scorer_provider, EngineHost, EngineTenant, HostError, TenantEngine,
    HEURISTIC_JACCARD,
};
pub use incremental::{churn_window, PipelineState, UpsertBatch, UpsertOutcome};
pub use metrics::{group_metrics, pairwise_metrics, GroupMetrics, PairMetrics};
pub use persist::{
    decode_batch, decode_state, encode_batch, encode_state, recover_engine, CheckpointInfo,
    CheckpointPolicy, RecoveryReport, StateSnapshot, WalFrame, WalReplay, WalWriter,
};
pub use pipeline::{MatchingOutcome, OracleMatcher, OracleScorer, PipelineConfig};
pub use reference::reference_graph_cleanup;
pub use shard::{ShardKey, ShardPlan};
pub use snapshot::GroupSnapshot;
pub use trace::{stage_names, CleanupPhases, PipelineTrace, StageTrace};
