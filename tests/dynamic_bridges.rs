//! Churn tests for Algorithm 1's one-scan block-tree cleanup.
//!
//! Each cleanup scans every dirty component's cut structure once and
//! answers its bridge rounds from the block tree; nothing persists between
//! calls. Debug builds check every block-tree round against a fresh
//! Tarjan scan of the same region, so these workloads are built to drive
//! many such rounds:
//!
//! * churn rounds on random clique-plus-noise graphs: after every round
//!   all components are ≤ μ and the live graph's cleanup matches a
//!   pooled cleanup of a fresh clone (edge sets and phase counters);
//! * the incremental pipeline replaying *interior* record churn — updates
//!   whose degraded names retract clique edges so bridges are created by
//!   deletion — against the from-scratch reference pipeline;
//! * the engine replaying the same churn with its cleanup fanned out over
//!   one worker and over four, batch by batch.
//!
//! The offline build has no `proptest`; cases are deterministic seeded
//! instances with the seed in every assertion message.

use gralmatch::core::{
    graph_cleanup, graph_cleanup_with_pool, reference, CleanupConfig, CleanupReport, CompanyDomain,
    CompiledScorerProvider, MatchEngine, MatchingDomain, PipelineConfig, PipelineState, ShardPlan,
    UpsertBatch,
};
use gralmatch::datagen::{hub_companies, hub_interior_churn_updates, HubConfig};
use gralmatch::graph::{largest_component, Edge, Graph};
use gralmatch::lm::{
    encode_dataset, CompiledDataset, CompiledScorer, HeuristicMatcher, PairwiseMatcher,
    PlainEncoder,
};
use gralmatch::records::{CompanyRecord, RecordId};
use gralmatch::util::{Parallelism, SplitRng, WorkerPool};

fn sorted_edges(graph: &Graph) -> Vec<Edge> {
    let mut edges: Vec<Edge> = graph.edges().collect();
    edges.sort_unstable();
    edges
}

/// The report's removal and round counters, for exact comparison.
fn counters(report: &CleanupReport) -> [usize; 5] {
    [
        report.pre_cleanup_removed,
        report.mincut_removed,
        report.betweenness_removed,
        report.mincut_rounds,
        report.betweenness_rounds,
    ]
}

/// Apply one random insert-or-remove to `graph`, keeping `edges` in sync.
fn random_op(rng: &mut SplitRng, n: usize, graph: &mut Graph, edges: &mut Vec<Edge>) {
    if rng.next_below(2) == 0 || edges.is_empty() {
        let a = rng.next_below(n) as u32;
        let b = rng.next_below(n) as u32;
        if a != b && graph.add_edge(a, b) {
            edges.push(Edge::new(a, b));
        }
    } else {
        let edge = edges.swap_remove(rng.next_below(edges.len()));
        graph.remove_edge(edge.a, edge.b);
    }
}

#[test]
fn cleanup_under_random_churn_matches_a_fresh_clone() {
    // Clique backbones plus random noise, cleaned and churned repeatedly:
    // every round the cleanup of the live graph must bound all components
    // by μ and match a pooled cleanup of a fresh clone bit for bit —
    // across deltas that both close cycles and cut bridges.
    for seed in [7u64, 43, 97] {
        let mut rng = SplitRng::new(seed).split("dynamic-cleanup");
        let num_cliques = 12;
        let clique = 5;
        let n = num_cliques * clique;
        let mut graph = Graph::with_nodes(n);
        for c in 0..num_cliques {
            for i in 0..clique {
                for j in (i + 1)..clique {
                    graph.add_edge((c * clique + i) as u32, (c * clique + j) as u32);
                }
            }
        }
        for _ in 0..30 {
            let a = rng.next_below(n) as u32;
            let b = rng.next_below(n) as u32;
            if a != b {
                graph.add_edge(a, b);
            }
        }
        let config = CleanupConfig::new(8, 5);
        for round in 0..4 {
            let mut clone = graph.clone();
            let clone_report = graph_cleanup_with_pool(&mut clone, &config, &WorkerPool::new(4));
            let report = graph_cleanup(&mut graph, &config);
            assert!(
                largest_component(&graph).map_or(0, |c| c.len()) <= config.mu,
                "seed {seed} round {round}: a component stayed above μ"
            );
            assert_eq!(
                sorted_edges(&graph),
                sorted_edges(&clone),
                "seed {seed} round {round}: live and fresh-clone cleanups removed different edges"
            );
            assert_eq!(
                counters(&report),
                counters(&clone_report),
                "seed {seed} round {round}: live and fresh-clone counters diverged"
            );
            let mut edges = sorted_edges(&graph);
            for _ in 0..25 {
                random_op(&mut rng, n, &mut graph, &mut edges);
            }
        }
    }
}

/// Order-insensitive normal form: sorted members, groups sorted.
fn normalize(groups: &[Vec<RecordId>]) -> Vec<Vec<RecordId>> {
    let mut out: Vec<Vec<RecordId>> = groups
        .iter()
        .map(|group| {
            let mut g = group.clone();
            g.sort_unstable();
            g
        })
        .collect();
    out.sort();
    out
}

#[test]
fn interior_churn_replay_matches_one_shot_groups() {
    // The delete-driven side of the hub workload through the real
    // pipeline: interior churn updates degrade two members' names per
    // rotated group so the group's clique collapses to a star around its
    // representative — clique edges are *retracted* and the surviving
    // rep edges become bridges created by deletion — then restore them a
    // batch later. Every re-clean scans its dirty components afresh; the
    // final groups must equal a reference run over the final records.
    let config = HubConfig {
        hubs: 2,
        groups_per_hub: 12,
        group_size: 4,
        churn_batches: 4,
        churn_rewires: 4,
    };
    let companies = hub_companies(&config);

    let token_config = gralmatch::blocking::TokenOverlapConfig {
        top_n: 50,
        max_token_df: 600,
        min_overlap: 2,
    };
    let no_securities = [];
    let domain =
        CompanyDomain::new(&companies, &no_securities).with_token_config(token_config.clone());
    let strategies = domain.blocking_strategies();

    let encoder = PlainEncoder::new(128);
    let matcher = HeuristicMatcher {
        jaccard_threshold: 0.45,
    };
    // Names change across batches (that is the point), so each state is
    // scored through a freshly compiled encoding of the current records.
    let scorer_for = |records: &[CompanyRecord]| {
        let encoded = encode_dataset(records, &encoder);
        CompiledDataset::compile(&encoded, &matcher.feature_config())
    };

    let mut pipeline_config = PipelineConfig::new(config.group_size + 1, config.group_size);
    pipeline_config.parallelism = Parallelism::Fixed(4);
    let plan = ShardPlan::new(2);

    let bootstrap_compiled = scorer_for(&companies);
    let (mut state, _load) = PipelineState::initial_load(
        plan,
        companies.clone(),
        &strategies,
        &CompiledScorer::new(&matcher, &bootstrap_compiled),
        &pipeline_config,
    )
    .unwrap();

    let mut final_records = companies.clone();
    for batch in 0..config.churn_batches {
        let updates = hub_interior_churn_updates(&config, batch);
        for update in &updates {
            final_records[update.id.0 as usize] = update.clone();
        }
        let compiled = scorer_for(&final_records);
        state
            .apply(
                &UpsertBatch {
                    inserts: Vec::new(),
                    updates,
                    deletes: Vec::new(),
                },
                &strategies,
                &CompiledScorer::new(&matcher, &compiled),
                &pipeline_config,
            )
            .unwrap_or_else(|e| panic!("interior churn batch {batch}: {e:?}"));
    }

    // Final batch: restore every still-degraded record, so the end state
    // is the bootstrap population again.
    let restore: Vec<CompanyRecord> = final_records
        .iter()
        .zip(&companies)
        .filter(|(current, original)| current.name != original.name)
        .map(|(_, original)| original.clone())
        .collect();
    assert!(!restore.is_empty(), "last rotation left nothing degraded");
    for update in &restore {
        final_records[update.id.0 as usize] = update.clone();
    }
    let compiled = scorer_for(&final_records);
    let outcome = state
        .apply(
            &UpsertBatch {
                inserts: Vec::new(),
                updates: restore,
                deletes: Vec::new(),
            },
            &strategies,
            &CompiledScorer::new(&matcher, &compiled),
            &pipeline_config,
        )
        .unwrap_or_else(|e| panic!("restore batch: {e:?}"));
    let last_groups = outcome.groups;

    let final_domain =
        CompanyDomain::new(&final_records, &no_securities).with_token_config(token_config);
    let final_compiled = scorer_for(&final_records);
    let one_shot = reference::run(
        &final_domain,
        &CompiledScorer::new(&matcher, &final_compiled),
        &pipeline_config,
        &plan,
    );
    assert_eq!(
        normalize(&last_groups),
        normalize(&one_shot.groups),
        "interior churn replay diverged from one-shot groups"
    );

    // Semantics: with every degrade restored, the cleanup must have cut
    // every hub bridge and spared every clique — each multi-record group
    // is exactly one entity's records.
    let groups = normalize(&last_groups);
    let multi: Vec<&Vec<RecordId>> = groups.iter().filter(|g| g.len() > 1).collect();
    let sizes: Vec<usize> = multi.iter().map(|g| g.len()).collect();
    assert_eq!(
        multi.len(),
        config.hubs * config.groups_per_hub,
        "multi-group sizes: {sizes:?}"
    );
    for group in multi {
        assert_eq!(group.len(), config.group_size, "a group was cut");
        let entity = companies[group[0].0 as usize].entity.unwrap();
        assert!(
            group
                .iter()
                .all(|id| companies[id.0 as usize].entity.unwrap() == entity),
            "group mixes entities: {group:?}"
        );
    }
}

/// Replay interior churn (degrade, then restore, every rotated group)
/// through a [`MatchEngine`] whose cleanup runs under `parallelism`;
/// returns each batch's groups and cleanup counters, bootstrap first.
fn engine_churn_replay(parallelism: Parallelism) -> Vec<(Vec<Vec<RecordId>>, [usize; 5])> {
    let config = HubConfig {
        hubs: 3,
        groups_per_hub: 8,
        group_size: 4,
        churn_batches: 5,
        churn_rewires: 3,
    };
    let companies = hub_companies(&config);
    let no_securities = [];
    let domain = CompanyDomain::new(&companies, &no_securities).with_token_config(
        gralmatch::blocking::TokenOverlapConfig {
            top_n: 50,
            max_token_df: 600,
            min_overlap: 2,
        },
    );
    let provider = CompiledScorerProvider::new(
        HeuristicMatcher {
            jaccard_threshold: 0.45,
        },
        PlainEncoder::new(128),
    );
    let mut pipeline_config = PipelineConfig::new(config.group_size + 1, config.group_size);
    pipeline_config.parallelism = parallelism;
    let (mut engine, load) = MatchEngine::bootstrap(
        ShardPlan::new(2),
        companies.clone(),
        domain.blocking_strategies(),
        Box::new(provider),
        pipeline_config,
    )
    .unwrap();
    let mut batches = vec![(normalize(&load.groups), counters(&load.cleanup))];
    for batch in 0..=config.churn_batches {
        // The last batch restores the previous rotation without degrading
        // a new one, so the replay ends on the bootstrap population.
        let updates: Vec<CompanyRecord> = if batch < config.churn_batches {
            hub_interior_churn_updates(&config, batch)
        } else {
            hub_interior_churn_updates(&config, batch)
                .into_iter()
                .filter(|update| update.name == companies[update.id.0 as usize].name)
                .collect()
        };
        let outcome = engine
            .apply_batch(&UpsertBatch {
                inserts: Vec::new(),
                updates,
                deletes: Vec::new(),
            })
            .unwrap_or_else(|e| panic!("{parallelism:?} batch {batch}: {e:?}"));
        batches.push((normalize(&engine.groups()), counters(&outcome.cleanup)));
    }
    batches
}

#[test]
fn engine_cleanup_fan_out_matches_sequential_under_churn() {
    // Dirty components are cleaned independently, so fanning them out
    // over a pool must not change a single decision: each batch's groups
    // and cleanup counters are identical under one worker and four.
    let sequential = engine_churn_replay(Parallelism::Fixed(1));
    let pooled = engine_churn_replay(Parallelism::Fixed(4));
    assert_eq!(sequential.len(), pooled.len());
    for (batch, (seq, par)) in sequential.iter().zip(&pooled).enumerate() {
        assert_eq!(seq.0, par.0, "batch {batch}: groups diverged");
        assert_eq!(seq.1, par.1, "batch {batch}: cleanup counters diverged");
    }
    // The churn made the cleanup work in every batch, and the replay
    // ended where it began.
    assert!(sequential
        .iter()
        .all(|(_, counts)| counts[1] + counts[2] > 0));
    assert_eq!(sequential[0].0, sequential.last().unwrap().0);
}
