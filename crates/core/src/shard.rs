//! Shard plans and the dirty-component merge.
//!
//! A [`ShardPlan`] hash-partitions records by a shard key. The engine's
//! [`PipelineState`](crate::incremental::PipelineState) runs the cheap
//! hash-join blockers ([`gralmatch_blocking::Blocker::cross_shard`]) over
//! the whole live population — their degeneracy guards see true global
//! statistics — and the quadratic text blockers per shard, so each text
//! index is a fraction of the global one.
//!
//! `merge_dirty_components` reconciles one batch's predictions with the
//! standing cleaned graph: components touched by a new positive edge or
//! a dirty node are rebuilt from their **raw** predictions and re-cleaned
//! (Section 4.2.1 pre-cleanup + Algorithm 1) exactly as a from-scratch run
//! would clean them; untouched components keep their cleaned edges.
//! Because the cleanup is per-component-deterministic, the merged groups
//! equal [`reference::run`](crate::reference::run) under the same plan,
//! and the merge work stays proportional to the dirty surface.
//!
//! With [`ShardKey::Entity`] (labeled benchmarks) true groups stay
//! shard-local; with [`ShardKey::Source`] every multi-source group
//! crosses shards — the stress setting for the merge.

use crate::cleanup::{graph_cleanup_with_pool, pre_cleanup, CleanupReport};
use crate::pipeline::PipelineConfig;
use gralmatch_graph::{Graph, UnionFind};
use gralmatch_records::{Record, RecordPair};
use gralmatch_util::{FxHashSet, Stopwatch};

/// What to hash when assigning records to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardKey {
    /// Hash the ground-truth entity label, falling back to the record id
    /// for unlabeled records. True groups stay shard-local, so a sharded
    /// run reproduces the unsharded grouping — the benchmark / repro
    /// setting.
    #[default]
    Entity,
    /// Hash the record's data source. Every multi-source group crosses
    /// shards, so recall rests on the cross-shard hash joins and the
    /// merge — the stress setting.
    Source,
}

/// A hash partition of a domain's records into `num_shards` shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of shards (1 = unsharded).
    pub num_shards: usize,
    /// Partition key.
    pub key: ShardKey,
}

/// Salt decorrelating the shard hash from other uses of the same keys.
const SHARD_SALT: u64 = 0x5AAD_F00D;

impl ShardPlan {
    /// Plan with the default [`ShardKey::Entity`] key.
    pub fn new(num_shards: usize) -> Self {
        ShardPlan {
            num_shards: num_shards.max(1),
            key: ShardKey::Entity,
        }
    }

    /// Override the partition key.
    pub fn with_key(mut self, key: ShardKey) -> Self {
        self.key = key;
        self
    }

    /// Shard index of one record under this plan — a pure function of the
    /// record's own fields, so an upserted record lands on the same shard
    /// a one-shot run would put it on.
    pub fn assign_record<R: Record>(&self, record: &R) -> u32 {
        match self.key {
            ShardKey::Entity => {
                let key = record
                    .entity()
                    .map(|e| e.0 as u64)
                    // Disambiguate unlabeled records from entity ids.
                    .unwrap_or(record.id().0 as u64 | 1 << 63);
                (gralmatch_util::hash::hash_u64_pair(key, SHARD_SALT) % self.num_shards as u64)
                    as u32
            }
            // Source ids are small dense integers (a handful of
            // vendors); hashing them can collapse every source into one
            // shard, so partition by the id directly.
            ShardKey::Source => record.source().0 as u32 % self.num_shards as u32,
        }
    }

    /// Shard index for each record, in record order.
    pub fn assign<R: Record>(&self, records: &[R]) -> Vec<u32> {
        records
            .iter()
            .map(|record| self.assign_record(record))
            .collect()
    }
}

/// What `merge_dirty_components` produced.
pub(crate) struct MergeResult {
    /// The merged, re-cleaned prediction graph.
    pub graph: Graph,
    /// New positive edges that connected two distinct components.
    pub boundary_merges: usize,
    /// Components a new positive edge or dirty node touched (rebuilt and
    /// re-cleaned).
    pub touched_components: usize,
    /// Members of the rebuilt components (raw-edge endpoints in touched
    /// components, plus the dirty nodes themselves), sorted. Exactness
    /// rests on the caller contract of `merge_dirty_components`: when
    /// raw edges were retracted since the standing graph was built,
    /// `dirty_nodes` must name their endpoints (the upsert path does) —
    /// then everything *outside* this set kept its cleaned edges
    /// verbatim, making it the invalidation set for any index derived
    /// from the cleaned graph (the engine's record-id → group index
    /// updates only these).
    pub touched_nodes: Vec<u32>,
    /// Edges removed by the post-merge cleanup.
    pub cleanup: CleanupReport,
}

/// Reconcile a batch's predictions with the standing cleaned graph.
///
/// Components containing a new positive edge — or any node in
/// `dirty_nodes` — are rebuilt from their **raw** predictions
/// (`persisting` + `new_positives`) and pass through pre-cleanup and
/// Algorithm 1 again — exactly what a from-scratch run would do to them,
/// since the cleanup is deterministic per component. Untouched components
/// keep their `standing` cleaned edges (already ≤ μ), so the re-cleanup
/// cost is proportional to the dirty surface. `is_removable(a, b)` is the
/// pre-cleanup predicate over the candidate provenance (raw record ids,
/// canonical `a < b`).
///
/// `dirty_nodes` names inserted/updated/deleted records *and the
/// endpoints of retracted raw edges*, forcing every component whose raw
/// edge set changed through a re-clean even when no new positive edge
/// touches it (a delete can split a component without proposing anything
/// new).
pub(crate) fn merge_dirty_components(
    config: &PipelineConfig,
    num_records: usize,
    standing: &Graph,
    persisting: &[RecordPair],
    new_positives: &[RecordPair],
    dirty_nodes: &FxHashSet<u32>,
    is_removable: &dyn Fn(u32, u32) -> bool,
) -> MergeResult {
    // Components of the raw merged prediction graph.
    let mut components = UnionFind::new(num_records);
    for pair in persisting {
        components.union(pair.a.0, pair.b.0);
    }
    let mut boundary_merges = 0usize;
    for pair in new_positives {
        if components.union(pair.a.0, pair.b.0) {
            boundary_merges += 1;
        }
    }
    let mut touched: FxHashSet<u32> = FxHashSet::default();
    for pair in new_positives {
        touched.insert(components.find(pair.a.0));
    }
    let mut touched_nodes: FxHashSet<u32> = FxHashSet::default();
    for &node in dirty_nodes {
        if (node as usize) < num_records {
            touched.insert(components.find(node));
            touched_nodes.insert(node);
        }
    }

    // Untouched components keep their standing cleaned edges; touched
    // ones are rebuilt raw and re-cleaned below. Both endpoints are
    // checked: a retracted raw edge can leave its endpoints in *different*
    // current components, and a standing cleaned edge between them must
    // not survive either side's rebuild.
    let mut merged = Graph::with_nodes(num_records);
    for edge in standing.edges() {
        if !touched.contains(&components.find(edge.a))
            && !touched.contains(&components.find(edge.b))
        {
            merged.add_edge(edge.a, edge.b);
        }
    }
    for pair in persisting {
        if touched.contains(&components.find(pair.a.0)) {
            merged.add_edge(pair.a.0, pair.b.0);
            touched_nodes.insert(pair.a.0);
            touched_nodes.insert(pair.b.0);
        }
    }
    for pair in new_positives {
        merged.add_edge(pair.a.0, pair.b.0);
        touched_nodes.insert(pair.a.0);
        touched_nodes.insert(pair.b.0);
    }

    // Re-clean: only the rebuilt (touched) components exceed the
    // thresholds — everything else was already cut down. Dirty components
    // are independent, so they fan out across the configured pool.
    let mut cleanup = CleanupReport::default();
    if let Some(threshold) = config.cleanup.pre_cleanup_threshold {
        let pre_watch = Stopwatch::start();
        cleanup.pre_cleanup_removed = pre_cleanup(&mut merged, threshold, is_removable);
        cleanup.pre_cleanup_seconds = pre_watch.elapsed_secs();
    }
    let pool = config.parallelism.pool_for(merged.num_edges());
    cleanup.merge(&graph_cleanup_with_pool(
        &mut merged,
        &config.cleanup,
        &pool,
    ));
    let mut touched_nodes: Vec<u32> = touched_nodes.into_iter().collect();
    touched_nodes.sort_unstable();
    MergeResult {
        graph: merged,
        boundary_merges,
        touched_components: touched.len(),
        touched_nodes,
        cleanup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gralmatch_datagen::{generate, GenerationConfig};
    use gralmatch_util::FxHashMap;

    fn dataset() -> gralmatch_datagen::FinancialDataset {
        let mut config = GenerationConfig::synthetic_full();
        config.num_entities = 120;
        generate(&config).unwrap()
    }

    #[test]
    fn assignment_is_deterministic_and_balancedish() {
        let data = dataset();
        let companies = data.companies.records();
        let plan = ShardPlan::new(4);
        let first = plan.assign(companies);
        assert_eq!(first, plan.assign(companies));
        assert!(first.iter().all(|&s| s < 4));
        // Every shard gets a non-trivial slice of a 120-entity dataset.
        let mut counts = [0usize; 4];
        for &s in &first {
            counts[s as usize] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > companies.len() / 16),
            "{counts:?}"
        );
    }

    #[test]
    fn entity_key_keeps_groups_shard_local() {
        let data = dataset();
        let companies = data.companies.records();
        let plan = ShardPlan::new(8);
        let assignment = plan.assign(companies);
        let mut shard_of_entity: FxHashMap<u32, u32> = FxHashMap::default();
        for (record, &shard) in companies.iter().zip(&assignment) {
            let entity = record.entity().unwrap().0;
            assert_eq!(
                *shard_of_entity.entry(entity).or_insert(shard),
                shard,
                "entity {entity} split across shards"
            );
        }
    }
}
