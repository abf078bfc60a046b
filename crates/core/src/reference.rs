//! The reference pipeline: a naive, from-scratch run of paper Figure 1,
//! kept as the single oracle the engine is tested against.
//!
//! Every step is recomputed over the whole population, sequentially:
//! the cross-shard hash joins over all records, each shard-local (text)
//! blocker over each shard's slice of the [`ShardPlan`], every candidate
//! scored, one prediction graph, pre-cleanup, Algorithm 1, components.
//! It shares the per-step primitives with the engine — blockers, scorer,
//! [`pre_cleanup`], [`graph_cleanup`] — but none of its standing state,
//! delta re-blocking, dirty-component merge or worker pools. A replayed
//! [`MatchEngine`](crate::MatchEngine) that lands on these groups
//! therefore reconciled its batches exactly.

use crate::cleanup::{graph_cleanup, pre_cleanup, CleanupConfig, CleanupReport};
use crate::domain::MatchingDomain;
use crate::groups::{entity_groups, prediction_graph};
use crate::metrics::{group_metrics, pairwise_metrics};
use crate::pipeline::{MatchingOutcome, PipelineConfig};
use crate::shard::ShardPlan;
use crate::trace::PipelineTrace;
use gralmatch_blocking::{text_only_provenance, BlockingContext, CandidateSet};
use gralmatch_graph::betweenness::max_betweenness_edge;
use gralmatch_graph::{connected_components, global_min_cut, Graph, Subgraph};
use gralmatch_lm::PairScorer;
use gralmatch_records::{GroundTruth, RecordId, RecordPair};
use gralmatch_util::Stopwatch;

/// Match a domain from scratch under a shard plan: the groups a
/// [`MatchEngine`](crate::MatchEngine) bootstrapped or replayed
/// under the same plan must reproduce.
pub fn run<D>(
    domain: &D,
    scorer: &dyn PairScorer,
    config: &PipelineConfig,
    plan: &ShardPlan,
) -> MatchingOutcome
where
    D: MatchingDomain,
    D::Rec: Clone,
{
    let records = domain.records();
    let assignment = plan.assign(records);
    let ctx = BlockingContext::sequential();
    let mut candidates = CandidateSet::new();
    for blocker in domain.blocking_strategies() {
        if blocker.cross_shard() {
            blocker.block(records, &ctx, &mut candidates);
            continue;
        }
        for shard in 0..plan.num_shards as u32 {
            let slice: Vec<D::Rec> = records
                .iter()
                .zip(&assignment)
                .filter(|(_, &assigned)| assigned == shard)
                .map(|(record, _)| record.clone())
                .collect();
            blocker.block(&slice, &ctx, &mut candidates);
        }
    }
    match_candidates(
        records.len(),
        &candidates,
        scorer,
        domain.ground_truth(),
        config,
    )
}

/// Score, clean and group a precomputed candidate set over `num_records`
/// dense ids, evaluated under the paper's three-stage protocol. The
/// outcome's trace and blocker runs are empty.
pub fn match_candidates(
    num_records: usize,
    candidates: &CandidateSet,
    scorer: &dyn PairScorer,
    gt: &GroundTruth,
    config: &PipelineConfig,
) -> MatchingOutcome {
    let threshold = scorer.threshold();
    let predicted: Vec<RecordPair> = candidates
        .pairs_sorted()
        .into_iter()
        .filter(|&pair| scorer.score_pair(pair) >= threshold)
        .collect();
    let mut graph = prediction_graph(num_records, &predicted);
    let pre_cleanup_metrics = group_metrics(&entity_groups(&graph), gt);
    let mut cleanup_report = CleanupReport::default();
    if let Some(size) = config.cleanup.pre_cleanup_threshold {
        cleanup_report.pre_cleanup_removed = pre_cleanup(&mut graph, size, |a, b| {
            text_only_provenance(candidates.provenance(RecordPair::new(RecordId(a), RecordId(b))))
        });
    }
    cleanup_report.merge(&graph_cleanup(&mut graph, &config.cleanup));
    let groups = entity_groups(&graph);
    MatchingOutcome {
        num_candidates: candidates.len(),
        num_predicted: predicted.len(),
        pairwise: pairwise_metrics(&predicted, gt),
        pre_cleanup: pre_cleanup_metrics,
        post_cleanup: group_metrics(&groups, gt),
        groups,
        trace: PipelineTrace::default(),
        blocker_runs: Vec::new(),
        cleanup_report,
    }
}

/// The seed implementation of Algorithm 1: re-induce the whole component
/// from the global graph and rebuild a fresh local graph after **every**
/// edge removal, with a full `connected_components` pass per round.
///
/// Kept as the wall-clock baseline for the hub bench (`hubbench`) and for
/// verifying that the perf gate catches a regression to sequential
/// full-recompute behaviour. Produces the same final components as
/// [`graph_cleanup`] (all ≤ μ) but may choose different cut edges, so do
/// not compare removed-edge sets across the two.
pub fn reference_graph_cleanup(graph: &mut Graph, config: &CleanupConfig) -> CleanupReport {
    let stopwatch = Stopwatch::start();
    let mut report = CleanupReport::default();

    let mut queue: Vec<Vec<u32>> = connected_components(graph)
        .into_iter()
        .filter(|component| component.len() > config.mu.min(config.gamma))
        .collect();

    // Phase 1: minimum edge cuts while |c| > γ.
    let phase1_watch = Stopwatch::start();
    let mut phase2: Vec<Vec<u32>> = Vec::new();
    while let Some(component) = queue.pop() {
        if component.len() <= config.gamma {
            phase2.push(component);
            continue;
        }
        let sub = Subgraph::induce(graph, &component);
        let Some(cut) = global_min_cut(&sub) else {
            phase2.push(component);
            continue;
        };
        report.mincut_rounds += 1;
        for &(a, b) in &cut.cut_edges {
            if graph.remove_edge(sub.locals[a as usize], sub.locals[b as usize]) {
                report.mincut_removed += 1;
            }
        }
        let local_graph = {
            let mut g = Graph::with_nodes(sub.num_nodes());
            for &(a, b) in &sub.edges {
                g.add_edge(a, b);
            }
            for &(a, b) in &cut.cut_edges {
                g.remove_edge(a, b);
            }
            g
        };
        for part in connected_components(&local_graph) {
            let originals: Vec<u32> = part.iter().map(|&i| sub.locals[i as usize]).collect();
            if originals.len() > config.mu {
                queue.push(originals);
            }
        }
    }
    report.mincut_seconds = phase1_watch.elapsed_secs();

    // Phase 2: betweenness-centrality removal while |c| > μ.
    let phase2_watch = Stopwatch::start();
    while let Some(component) = phase2.pop() {
        if component.len() <= config.mu {
            continue;
        }
        let sub = Subgraph::induce(graph, &component);
        let Some(((a, b), _)) = max_betweenness_edge(&sub) else {
            continue;
        };
        report.betweenness_rounds += 1;
        if graph.remove_edge(sub.locals[a as usize], sub.locals[b as usize]) {
            report.betweenness_removed += 1;
        }
        let local_graph = {
            let mut g = Graph::with_nodes(sub.num_nodes());
            for &edge in &sub.edges {
                g.add_edge(edge.0, edge.1);
            }
            g.remove_edge(a, b);
            g
        };
        for part in connected_components(&local_graph) {
            let originals: Vec<u32> = part.iter().map(|&i| sub.locals[i as usize]).collect();
            if originals.len() > config.mu {
                phase2.push(originals);
            }
        }
    }
    report.betweenness_seconds = phase2_watch.elapsed_secs();

    report.seconds = stopwatch.elapsed_secs();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{blocked_candidates, CompanyDomain};
    use crate::pipeline::OracleScorer;
    use gralmatch_datagen::{generate, GenerationConfig};

    #[test]
    fn single_shard_is_the_unsharded_pipeline() {
        let mut generation = GenerationConfig::synthetic_full();
        generation.num_entities = 120;
        let data = generate(&generation).unwrap();
        let companies = data.companies.records();
        let domain = CompanyDomain::new(companies, data.securities.records());
        let gt = domain.ground_truth().clone();
        let config = PipelineConfig::new(25, 5).with_pre_cleanup(50);
        let scorer = OracleScorer::new(&gt);
        let reference = run(&domain, &scorer, &config, &ShardPlan::new(1));
        // One shard blocks every recipe over all records: the domain's
        // own candidate set.
        let seeded = match_candidates(
            companies.len(),
            &blocked_candidates(&domain),
            &scorer,
            &gt,
            &config,
        );
        assert_eq!(reference.groups, seeded.groups);
        assert_eq!(reference.num_candidates, seeded.num_candidates);
        assert_eq!(reference.num_predicted, seeded.num_predicted);
        assert_eq!(reference.pairwise, seeded.pairwise);
        assert!(reference.trace.stages.is_empty());
    }
}
