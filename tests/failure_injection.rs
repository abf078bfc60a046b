//! Failure-injection and degenerate-input tests: the pipeline must stay
//! well-behaved (no panics, sane metrics) under hostile conditions.

use gralmatch::blocking::CandidateSet;
use gralmatch::core::{
    blocked_candidates, entity_groups, graph_cleanup, group_metrics, prediction_graph, reference,
    CleanupConfig, CompanyDomain, PipelineConfig,
};
use gralmatch::datagen::{generate, GenerationConfig};
use gralmatch::graph::Graph;
use gralmatch::lm::{EncodedRecord, MatcherScorer, PairwiseMatcher};
use gralmatch::records::{GroundTruth, RecordId, RecordPair};

/// A matcher that predicts EVERYTHING as a match (worst-case precision).
struct AlwaysYes;
impl PairwiseMatcher for AlwaysYes {
    fn score(&self, _: &EncodedRecord, _: &EncodedRecord) -> f32 {
        1.0
    }
}

/// A matcher that predicts NOTHING as a match.
struct AlwaysNo;
impl PairwiseMatcher for AlwaysNo {
    fn score(&self, _: &EncodedRecord, _: &EncodedRecord) -> f32 {
        0.0
    }
}

fn small_setup() -> (
    gralmatch::datagen::FinancialDataset,
    Vec<EncodedRecord>,
    GroundTruth,
    CandidateSet,
) {
    let mut config = GenerationConfig::synthetic_full();
    config.num_entities = 100;
    let data = generate(&config).unwrap();
    let companies = data.companies.records();
    let encoded = gralmatch::lm::ModelSpec::DistilBert128All.encode_records(companies);
    let gt = data.companies.ground_truth();
    let candidates = blocked_candidates(&CompanyDomain::new(companies, data.securities.records()));
    (data, encoded, gt, candidates)
}

/// Score, clean and group a candidate set with a custom matcher through
/// the reference pipeline.
fn run_matching<M: PairwiseMatcher>(
    num_records: usize,
    candidates: &CandidateSet,
    matcher: &M,
    encoded: &[EncodedRecord],
    gt: &GroundTruth,
    config: &PipelineConfig,
) -> gralmatch::core::MatchingOutcome {
    reference::match_candidates(
        num_records,
        candidates,
        &MatcherScorer::new(matcher, encoded),
        gt,
        config,
    )
}

#[test]
fn always_yes_matcher_is_repaired_by_cleanup() {
    let (data, encoded, gt, candidates) = small_setup();
    let config = PipelineConfig::new(25, 5).with_pre_cleanup(50);
    let outcome = run_matching(
        data.companies.len(),
        &candidates,
        &AlwaysYes,
        &encoded,
        &gt,
        &config,
    );
    // Pairwise precision is the candidate base rate (terrible); the cleanup
    // must still terminate and produce bounded groups.
    assert!(outcome.pairwise.precision < 0.9);
    assert!(outcome.groups.iter().all(|g| g.len() <= 5));
    assert!(outcome.post_cleanup.pairs.precision >= outcome.pre_cleanup.pairs.precision);
}

#[test]
fn always_no_matcher_yields_singletons() {
    let (data, encoded, gt, candidates) = small_setup();
    let config = PipelineConfig::new(25, 5);
    let outcome = run_matching(
        data.companies.len(),
        &candidates,
        &AlwaysNo,
        &encoded,
        &gt,
        &config,
    );
    assert_eq!(outcome.num_predicted, 0);
    assert_eq!(outcome.pairwise.recall, 0.0);
    assert_eq!(outcome.groups.len(), data.companies.len());
    // Everything-singleton is trivially "pure".
    assert_eq!(outcome.post_cleanup.cluster_purity, 1.0);
}

#[test]
fn empty_candidate_set_is_fine() {
    let (data, encoded, gt, _) = small_setup();
    let empty = CandidateSet::new();
    let config = PipelineConfig::new(25, 5);
    let outcome = run_matching(
        data.companies.len(),
        &empty,
        &AlwaysYes,
        &encoded,
        &gt,
        &config,
    );
    assert_eq!(outcome.num_candidates, 0);
    assert_eq!(outcome.pairwise.f1, 0.0);
}

#[test]
fn cleanup_on_empty_and_tiny_graphs() {
    let mut empty = Graph::new();
    let report = graph_cleanup(&mut empty, &CleanupConfig::new(25, 5));
    assert_eq!(report.mincut_removed + report.betweenness_removed, 0);

    let mut single_edge = Graph::from_edges([(0, 1)]);
    graph_cleanup(&mut single_edge, &CleanupConfig::new(25, 5));
    assert_eq!(single_edge.num_edges(), 1);
}

#[test]
fn mu_of_one_fully_shatters() {
    // μ = 1 is the degenerate "no groups allowed" configuration: every
    // edge must be removed, no panics.
    let mut graph = Graph::from_edges([(0, 1), (1, 2), (2, 0), (3, 4)]);
    graph_cleanup(&mut graph, &CleanupConfig::new(2, 1));
    assert_eq!(graph.num_edges(), 0);
}

#[test]
fn metrics_with_fully_unlabeled_ground_truth() {
    let gt = GroundTruth::default();
    let pairs = vec![RecordPair::new(RecordId(0), RecordId(1))];
    let metrics = gralmatch::core::pairwise_metrics(&pairs, &gt);
    assert_eq!(metrics.tp, 0);
    assert_eq!(metrics.fp, 1);
    assert_eq!(metrics.recall, 0.0);

    let graph = prediction_graph(3, &pairs);
    let groups = entity_groups(&graph);
    let group_m = group_metrics(&groups, &gt);
    assert_eq!(group_m.pairs.tp, 0);
    assert!(group_m.cluster_purity <= 1.0);
}

#[test]
fn single_record_dataset() {
    let mut config = GenerationConfig::synthetic_full();
    config.num_entities = 1;
    let data = generate(&config).unwrap();
    assert!(!data.companies.is_empty());
    let gt = data.companies.ground_truth();
    // Blocking on a single entity across sources still works.
    let candidates = blocked_candidates(&CompanyDomain::new(
        data.companies.records(),
        data.securities.records(),
    ));
    let encoded =
        gralmatch::lm::ModelSpec::DistilBert128All.encode_records(data.companies.records());
    let outcome = run_matching(
        data.companies.len(),
        &candidates,
        &AlwaysYes,
        &encoded,
        &gt,
        &PipelineConfig::new(25, 5),
    );
    // One entity: even all-yes predictions are all true.
    assert_eq!(outcome.pairwise.fp, 0);
}

#[test]
fn scores_are_always_finite_probabilities() {
    let (_, encoded, _, candidates) = small_setup();
    let matcher = gralmatch::lm::HeuristicMatcher::default();
    for pair in candidates.pairs_sorted().into_iter().take(500) {
        let score = matcher.score(&encoded[pair.a.0 as usize], &encoded[pair.b.0 as usize]);
        assert!(score.is_finite());
        assert!((0.0..=1.0).contains(&score));
    }
}
