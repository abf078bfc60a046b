//! Pipeline configuration, outcome, and the oracle scorers.
//!
//! The end-to-end pipeline (paper Figure 1) runs through one engine,
//! [`MatchEngine`](crate::engine::MatchEngine): a
//! [`MatchingDomain`](crate::domain::MatchingDomain) supplies records,
//! ground truth, and a declarative [`Blocker`](gralmatch_blocking::Blocker)
//! list, and a one-shot run is the engine's bootstrap batch
//! (`blocking → inference → merge`, traced per stage into a
//! [`PipelineTrace`]). The usual entry points are
//! [`run_domain`](crate::domain::run_domain) /
//! [`run_domain_with_matcher`](crate::domain::run_domain_with_matcher) with
//! one of the paper domains ([`CompanyDomain`](crate::domain::CompanyDomain),
//! [`SecurityDomain`](crate::domain::SecurityDomain),
//! [`ProductDomain`](crate::domain::ProductDomain)); evaluation reports the
//! paper's three stages (pairwise / pre-cleanup / post-cleanup — the column
//! groups of Table 4) in a [`MatchingOutcome`].
//!
//! This module keeps the engine-independent pieces — [`PipelineConfig`],
//! [`MatchingOutcome`], the oracle scorers.

use crate::cleanup::{CleanupConfig, CleanupReport};
use crate::metrics::{GroupMetrics, PairMetrics};
use crate::trace::PipelineTrace;
use gralmatch_blocking::BlockerRun;
use gralmatch_lm::PairScorer;
use gralmatch_records::{GroundTruth, RecordId, RecordPair};
use gralmatch_util::{FxHashSet, Parallelism};

/// Pipeline knobs (γ/μ per Table 2, parallelism, pre-cleanup).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Graph-cleanup thresholds.
    pub cleanup: CleanupConfig,
    /// Worker-pool sizing for parallel stages. `Auto` (the default) uses
    /// all hardware threads for large inputs and runs small inputs
    /// sequentially; `Fixed(n)` is honored regardless of input size.
    pub parallelism: Parallelism,
}

impl PipelineConfig {
    /// Construct with Table 2 thresholds.
    pub fn new(gamma: usize, mu: usize) -> Self {
        PipelineConfig {
            cleanup: CleanupConfig::new(gamma, mu),
            parallelism: Parallelism::Auto,
        }
    }

    /// Enable the companies' pre-cleanup (threshold 50 in the paper).
    pub fn with_pre_cleanup(mut self, threshold: usize) -> Self {
        self.cleanup.pre_cleanup_threshold = Some(threshold);
        self
    }

    /// Override worker-pool sizing.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Force exactly `threads` workers (legacy `threads` field migration).
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_parallelism(Parallelism::Fixed(threads))
    }
}

/// Everything the Table 4 rows need for one (dataset, model) cell.
#[derive(Debug, Clone)]
pub struct MatchingOutcome {
    /// Number of candidate pairs after blocking (Table 2 column).
    pub num_candidates: usize,
    /// Positively predicted pairs (stage 1 input).
    pub num_predicted: usize,
    /// Stage 1: pairwise metrics on blocked pairs.
    pub pairwise: PairMetrics,
    /// Stage 2: metrics over the closure of raw predictions.
    pub pre_cleanup: GroupMetrics,
    /// Stage 3: metrics over the closure of cleaned components.
    pub post_cleanup: GroupMetrics,
    /// Final entity groups (largest first).
    pub groups: Vec<Vec<RecordId>>,
    /// Per-stage wall-clock / throughput / memory diagnostics.
    pub trace: PipelineTrace,
    /// Per-recipe blocking diagnostics: one entry per recipe of the
    /// domain's blocking list, zero-candidate recipes included, so report
    /// shapes are stable across runs. Empty for
    /// [`reference`](crate::reference) outcomes, which trace nothing.
    pub blocker_runs: Vec<BlockerRun>,
    /// Cleanup diagnostics.
    pub cleanup_report: CleanupReport,
}

impl MatchingOutcome {
    /// Inference wall-clock seconds (Table 4's time column), read from the
    /// trace's inference stage.
    pub fn inference_seconds(&self) -> f64 {
        self.trace.inference_seconds()
    }
}

/// Oracle matcher for tests and upper-bound experiments: predicts the
/// ground truth restricted to the candidate pairs.
#[derive(Debug, Clone)]
pub struct OracleMatcher<'gt> {
    gt: &'gt GroundTruth,
    /// Pairs on which the oracle deliberately predicts the opposite of the
    /// truth — used to study false-positive effects.
    pub flip_pairs: Vec<RecordPair>,
}

impl<'gt> OracleMatcher<'gt> {
    /// Perfect oracle.
    pub fn new(gt: &'gt GroundTruth) -> Self {
        OracleMatcher {
            gt,
            flip_pairs: Vec::new(),
        }
    }

    /// Oracle with deliberate errors injected on `flip_pairs`.
    pub fn with_flips(gt: &'gt GroundTruth, flip_pairs: Vec<RecordPair>) -> Self {
        OracleMatcher { gt, flip_pairs }
    }

    /// The scorer driving this oracle through the engine.
    pub fn scorer(&self) -> OracleScorer<'gt> {
        OracleScorer {
            gt: self.gt,
            flips: self.flip_pairs.iter().copied().collect(),
        }
    }
}

/// [`PairScorer`] reading the ground truth (with optional flipped pairs) —
/// the oracle needs record ids, not encodings, so it bypasses the
/// matcher/encoder layer entirely.
#[derive(Debug, Clone)]
pub struct OracleScorer<'gt> {
    gt: &'gt GroundTruth,
    flips: FxHashSet<RecordPair>,
}

impl<'gt> OracleScorer<'gt> {
    /// Perfect oracle scorer.
    pub fn new(gt: &'gt GroundTruth) -> Self {
        OracleScorer {
            gt,
            flips: FxHashSet::default(),
        }
    }
}

impl PairScorer for OracleScorer<'_> {
    fn score_pair(&self, pair: RecordPair) -> f32 {
        if self.gt.is_match_pair(pair) != self.flips.contains(&pair) {
            1.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{
        blocked_candidates, run_domain, run_domain_with_matcher, CompanyDomain, MatchingDomain,
        SecurityDomain,
    };
    use crate::trace::stage_names;
    use gralmatch_datagen::{generate, GenerationConfig};
    use gralmatch_lm::ModelSpec;
    use gralmatch_records::Record;
    use gralmatch_util::FxHashMap;

    fn dataset() -> gralmatch_datagen::FinancialDataset {
        let mut config = GenerationConfig::synthetic_full();
        config.num_entities = 150;
        generate(&config).unwrap()
    }

    #[test]
    fn oracle_pipeline_reaches_high_f1() {
        let data = dataset();
        let companies = data.companies.records();
        let domain = CompanyDomain::new(companies, data.securities.records());
        let config = PipelineConfig::new(25, 5).with_pre_cleanup(50);
        let gt = domain.ground_truth().clone();
        let outcome = run_domain(&domain, &OracleScorer::new(&gt), &config).unwrap();
        // The oracle's pairwise precision is 1; recall bounded by blocking.
        assert_eq!(outcome.pairwise.precision, 1.0);
        assert!(outcome.pairwise.recall > 0.6, "{:?}", outcome.pairwise);
        assert!(outcome.post_cleanup.pairs.f1 > 0.6);
        assert!(outcome.post_cleanup.cluster_purity > 0.9);
        // The trace covers the engine's bootstrap lineup: one insert-only
        // batch through blocking → inference → dirty-component merge.
        assert_eq!(
            outcome
                .trace
                .stages
                .iter()
                .map(|s| s.stage)
                .collect::<Vec<_>>(),
            vec![
                stage_names::BLOCKING,
                stage_names::INFERENCE,
                stage_names::MERGE
            ]
        );
        assert_eq!(
            outcome
                .trace
                .stage(stage_names::INFERENCE)
                .unwrap()
                .items_in,
            outcome.num_candidates
        );
    }

    #[test]
    fn false_positive_bridge_hurts_pre_cleanup_only() {
        let data = dataset();
        let companies = data.companies.records();
        let domain = CompanyDomain::new(companies, data.securities.records());
        let gt = domain.ground_truth().clone();
        // Flip one candidate non-match into a predicted match.
        let flip = blocked_candidates(&domain)
            .pairs_sorted()
            .into_iter()
            .find(|&pair| !gt.is_match_pair(pair))
            .expect("some negative candidate exists");
        let config = PipelineConfig::new(25, 5).with_pre_cleanup(50);
        let oracle = OracleMatcher::with_flips(&gt, vec![flip]);
        let outcome = run_domain(&domain, &oracle.scorer(), &config).unwrap();
        assert!(outcome.pairwise.precision < 1.0);
        // The cleanup should recover most of the damage.
        assert!(outcome.post_cleanup.pairs.precision >= outcome.pre_cleanup.pairs.precision);
    }

    #[test]
    fn trained_pipeline_end_to_end() {
        use gralmatch_records::{DatasetSplit, SplitRatios};
        use gralmatch_util::SplitRng;
        let data = dataset();
        let companies = data.companies.records();
        let gt = data.companies.ground_truth();
        let spec = ModelSpec::DistilBert128All;
        let encoded = spec.encode_records(companies);
        let split = DatasetSplit::new(&gt, SplitRatios::default(), &mut SplitRng::new(3));
        let (matcher, _) =
            gralmatch_lm::train(companies, &encoded, &gt, &split, &spec.train_config()).unwrap();
        let domain = CompanyDomain::new(companies, data.securities.records());
        let config = PipelineConfig::new(25, 5).with_pre_cleanup(50);
        let outcome = run_domain_with_matcher(&domain, &matcher, &encoded, &config).unwrap();
        assert!(outcome.num_candidates > 0);
        assert!(outcome.pairwise.f1 > 0.5, "pairwise {:?}", outcome.pairwise);
        assert!(
            outcome.post_cleanup.pairs.f1 >= outcome.pre_cleanup.pairs.f1 * 0.8,
            "cleanup should not destroy the matching: pre {:?} post {:?}",
            outcome.pre_cleanup.pairs,
            outcome.post_cleanup.pairs
        );
        // μ bound: no final group exceeds the number of sources by much —
        // Algorithm 1 guarantees all components ≤ μ.
        assert!(outcome.groups.iter().all(|g| g.len() <= 5));
        // The inference timing column reads from the trace.
        assert!(outcome.inference_seconds() >= 0.0);
    }

    #[test]
    fn security_pipeline_with_company_groups() {
        let data = dataset();
        let companies = data.companies.records();
        let securities = data.securities.records();
        // Perfect company grouping as issuer-match input.
        let mut group_of: FxHashMap<RecordId, u32> = FxHashMap::default();
        for company in companies {
            group_of.insert(company.id(), company.entity.unwrap().0);
        }
        let domain = SecurityDomain::new(securities, &group_of);
        assert!(!blocked_candidates(&domain).is_empty());
        let security_gt = domain.ground_truth().clone();
        let config = PipelineConfig::new(25, 5);
        let outcome = run_domain(&domain, &OracleScorer::new(&security_gt), &config).unwrap();
        assert!(outcome.pairwise.recall > 0.5, "{:?}", outcome.pairwise);
    }

    #[test]
    fn seeded_candidates_match_engine_results() {
        // The reference pipeline over a domain's blocked set must agree
        // with the engine running blocking itself.
        let data = dataset();
        let companies = data.companies.records();
        let gt = data.companies.ground_truth();
        let config = PipelineConfig::new(25, 5).with_pre_cleanup(50);

        let domain = CompanyDomain::new(companies, data.securities.records());
        let candidates = blocked_candidates(&domain);
        let oracle = OracleMatcher::new(&gt);
        let via_seeded = crate::reference::match_candidates(
            companies.len(),
            &candidates,
            &oracle.scorer(),
            &gt,
            &config,
        );
        let via_engine = run_domain(&domain, &oracle.scorer(), &config).unwrap();
        assert_eq!(via_seeded.num_candidates, via_engine.num_candidates);
        assert_eq!(via_seeded.num_predicted, via_engine.num_predicted);
        assert_eq!(via_seeded.pairwise, via_engine.pairwise);
        assert_eq!(
            via_seeded.post_cleanup.pairs.f1,
            via_engine.post_cleanup.pairs.f1
        );
    }
}
