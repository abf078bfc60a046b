//! Property test: sharded execution is transparent.
//!
//! For seeded random datasets, bootstrapping the engine under a
//! [`ShardPlan`](gralmatch::core::ShardPlan) with the entity-keyed
//! partition (shards ∈ {2, 4, 8}) must produce the **same final groups**
//! as the engine's unsharded bootstrap — sharding is an execution
//! strategy, not a semantics change — and the unsharded bootstrap must
//! equal the single-shard [`reference`](gralmatch::core::reference) run.
//! The offline build has no `proptest`, so cases are deterministic seeded
//! instances (the seed is printed in every assertion message).

use gralmatch::core::{
    reference, run_domain, CompanyDomain, FixedScorerProvider, MatchEngine, MatchingDomain,
    MatchingOutcome, OracleScorer, PipelineConfig, SecurityDomain, ShardPlan,
};
use gralmatch::datagen::{generate, FinancialDataset, GenerationConfig};
use gralmatch::lm::PairScorer;
use gralmatch::records::{Record, RecordId};
use gralmatch::util::FxHashMap;

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

fn dataset(seed: u64) -> FinancialDataset {
    let mut config = GenerationConfig::synthetic_full();
    config.num_entities = 100;
    config.seed = seed;
    generate(&config).unwrap()
}

/// The engine's one-shot bootstrap under `shards` entity-keyed shards,
/// evaluated like [`run_domain`] (its single-shard case).
fn bootstrap<D>(
    domain: &D,
    scorer: &dyn PairScorer,
    config: &PipelineConfig,
    shards: usize,
) -> MatchingOutcome
where
    D: MatchingDomain,
    D::Rec: Clone,
{
    let (engine, load) = MatchEngine::bootstrap_domain(
        domain,
        ShardPlan::new(shards),
        Box::new(FixedScorerProvider(scorer)),
        config.clone(),
    )
    .unwrap();
    engine.evaluate(domain.ground_truth(), &load)
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
fn sharded_security_pipeline_matches_unsharded_groups() {
    for seed in [3u64, 11, 29] {
        let data = dataset(seed);
        let securities = data.securities.records();
        // Perfect company grouping as issuer-match input.
        let mut group_of: FxHashMap<RecordId, u32> = FxHashMap::default();
        for company in data.companies.records() {
            group_of.insert(company.id(), company.entity().unwrap().0);
        }
        let domain = SecurityDomain::new(securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let config = PipelineConfig::new(25, 5);
        let unsharded = run_domain(&domain, &scorer, &config).unwrap();
        let expected = reference::run(&domain, &scorer, &config, &ShardPlan::new(1));
        assert_eq!(
            normalize(&unsharded.groups),
            normalize(&expected.groups),
            "seed {seed}: unsharded bootstrap diverged from the reference"
        );
        assert_eq!(unsharded.num_candidates, expected.num_candidates);
        assert_eq!(unsharded.num_predicted, expected.num_predicted);

        for shards in SHARD_COUNTS {
            let sharded = bootstrap(&domain, &scorer, &config, shards);
            assert_eq!(
                normalize(&sharded.groups),
                normalize(&unsharded.groups),
                "seed {seed}, {shards} shards: final groups diverged"
            );
            assert_eq!(
                sharded.pairwise, unsharded.pairwise,
                "seed {seed}, {shards} shards"
            );
            assert_eq!(
                sharded.post_cleanup.pairs.f1, unsharded.post_cleanup.pairs.f1,
                "seed {seed}, {shards} shards"
            );
            assert_eq!(
                sharded.post_cleanup.cluster_purity, unsharded.post_cleanup.cluster_purity,
                "seed {seed}, {shards} shards"
            );
        }
    }
}

#[test]
fn sharded_company_pipeline_matches_unsharded_groups() {
    for seed in [5u64, 17] {
        let data = dataset(seed);
        let companies = data.companies.records();
        let domain = CompanyDomain::new(companies, data.securities.records());
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let config = PipelineConfig::new(25, 5).with_pre_cleanup(50);
        let unsharded = run_domain(&domain, &scorer, &config).unwrap();
        let expected = reference::run(&domain, &scorer, &config, &ShardPlan::new(1));
        assert_eq!(
            normalize(&unsharded.groups),
            normalize(&expected.groups),
            "seed {seed}: unsharded bootstrap diverged from the reference"
        );
        assert_eq!(unsharded.num_candidates, expected.num_candidates);
        assert_eq!(unsharded.num_predicted, expected.num_predicted);

        for shards in SHARD_COUNTS {
            let sharded = bootstrap(&domain, &scorer, &config, shards);
            assert_eq!(
                normalize(&sharded.groups),
                normalize(&unsharded.groups),
                "seed {seed}, {shards} shards: final groups diverged"
            );
            assert_eq!(
                sharded.post_cleanup.pairs.f1, unsharded.post_cleanup.pairs.f1,
                "seed {seed}, {shards} shards"
            );
        }
    }
}

#[test]
fn sharded_trained_security_pipeline_matches_unsharded_groups() {
    // Identifier-join recipes shard exactly (the hash joins run globally,
    // so guards and candidates coincide), so equality must hold for an
    // imperfect trained matcher too — not just the oracle.
    use gralmatch::lm::{train, MatcherScorer, ModelSpec};
    use gralmatch::records::{DatasetSplit, SplitRatios};
    use gralmatch::util::SplitRng;

    let data = dataset(41);
    let securities = data.securities.records();
    let gt = data.securities.ground_truth();
    let spec = ModelSpec::DistilBert128All;
    let encoded = spec.encode_records(securities);
    let split = DatasetSplit::new(&gt, SplitRatios::default(), &mut SplitRng::new(9));
    let (matcher, _) =
        train(securities, &encoded, &gt, &split, &spec.train_config()).expect("training");
    let scorer = MatcherScorer::new(&matcher, &encoded);

    let mut group_of: FxHashMap<RecordId, u32> = FxHashMap::default();
    for company in data.companies.records() {
        group_of.insert(company.id(), company.entity().unwrap().0);
    }
    let domain = SecurityDomain::new(securities, &group_of);
    let config = PipelineConfig::new(25, 5);
    let unsharded = run_domain(&domain, &scorer, &config).unwrap();
    for shards in SHARD_COUNTS {
        let sharded = bootstrap(&domain, &scorer, &config, shards);
        assert_eq!(sharded.num_candidates, unsharded.num_candidates);
        assert_eq!(
            normalize(&sharded.groups),
            normalize(&unsharded.groups),
            "{shards} shards: trained-matcher groups diverged"
        );
        assert_eq!(sharded.pairwise, unsharded.pairwise);
    }
}

#[test]
fn sharded_candidate_total_is_consistent() {
    // The identifier-join recipes (securities) run over the whole
    // population whatever the plan, so the sharded candidate count equals
    // the unsharded count exactly.
    let data = dataset(23);
    let securities = data.securities.records();
    let mut group_of: FxHashMap<RecordId, u32> = FxHashMap::default();
    for company in data.companies.records() {
        group_of.insert(company.id(), company.entity().unwrap().0);
    }
    let domain = SecurityDomain::new(securities, &group_of);
    let gt = domain.ground_truth().clone();
    let scorer = OracleScorer::new(&gt);
    let config = PipelineConfig::new(25, 5);
    let unsharded = run_domain(&domain, &scorer, &config).unwrap();
    let sharded = bootstrap(&domain, &scorer, &config, 4);
    assert_eq!(sharded.num_candidates, unsharded.num_candidates);
}
