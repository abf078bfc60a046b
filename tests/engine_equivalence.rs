//! Property tests: the `MatchEngine` is the reference pipeline, verbatim.
//!
//! For seeded random datasets, `MatchEngine::bootstrap` + **any**
//! partition of the remaining records into replayed delta batches — batch
//! splits ∈ {1, 3, 8}, with delete/re-insert churn woven through — must
//! land on exactly the groups of the from-scratch
//! [`reference::run`](gralmatch::core::reference::run) over the final
//! population under the same shard plan: execution shape is a strategy,
//! never a semantics change. One case scores the engine side
//! through a matcher **loaded from disk** (`SavedModel` round-trip) while
//! the oracle scores through the in-memory original, so the equivalence
//! also gates model persistence and the provider's per-record incremental
//! encoding. Source-keyed plans split every multi-source group across
//! shards, so under them the cross-shard joins and the dirty-component
//! merge carry recall; those replays run scorers that make real false
//! positives (the heuristic matcher, a flipped oracle).

use gralmatch::blocking::Blocker;
use gralmatch::core::{
    blocked_candidates, group_metrics, reference, CompanyDomain, CompiledScorerProvider,
    FixedScorerProvider, MatchEngine, MatchingDomain, OracleMatcher, OracleScorer, PipelineConfig,
    ScorerProvider, SecurityDomain, ShardKey, ShardPlan, UpsertBatch, HEURISTIC_JACCARD,
};
use gralmatch::datagen::{generate, FinancialDataset, GenerationConfig};
use gralmatch::lm::{
    CompiledDataset, CompiledScorer, HeuristicMatcher, MatcherScorer, ModelSpec, PairScorer,
    PairwiseMatcher, SavedModel,
};
use gralmatch::records::{DatasetSplit, Record, RecordId, SplitRatios};
use gralmatch::util::{FxHashMap, SplitRng};

const BATCH_SPLITS: [usize; 3] = [1, 3, 8];

fn dataset(seed: u64) -> FinancialDataset {
    let mut config = GenerationConfig::synthetic_full();
    config.num_entities = 90;
    config.seed = seed;
    generate(&config).unwrap()
}

fn company_groups(data: &FinancialDataset) -> FxHashMap<RecordId, u32> {
    data.companies
        .records()
        .iter()
        .map(|company| (company.id, company.entity.unwrap().0))
        .collect()
}

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

/// Drive one engine through an initial load + `k` churn-weaving delta
/// batches (batch `j` deletes a small slice of loaded records, batch
/// `j + 1` re-inserts it), ending at the full population. Returns the
/// engine's final groups — read back through the group-lookup index, so
/// the replay also exercises the incremental index maintenance — and the
/// boundary merges summed over every batch.
fn replay_engine<'a, R>(
    records: &[R],
    strategies: Vec<Box<dyn Blocker<R> + 'a>>,
    provider: Box<dyn ScorerProvider<R> + 'a>,
    config: &PipelineConfig,
    plan: ShardPlan,
    k: usize,
    context: &str,
) -> (Vec<Vec<RecordId>>, usize)
where
    R: Record + Clone + Sync,
{
    let initial = records.len() * 3 / 5;
    let (mut engine, load) = MatchEngine::bootstrap(
        plan,
        records[..initial].to_vec(),
        strategies,
        provider,
        config.clone(),
    )
    .unwrap_or_else(|e| panic!("{context}: initial load: {e:?}"));
    let mut boundary_merges = load.boundary_merges;

    let remainder = &records[initial..];
    let chunk = remainder.len().div_ceil(k);
    let mut pending: Vec<R> = Vec::new();
    for (j, slice) in remainder.chunks(chunk.max(1)).enumerate() {
        let churn: Vec<R> = records[gralmatch::core::churn_window(initial, j, 4)]
            .iter()
            .filter(|r| engine.group_of(r.id()).is_some())
            .cloned()
            .collect();
        let batch = UpsertBatch {
            inserts: slice.iter().cloned().chain(pending.drain(..)).collect(),
            updates: Vec::new(),
            deletes: churn.iter().map(|r| r.id()).collect(),
        };
        boundary_merges += engine
            .apply_batch(&batch)
            .unwrap_or_else(|e| panic!("{context}: batch {j}: {e:?}"))
            .boundary_merges;
        pending = churn;
    }
    if !pending.is_empty() {
        boundary_merges += engine
            .apply_batch(&UpsertBatch::inserting(pending))
            .unwrap_or_else(|e| panic!("{context}: churn restore: {e:?}"))
            .boundary_merges;
    }
    assert_eq!(
        engine.stats().num_live,
        records.len(),
        "{context}: replay must end at the full population"
    );
    (engine.groups(), boundary_merges)
}

#[test]
fn engine_replay_matches_reference_on_securities() {
    for seed in [5u64, 23] {
        let data = dataset(seed);
        let securities = data.securities.records();
        let group_of = company_groups(&data);
        let domain = SecurityDomain::new(securities, &group_of);
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let config = PipelineConfig::new(25, 5);
        let plan = ShardPlan::new(4);
        let one_shot = reference::run(&domain, &scorer, &config, &plan);

        for k in BATCH_SPLITS {
            let (groups, _) = replay_engine(
                securities,
                domain.blocking_strategies(),
                Box::new(FixedScorerProvider(&scorer)),
                &config,
                plan,
                k,
                &format!("seed {seed}, {k} batches"),
            );
            assert_eq!(
                normalize(&groups),
                normalize(&one_shot.groups),
                "seed {seed}, {k} batches: engine diverged from the reference"
            );
        }
    }
}

#[test]
fn engine_replay_matches_reference_on_companies() {
    for seed in [17u64] {
        let data = dataset(seed);
        let companies = data.companies.records();
        let domain = CompanyDomain::new(companies, data.securities.records());
        let gt = domain.ground_truth().clone();
        let scorer = OracleScorer::new(&gt);
        let config = PipelineConfig::new(25, 5).with_pre_cleanup(50);
        let plan = ShardPlan::new(4);
        let one_shot = reference::run(&domain, &scorer, &config, &plan);

        for k in BATCH_SPLITS {
            let (groups, _) = replay_engine(
                companies,
                domain.blocking_strategies(),
                Box::new(FixedScorerProvider(&scorer)),
                &config,
                plan,
                k,
                &format!("seed {seed}, {k} batches"),
            );
            assert_eq!(
                normalize(&groups),
                normalize(&one_shot.groups),
                "seed {seed}, {k} batches: engine diverged from the reference"
            );
        }
    }
}

#[test]
fn engine_with_disk_loaded_matcher_matches_oracle_scoring_the_original() {
    // Train a real matcher, persist it, and replay the engine **through
    // the reloaded model** while the reference scores through the
    // in-memory original over batch-encoded records. Equality means the
    // SavedModel round-trip is score-exact and the provider's per-record
    // incremental encode+compile equals the up-front dataset compile.
    let seed = 41u64;
    let data = dataset(seed);
    let securities = data.securities.records();
    let gt = data.securities.ground_truth();
    let spec = ModelSpec::DistilBert128All;
    let encoded = spec.encode_records(securities);
    let split = DatasetSplit::new(&gt, SplitRatios::default(), &mut SplitRng::new(seed));
    let (matcher, _) =
        gralmatch::lm::train(securities, &encoded, &gt, &split, &spec.train_config()).unwrap();

    let dir = std::env::temp_dir().join("gralmatch-engine-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("securities-{seed}.json"));
    SavedModel::new(spec, matcher.clone()).save(&path).unwrap();
    let loaded = SavedModel::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.spec, spec);

    let group_of = company_groups(&data);
    let domain = SecurityDomain::new(securities, &group_of);
    let config = PipelineConfig::new(25, 5);
    let plan = ShardPlan::new(3);

    // Reference: the original matcher over the one-shot compile.
    let compiled = CompiledDataset::compile(&encoded, &matcher.feature_config());
    let scorer = CompiledScorer::new(&matcher, &compiled);
    let one_shot = reference::run(&domain, &scorer, &config, &plan);

    // Engine: the reloaded matcher, encoding records as batches arrive.
    let provider = CompiledScorerProvider::new(loaded.matcher, loaded.spec.encoder());
    let (groups, _) = replay_engine(
        securities,
        domain.blocking_strategies(),
        Box::new(provider),
        &config,
        plan,
        3,
        &format!("seed {seed}, disk-loaded matcher"),
    );
    assert_eq!(
        normalize(&groups),
        normalize(&one_shot.groups),
        "seed {seed}: disk-loaded engine diverged from the in-memory oracle"
    );
}

/// Replay `domain` under source-keyed plans of 2, 4 and 8 shards with
/// churn; the engine must land on the reference groups, merging across
/// shards, with group recall above `min_recall`.
fn assert_source_keyed_replays_match_reference<D>(
    domain: &D,
    scorer: &dyn PairScorer,
    config: &PipelineConfig,
    min_recall: f64,
    label: &str,
) where
    D: MatchingDomain,
    D::Rec: Clone,
{
    for shards in [2usize, 4, 8] {
        let plan = ShardPlan::new(shards).with_key(ShardKey::Source);
        let context = format!("{label}, {shards} source-keyed shards");
        let expected = reference::run(domain, scorer, config, &plan);
        let (groups, boundary_merges) = replay_engine(
            domain.records(),
            domain.blocking_strategies(),
            Box::new(FixedScorerProvider(scorer)),
            config,
            plan,
            3,
            &context,
        );
        assert_eq!(
            normalize(&groups),
            normalize(&expected.groups),
            "{context}: engine diverged from the reference"
        );
        assert!(boundary_merges > 0, "{context}: no boundary merge");
        assert!(
            groups.iter().all(|group| group.len() <= config.cleanup.mu),
            "{context}: a group exceeds μ after the merge cleanup"
        );
        let recall = group_metrics(&groups, domain.ground_truth()).pairs.recall;
        assert!(recall > min_recall, "{context}: recall {recall}");
    }
}

/// A flipped oracle: every fifth negative candidate pair is predicted a
/// match, so false positives bridge true groups.
fn flipped_oracle<D: MatchingDomain>(domain: &D) -> OracleMatcher<'_> {
    let gt = domain.ground_truth();
    let flips = blocked_candidates(domain)
        .pairs_sorted()
        .into_iter()
        .filter(|&pair| !gt.is_match_pair(pair))
        .step_by(5)
        .collect();
    OracleMatcher::with_flips(gt, flips)
}

#[test]
fn engine_replay_matches_reference_under_source_keyed_sharding() {
    let data = dataset(11);
    let heuristic = HeuristicMatcher {
        jaccard_threshold: HEURISTIC_JACCARD,
    };
    let spec = ModelSpec::DistilBert128All;

    let companies = data.companies.records();
    let domain = CompanyDomain::new(companies, data.securities.records());
    let config = PipelineConfig::new(25, 5).with_pre_cleanup(50);
    let encoded = spec.encode_records(companies);
    let scorer = MatcherScorer::new(&heuristic, &encoded);
    assert_source_keyed_replays_match_reference(
        &domain,
        &scorer,
        &config,
        0.3,
        "companies, heuristic",
    );
    let oracle = flipped_oracle(&domain);
    assert_source_keyed_replays_match_reference(
        &domain,
        &oracle.scorer(),
        &config,
        0.3,
        "companies, flipped oracle",
    );

    let group_of = company_groups(&data);
    let securities = data.securities.records();
    let domain = SecurityDomain::new(securities, &group_of);
    let config = PipelineConfig::new(25, 5);
    let encoded = spec.encode_records(securities);
    let scorer = MatcherScorer::new(&heuristic, &encoded);
    // Security names are near-boilerplate ("Registered Shs"), so the name
    // heuristic misses most true pairs; recall is bounded for the oracle.
    assert_source_keyed_replays_match_reference(
        &domain,
        &scorer,
        &config,
        0.0,
        "securities, heuristic",
    );
    let oracle = flipped_oracle(&domain);
    assert_source_keyed_replays_match_reference(
        &domain,
        &oracle.scorer(),
        &config,
        0.3,
        "securities, flipped oracle",
    );
}
