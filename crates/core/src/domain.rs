//! Matching domains: the datasets the engine is generic over.
//!
//! A [`MatchingDomain`] bundles what the paper treats per dataset —
//! record access, encoding, ground truth, and the Table 2 blocking recipe —
//! behind one trait, so the Figure 1 pipeline runs companies, securities,
//! and WDC-style products (and any future workload) through the *same*
//! engine instead of a per-dataset copy of the orchestration.
//!
//! The three paper domains are provided: [`CompanyDomain`] (ID overlap
//! through issued securities + token overlap), [`SecurityDomain`] (ID
//! overlap + issuer match fed by a company-level grouping), and
//! [`ProductDomain`] (token overlap only).

use crate::engine::{FixedScorerProvider, MatchEngine};
use crate::pipeline::{MatchingOutcome, PipelineConfig};
use crate::shard::ShardPlan;
use gralmatch_blocking::{
    run_blockers, Blocker, BlockingContext, CandidateSet, CompanyIdOverlap, IssuerMatch,
    SecurityIdOverlap, TokenOverlap, TokenOverlapConfig,
};
use gralmatch_lm::{
    CompiledDataset, CompiledMatcher, CompiledScorer, EncodedRecord, ModelSpec, PairScorer,
};
use gralmatch_records::{
    CompanyRecord, GroundTruth, ProductRecord, Record, RecordId, SecurityRecord,
};
use gralmatch_util::{Error, FxHashMap};
use std::cell::OnceCell;

/// A dataset the engine can match: records, ground truth, and the
/// declarative blocking recipe.
pub trait MatchingDomain {
    /// The record type.
    type Rec: Record + Sync;

    /// Short label for traces and reports.
    fn name(&self) -> &'static str;

    /// The records, honoring the dense-id invariant (`records[i].id() == i`).
    fn records(&self) -> &[Self::Rec];

    /// Ground truth used by the three-stage evaluation.
    fn ground_truth(&self) -> &GroundTruth;

    /// The Table 2 blocking recipe as a [`Blocker`] list.
    fn blocking_strategies(&self) -> Vec<Box<dyn Blocker<Self::Rec> + '_>>;

    /// Encode the records under a model spec's encoder.
    fn encode(&self, spec: ModelSpec) -> Vec<EncodedRecord> {
        spec.encode_records(self.records())
    }
}

/// Run a domain's blocking recipe without the rest of the pipeline, on
/// one worker (the engine blocks on its configured pool).
pub fn blocked_candidates<D: MatchingDomain>(domain: &D) -> CandidateSet {
    run_blockers(
        domain.records(),
        &domain.blocking_strategies(),
        &BlockingContext::sequential(),
    )
}

/// Run a one-shot match over a domain with any pair scorer — a thin
/// wrapper over [`MatchEngine::bootstrap`] under a single-shard plan (one
/// insert-only batch against an empty state), evaluated under the paper's
/// three-stage protocol. The trace reports the engine's stage lineup
/// (`blocking → inference → merge`).
pub fn run_domain<D>(
    domain: &D,
    scorer: &dyn PairScorer,
    config: &PipelineConfig,
) -> Result<MatchingOutcome, Error>
where
    D: MatchingDomain,
    D::Rec: Clone,
{
    let (engine, load) = MatchEngine::bootstrap_domain(
        domain,
        ShardPlan::new(1),
        Box::new(FixedScorerProvider(scorer)),
        config.clone(),
    )?;
    Ok(engine.evaluate(domain.ground_truth(), &load))
}

/// Run a one-shot match over a domain with a pairwise matcher and
/// pre-encoded records (the common trained-model path) — engine-routed
/// like [`run_domain`].
///
/// The encoded streams are compiled once up front
/// ([`CompiledDataset::compile`]) and all candidate pairs score through
/// the zero-allocation [`CompiledScorer`] path — identical scores to
/// [`MatcherScorer`](gralmatch_lm::MatcherScorer), without the per-pair
/// hashing.
pub fn run_domain_with_matcher<D, M: CompiledMatcher>(
    domain: &D,
    matcher: &M,
    encoded: &[EncodedRecord],
    config: &PipelineConfig,
) -> Result<MatchingOutcome, Error>
where
    D: MatchingDomain,
    D::Rec: Clone,
{
    let compiled = CompiledDataset::compile(encoded, &matcher.feature_config());
    run_domain(domain, &CompiledScorer::new(matcher, &compiled), config)
}

/// Companies: ID Overlap (through their securities' codes) + Token Overlap.
pub struct CompanyDomain<'a> {
    companies: &'a [CompanyRecord],
    securities: &'a [SecurityRecord],
    token_config: TokenOverlapConfig,
    /// Derived lazily: blocking-only callers never pay for it.
    gt: OnceCell<GroundTruth>,
}

impl<'a> CompanyDomain<'a> {
    /// Domain over a company universe; `securities` is the universe the
    /// companies' `securities` ids point into. Ground truth derives from
    /// the records' entity labels.
    pub fn new(companies: &'a [CompanyRecord], securities: &'a [SecurityRecord]) -> Self {
        CompanyDomain {
            companies,
            securities,
            token_config: TokenOverlapConfig::default(),
            gt: OnceCell::new(),
        }
    }

    /// Override the token-overlap blocking parameters.
    pub fn with_token_config(mut self, config: TokenOverlapConfig) -> Self {
        self.token_config = config;
        self
    }
}

impl MatchingDomain for CompanyDomain<'_> {
    type Rec = CompanyRecord;

    fn name(&self) -> &'static str {
        "companies"
    }

    fn records(&self) -> &[CompanyRecord] {
        self.companies
    }

    fn ground_truth(&self) -> &GroundTruth {
        self.gt
            .get_or_init(|| GroundTruth::from_records(self.companies))
    }

    fn blocking_strategies(&self) -> Vec<Box<dyn Blocker<CompanyRecord> + '_>> {
        vec![
            Box::new(CompanyIdOverlap {
                securities: self.securities,
            }),
            Box::new(TokenOverlap::new(self.token_config.clone())),
        ]
    }
}

/// Securities: ID Overlap + Issuer Match (fed by a company grouping).
pub struct SecurityDomain<'a> {
    securities: &'a [SecurityRecord],
    company_group_of: &'a FxHashMap<RecordId, u32>,
    /// Derived lazily: blocking-only callers never pay for it.
    gt: OnceCell<GroundTruth>,
}

impl<'a> SecurityDomain<'a> {
    /// Domain over a security universe. `company_group_of` maps company
    /// record ids to their matched-group ids (output of the company-level
    /// matching, Section 5.3.1).
    pub fn new(
        securities: &'a [SecurityRecord],
        company_group_of: &'a FxHashMap<RecordId, u32>,
    ) -> Self {
        SecurityDomain {
            securities,
            company_group_of,
            gt: OnceCell::new(),
        }
    }
}

impl MatchingDomain for SecurityDomain<'_> {
    type Rec = SecurityRecord;

    fn name(&self) -> &'static str {
        "securities"
    }

    fn records(&self) -> &[SecurityRecord] {
        self.securities
    }

    fn ground_truth(&self) -> &GroundTruth {
        self.gt
            .get_or_init(|| GroundTruth::from_records(self.securities))
    }

    fn blocking_strategies(&self) -> Vec<Box<dyn Blocker<SecurityRecord> + '_>> {
        vec![
            Box::new(SecurityIdOverlap),
            Box::new(IssuerMatch {
                company_group_of: self.company_group_of,
            }),
        ]
    }
}

/// WDC-style products: Token Overlap only (no identifier codes).
pub struct ProductDomain<'a> {
    products: &'a [ProductRecord],
    token_config: TokenOverlapConfig,
    /// Derived lazily: blocking-only callers never pay for it.
    gt: OnceCell<GroundTruth>,
}

impl<'a> ProductDomain<'a> {
    /// Domain over a product universe.
    pub fn new(products: &'a [ProductRecord]) -> Self {
        ProductDomain {
            products,
            token_config: TokenOverlapConfig::default(),
            gt: OnceCell::new(),
        }
    }

    /// Override the token-overlap blocking parameters.
    pub fn with_token_config(mut self, config: TokenOverlapConfig) -> Self {
        self.token_config = config;
        self
    }
}

impl MatchingDomain for ProductDomain<'_> {
    type Rec = ProductRecord;

    fn name(&self) -> &'static str {
        "products"
    }

    fn records(&self) -> &[ProductRecord] {
        self.products
    }

    fn ground_truth(&self) -> &GroundTruth {
        self.gt
            .get_or_init(|| GroundTruth::from_records(self.products))
    }

    fn blocking_strategies(&self) -> Vec<Box<dyn Blocker<ProductRecord> + '_>> {
        vec![Box::new(TokenOverlap::new(self.token_config.clone()))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gralmatch_records::{EntityId, SourceId};

    fn products() -> Vec<ProductRecord> {
        let mut one = ProductRecord::new(RecordId(0), SourceId(0), "Acme Blender 3000 Pro");
        one.entity = Some(EntityId(1));
        let mut two = ProductRecord::new(RecordId(1), SourceId(1), "Acme Blender 3000 Pro");
        two.entity = Some(EntityId(1));
        let mut three = ProductRecord::new(RecordId(2), SourceId(2), "Globex Kettle 12");
        three.entity = Some(EntityId(2));
        vec![one, two, three]
    }

    #[test]
    fn product_domain_blocks_by_token_overlap_only() {
        let records = products();
        let domain = ProductDomain::new(&records).with_token_config(TokenOverlapConfig {
            top_n: 5,
            max_token_df: 50,
            min_overlap: 2,
        });
        assert_eq!(domain.name(), "products");
        let strategies = domain.blocking_strategies();
        assert_eq!(strategies.len(), 1);
        let candidates = blocked_candidates(&domain);
        assert!(candidates.from_blocking(
            gralmatch_records::RecordPair::new(RecordId(0), RecordId(1)),
            gralmatch_blocking::BlockingKind::TokenOverlap
        ));
    }

    #[test]
    fn domain_ground_truth_derives_from_labels() {
        let records = products();
        let domain = ProductDomain::new(&records);
        assert_eq!(domain.ground_truth().num_true_pairs(), 1);
        assert_eq!(domain.records().len(), 3);
    }

    #[test]
    fn domain_encodes_under_spec() {
        let records = products();
        let domain = ProductDomain::new(&records);
        let encoded = domain.encode(ModelSpec::DistilBert128All);
        assert_eq!(encoded.len(), 3);
        assert!(!encoded[0].is_empty());
    }
}
