//! Spans and counters taken from outside the engine, at the two injection
//! seams it already accepts: the [`Blocker`] strategies and the
//! [`ScorerProvider`] / [`PairScorer`] pair.
//!
//! The wrappers forward every trait method, the defaulted ones included,
//! so a traced engine runs the same program as an untraced one: a
//! wrapper that inherited the default `block_delta` would re-block a
//! concatenated copy instead of calling the recipe's own override.

use gralmatch_blocking::{Blocker, BlockingContext, BlockingKind, CandidateSet};
use gralmatch_core::{ScorerProvider, UpsertBatch};
use gralmatch_lm::{PairScorer, ScoreScratch};
use gralmatch_records::{Record, RecordPair};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn add(cell: &AtomicU64, amount: u64) {
    // Statistics only: no other data is published through these cells.
    cell.fetch_add(amount, Ordering::Relaxed);
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Default)]
struct RecipeCells {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    records_in: AtomicU64,
    pairs_out: AtomicU64,
}

impl RecipeCells {
    fn record(&self, start: Instant, records_in: usize, pairs_out: usize) {
        add(&self.busy_ns, elapsed_ns(start));
        add(&self.calls, 1);
        add(&self.records_in, records_in as u64);
        add(&self.pairs_out, pairs_out as u64);
    }

    fn read(&self) -> RecipeCounters {
        RecipeCounters {
            calls: self.calls.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            records_in: self.records_in.load(Ordering::Relaxed),
            pairs_out: self.pairs_out.load(Ordering::Relaxed),
        }
    }
}

#[derive(Default)]
struct LmCells {
    prime_ns: AtomicU64,
    records_primed: AtomicU64,
    absorb_ns: AtomicU64,
    records_compiled: AtomicU64,
    pairs_scored: AtomicU64,
    score_busy_ns: AtomicU64,
    positives: AtomicU64,
}

/// One blocking recipe's totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecipeCounters {
    /// `block` + `block_delta` calls.
    pub calls: u64,
    /// Wall-clock nanoseconds inside those calls.
    pub busy_ns: u64,
    /// Records handed over (standing + new for `block_delta`).
    pub records_in: u64,
    /// Candidate pairs the calls added to their output sets.
    pub pairs_out: u64,
}

/// Scorer-side totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LmCounters {
    /// Nanoseconds in `ScorerProvider::prime`.
    pub prime_ns: u64,
    /// Records handed to `prime`.
    pub records_primed: u64,
    /// Nanoseconds in `ScorerProvider::absorb`.
    pub absorb_ns: u64,
    /// Inserted or updated records handed to `absorb` (each is recompiled).
    pub records_compiled: u64,
    /// Pairs scored.
    pub pairs_scored: u64,
    /// Nanoseconds inside the scoring calls.
    pub score_busy_ns: u64,
    /// Scored pairs at or above the scorer's threshold.
    pub positives: u64,
}

/// A reading of every counter; subtract two readings with
/// [`Counters::since`] to get one scope's totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Per blocking recipe, by [`Blocker::name`].
    pub recipes: BTreeMap<&'static str, RecipeCounters>,
    /// The scorer provider's counters.
    pub lm: LmCounters,
}

impl Counters {
    /// The totals accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, |now, then| now - then)
    }

    /// The totals of two disjoint scopes together.
    pub fn plus(&self, other: &Counters) -> Counters {
        self.zip(other, |a, b| a + b)
    }

    fn zip(&self, other: &Counters, op: impl Fn(u64, u64) -> u64) -> Counters {
        let recipes = self
            .recipes
            .keys()
            .chain(other.recipes.keys())
            .map(|&name| {
                let a = self.recipes.get(name).copied().unwrap_or_default();
                let b = other.recipes.get(name).copied().unwrap_or_default();
                let delta = RecipeCounters {
                    calls: op(a.calls, b.calls),
                    busy_ns: op(a.busy_ns, b.busy_ns),
                    records_in: op(a.records_in, b.records_in),
                    pairs_out: op(a.pairs_out, b.pairs_out),
                };
                (name, delta)
            })
            .collect();
        let (a, b) = (&self.lm, &other.lm);
        Counters {
            recipes,
            lm: LmCounters {
                prime_ns: op(a.prime_ns, b.prime_ns),
                records_primed: op(a.records_primed, b.records_primed),
                absorb_ns: op(a.absorb_ns, b.absorb_ns),
                records_compiled: op(a.records_compiled, b.records_compiled),
                pairs_scored: op(a.pairs_scored, b.pairs_scored),
                score_busy_ns: op(a.score_busy_ns, b.score_busy_ns),
                positives: op(a.positives, b.positives),
            },
        }
    }

    /// Nanoseconds busy across all blocking recipes.
    pub fn blocking_busy_ns(&self) -> u64 {
        self.recipes.values().map(|recipe| recipe.busy_ns).sum()
    }
}

/// The shared cells every wrapper of one benchmark run adds into. Engines
/// built and dropped during a run (set-ups, recoveries) all feed the same
/// cells, keyed by recipe name.
#[derive(Default)]
pub struct Tracer {
    recipes: Mutex<BTreeMap<&'static str, Arc<RecipeCells>>>,
    lm: Arc<LmCells>,
}

impl Tracer {
    /// Wrap a blocking recipe so its calls are counted and timed.
    pub fn blocker<'a, R: Record + 'a>(
        &self,
        inner: Box<dyn Blocker<R> + 'a>,
    ) -> Box<dyn Blocker<R> + 'a> {
        let cells = self
            .recipes
            .lock()
            .expect("tracer recipe map poisoned")
            .entry(inner.name())
            .or_default()
            .clone();
        Box::new(TracedBlocker { inner, cells })
    }

    /// Wrap a scorer provider so priming, absorbing and scoring are
    /// counted and timed.
    pub fn provider<R, P>(&self, inner: P) -> TracedProvider<P, R>
    where
        R: Record,
        P: ScorerProvider<R> + Sync,
    {
        TracedProvider {
            inner,
            cells: self.lm.clone(),
            _records: PhantomData,
        }
    }

    /// Read every counter now.
    pub fn read(&self) -> Counters {
        let recipes = self
            .recipes
            .lock()
            .expect("tracer recipe map poisoned")
            .iter()
            .map(|(&name, cells)| (name, cells.read()))
            .collect();
        let lm = &self.lm;
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        Counters {
            recipes,
            lm: LmCounters {
                prime_ns: load(&lm.prime_ns),
                records_primed: load(&lm.records_primed),
                absorb_ns: load(&lm.absorb_ns),
                records_compiled: load(&lm.records_compiled),
                pairs_scored: load(&lm.pairs_scored),
                score_busy_ns: load(&lm.score_busy_ns),
                positives: load(&lm.positives),
            },
        }
    }
}

struct TracedBlocker<'a, R> {
    inner: Box<dyn Blocker<R> + 'a>,
    cells: Arc<RecipeCells>,
}

impl<R: Record> Blocker<R> for TracedBlocker<'_, R> {
    fn kind(&self) -> BlockingKind {
        self.inner.kind()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cross_shard(&self) -> bool {
        self.inner.cross_shard()
    }

    fn block(&self, records: &[R], ctx: &BlockingContext, out: &mut CandidateSet) {
        let before = out.len();
        let start = Instant::now();
        self.inner.block(records, ctx, out);
        self.cells.record(start, records.len(), out.len() - before);
    }

    fn block_delta(
        &self,
        new_records: &[R],
        standing_records: &[R],
        ctx: &BlockingContext,
        out: &mut CandidateSet,
    ) where
        R: Clone,
    {
        let before = out.len();
        let start = Instant::now();
        self.inner
            .block_delta(new_records, standing_records, ctx, out);
        self.cells.record(
            start,
            new_records.len() + standing_records.len(),
            out.len() - before,
        );
    }
}

/// A [`ScorerProvider`] that is also the [`PairScorer`] it hands out:
/// each scoring call goes through the inner provider's current scorer.
pub struct TracedProvider<P, R> {
    inner: P,
    cells: Arc<LmCells>,
    _records: PhantomData<fn(&R)>,
}

impl<P, R> TracedProvider<P, R>
where
    P: ScorerProvider<R> + Sync,
{
    fn scored(&self, score: impl FnOnce(&dyn PairScorer) -> f32) -> f32 {
        let scorer = self.inner.scorer();
        let start = Instant::now();
        let value = score(scorer);
        add(&self.cells.score_busy_ns, elapsed_ns(start));
        add(&self.cells.pairs_scored, 1);
        if value >= scorer.threshold() {
            add(&self.cells.positives, 1);
        }
        value
    }
}

impl<P, R> ScorerProvider<R> for TracedProvider<P, R>
where
    R: Record,
    P: ScorerProvider<R> + Sync,
{
    fn prime(&mut self, records: &[R]) {
        let start = Instant::now();
        self.inner.prime(records);
        add(&self.cells.prime_ns, elapsed_ns(start));
        add(&self.cells.records_primed, records.len() as u64);
    }

    fn absorb(&mut self, batch: &UpsertBatch<R>) {
        let start = Instant::now();
        self.inner.absorb(batch);
        add(&self.cells.absorb_ns, elapsed_ns(start));
        add(
            &self.cells.records_compiled,
            (batch.inserts.len() + batch.updates.len()) as u64,
        );
    }

    fn scorer(&self) -> &dyn PairScorer {
        self
    }

    fn verify_scorer(&mut self) -> &dyn PairScorer {
        self.inner.verify_scorer()
    }
}

impl<P, R> PairScorer for TracedProvider<P, R>
where
    P: ScorerProvider<R> + Sync,
{
    fn score_pair(&self, pair: RecordPair) -> f32 {
        self.scored(|scorer| scorer.score_pair(pair))
    }

    fn score_pair_scratch(&self, pair: RecordPair, scratch: &mut ScoreScratch) -> f32 {
        self.scored(|scorer| scorer.score_pair_scratch(pair, scratch))
    }

    fn threshold(&self) -> f32 {
        self.inner.scorer().threshold()
    }

    fn memory_bytes(&self) -> Option<usize> {
        self.inner.scorer().memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gralmatch_records::{RecordId, SecurityRecord, SourceId};

    fn record(id: u32) -> SecurityRecord {
        SecurityRecord::new(RecordId(id), SourceId(0), "ACME ORD", RecordId(0))
    }

    /// Counts which of the probe blocker's methods ran.
    #[derive(Default)]
    struct ProbeCalls {
        block: AtomicU64,
        block_delta: AtomicU64,
    }

    /// Overrides every defaulted method.
    struct Probe(Arc<ProbeCalls>);

    impl Blocker<SecurityRecord> for Probe {
        fn kind(&self) -> BlockingKind {
            BlockingKind::IdOverlap
        }

        fn name(&self) -> &'static str {
            "probe"
        }

        fn cross_shard(&self) -> bool {
            true
        }

        fn block(&self, _: &[SecurityRecord], _: &BlockingContext, out: &mut CandidateSet) {
            add(&self.0.block, 1);
            out.add(RecordPair::new(RecordId(0), RecordId(1)), self.kind());
        }

        fn block_delta(
            &self,
            _: &[SecurityRecord],
            _: &[SecurityRecord],
            _: &BlockingContext,
            out: &mut CandidateSet,
        ) {
            add(&self.0.block_delta, 1);
            out.add(RecordPair::new(RecordId(0), RecordId(2)), self.kind());
            out.add(RecordPair::new(RecordId(1), RecordId(2)), self.kind());
        }
    }

    #[test]
    fn traced_blocker_forwards_every_method() {
        let tracer = Tracer::default();
        let probe = Arc::new(ProbeCalls::default());
        let traced = tracer.blocker::<SecurityRecord>(Box::new(Probe(probe.clone())));
        assert_eq!(traced.name(), "probe");
        assert!(traced.cross_shard());
        assert_eq!(traced.kind(), BlockingKind::IdOverlap);

        let ctx = BlockingContext::sequential();
        let mut out = CandidateSet::new();
        traced.block_delta(&[record(2)], &[record(0), record(1)], &ctx, &mut out);
        traced.block(&[record(0), record(1)], &ctx, &mut out);
        assert_eq!(probe.block_delta.load(Ordering::Relaxed), 1);
        assert_eq!(probe.block.load(Ordering::Relaxed), 1);

        let recipe = tracer.read().recipes["probe"];
        assert_eq!(recipe.calls, 2);
        assert_eq!(recipe.records_in, 5);
        assert_eq!(recipe.pairs_out, 3);
    }

    /// A scorer provider overriding every defaulted method.
    #[derive(Default)]
    struct FakeProvider {
        primed: usize,
        absorbed: usize,
        verified: usize,
    }

    impl PairScorer for FakeProvider {
        fn score_pair(&self, pair: RecordPair) -> f32 {
            if pair.a.0 == 0 {
                0.9
            } else {
                0.1
            }
        }

        fn score_pair_scratch(&self, pair: RecordPair, _: &mut ScoreScratch) -> f32 {
            if pair.a.0 == 0 {
                0.8
            } else {
                0.2
            }
        }

        fn threshold(&self) -> f32 {
            0.7
        }

        fn memory_bytes(&self) -> Option<usize> {
            Some(42)
        }
    }

    impl ScorerProvider<SecurityRecord> for FakeProvider {
        fn prime(&mut self, records: &[SecurityRecord]) {
            self.primed += records.len();
        }

        fn absorb(&mut self, batch: &UpsertBatch<SecurityRecord>) {
            self.absorbed += batch.len();
        }

        fn scorer(&self) -> &dyn PairScorer {
            self
        }

        fn verify_scorer(&mut self) -> &dyn PairScorer {
            self.verified += 1;
            self
        }
    }

    #[test]
    fn traced_provider_forwards_every_method() {
        let tracer = Tracer::default();
        let mut traced = tracer.provider(FakeProvider::default());
        traced.prime(&[record(0), record(1)]);
        traced.absorb(&UpsertBatch::inserting(vec![record(2)]));
        let _ = traced.verify_scorer();

        let scorer = ScorerProvider::<SecurityRecord>::scorer(&traced);
        assert_eq!(scorer.threshold(), 0.7);
        assert_eq!(scorer.memory_bytes(), Some(42));
        let hit = RecordPair::new(RecordId(0), RecordId(1));
        let miss = RecordPair::new(RecordId(1), RecordId(2));
        assert_eq!(scorer.score_pair(hit), 0.9);
        assert_eq!(
            scorer.score_pair_scratch(hit, &mut ScoreScratch::default()),
            0.8
        );
        assert_eq!(scorer.score_pair(miss), 0.1);

        assert_eq!(traced.inner.primed, 2);
        assert_eq!(traced.inner.absorbed, 1);
        assert_eq!(traced.inner.verified, 1);
        let lm = tracer.read().lm;
        assert_eq!(lm.records_primed, 2);
        assert_eq!(lm.records_compiled, 1);
        assert_eq!(lm.pairs_scored, 3);
        assert_eq!(lm.positives, 2);
    }
}
