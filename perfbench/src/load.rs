//! The benchmark's inputs: the standing corpus of each record domain and
//! the batch streams a writer applies to it. Everything here is a pure
//! function of the generated corpus, so one seed gives one input.

use gralmatch_blocking::{Blocker, SecurityIdOverlap, TokenOverlap, TokenOverlapConfig};
use gralmatch_core::{churn_window, UpsertBatch};
use gralmatch_datagen::FinancialDataset;
use gralmatch_records::{CompanyRecord, Record, SecurityRecord};
use gralmatch_util::BinRecord;
use std::collections::BTreeSet;
use std::ops::Range;

/// A record domain the benchmark drives: where its corpus comes from and
/// the blocking lineup a long-lived engine runs it under (the serve
/// lineup: self-contained recipes only, so the same list works at
/// bootstrap and at every restart).
pub trait Domain: Record + Clone + Send + Sync + BinRecord + 'static {
    /// The standing corpus, in id order.
    fn corpus(data: &FinancialDataset) -> Vec<Self>;

    /// The blocking lineup.
    fn strategies() -> Vec<Box<dyn Blocker<Self>>>;
}

impl Domain for SecurityRecord {
    fn corpus(data: &FinancialDataset) -> Vec<Self> {
        data.securities.records().to_vec()
    }

    fn strategies() -> Vec<Box<dyn Blocker<Self>>> {
        vec![
            Box::new(SecurityIdOverlap),
            Box::new(TokenOverlap::new(TokenOverlapConfig::default())),
        ]
    }
}

impl Domain for CompanyRecord {
    fn corpus(data: &FinancialDataset) -> Vec<Self> {
        data.companies.records().to_vec()
    }

    fn strategies() -> Vec<Box<dyn Blocker<Self>>> {
        vec![Box::new(TokenOverlap::new(TokenOverlapConfig::default()))]
    }
}

/// A writer's batch sequence over a standing corpus.
pub trait BatchStream<R> {
    /// The next batch.
    fn next_batch(&mut self) -> UpsertBatch<R>;

    /// The batch that returns the live records to exactly the original
    /// corpus, so the settled engine can be compared with a bootstrap of
    /// that corpus whatever number of batches a run applied.
    fn settle(&mut self) -> UpsertBatch<R>;
}

/// Records of `records[window]` not already waiting to be re-inserted.
fn take_window<R: Record + Clone>(records: &[R], window: Range<usize>, pending: &[R]) -> Vec<R> {
    records[window]
        .iter()
        .filter(|record| !pending.iter().any(|p| p.id() == record.id()))
        .cloned()
        .collect()
}

/// Small-batch churn: batch `j` deletes [`churn_window`] `j` (three
/// records, stride 5) and re-inserts the window batch `j - 1` deleted.
pub struct Churn<R> {
    records: Vec<R>,
    pending: Vec<R>,
    next: usize,
}

impl<R: Record + Clone> Churn<R> {
    /// Churn over `records`, all of them live at the start.
    pub fn new(records: Vec<R>) -> Self {
        Churn {
            records,
            pending: Vec::new(),
            next: 0,
        }
    }
}

impl<R: Record + Clone> BatchStream<R> for Churn<R> {
    fn next_batch(&mut self) -> UpsertBatch<R> {
        let window = churn_window(self.records.len(), self.next, 5);
        self.next += 1;
        let deleted = take_window(&self.records, window, &self.pending);
        let mut batch = UpsertBatch::new();
        batch.deletes = deleted.iter().map(Record::id).collect();
        batch.inserts = std::mem::replace(&mut self.pending, deleted);
        batch
    }

    fn settle(&mut self) -> UpsertBatch<R> {
        UpsertBatch::inserting(std::mem::take(&mut self.pending))
    }
}

/// Records each feed batch deletes (and re-inserts one batch later).
pub const FEED_DELETES: usize = 100;
/// Standing records each feed batch updates.
pub const FEED_UPDATES: usize = 50;
/// The tail of the corpus the updates rotate through; deletes never
/// reach it, so no batch updates a record that is not live.
pub const FEED_UPDATE_POOL: usize = 500;

/// Provider-style wide batches over companies: batch `j` deletes a
/// 100-record window, re-inserts the previous window, and updates 50
/// records of the update pool with a batch-stamped city.
pub struct Feed {
    records: Vec<CompanyRecord>,
    pending: Vec<CompanyRecord>,
    /// Pool positions whose live version carries a stamp.
    stamped: BTreeSet<usize>,
    next: usize,
}

impl Feed {
    /// Feed over `records`, all of them live at the start.
    ///
    /// # Panics
    /// When the corpus is too small for two delete windows beside the
    /// update pool.
    pub fn new(records: Vec<CompanyRecord>) -> Self {
        assert!(
            records.len() >= FEED_UPDATE_POOL + 2 * FEED_DELETES,
            "feed needs at least {} records, got {}",
            FEED_UPDATE_POOL + 2 * FEED_DELETES,
            records.len()
        );
        Feed {
            records,
            pending: Vec::new(),
            stamped: BTreeSet::new(),
            next: 0,
        }
    }

    fn delete_window(&self, j: usize) -> Range<usize> {
        let slots = (self.records.len() - FEED_UPDATE_POOL) / FEED_DELETES;
        let start = (j % slots) * FEED_DELETES;
        start..start + FEED_DELETES
    }

    fn update_window(&self, j: usize) -> Range<usize> {
        let pool_start = self.records.len() - FEED_UPDATE_POOL;
        let start = pool_start + (j % (FEED_UPDATE_POOL / FEED_UPDATES)) * FEED_UPDATES;
        start..start + FEED_UPDATES
    }
}

impl BatchStream<CompanyRecord> for Feed {
    fn next_batch(&mut self) -> UpsertBatch<CompanyRecord> {
        let j = self.next;
        self.next += 1;
        let deleted = take_window(&self.records, self.delete_window(j), &self.pending);
        let mut batch = UpsertBatch::new();
        batch.deletes = deleted.iter().map(Record::id).collect();
        batch.inserts = std::mem::replace(&mut self.pending, deleted);
        for position in self.update_window(j) {
            let mut record = self.records[position].clone();
            record.city = format!("{} B{j}", record.city);
            batch.updates.push(record);
            self.stamped.insert(position);
        }
        batch
    }

    fn settle(&mut self) -> UpsertBatch<CompanyRecord> {
        let mut batch = UpsertBatch::inserting(std::mem::take(&mut self.pending));
        batch.updates = std::mem::take(&mut self.stamped)
            .into_iter()
            .map(|position| self.records[position].clone())
            .collect();
        batch
    }
}
