//! One benchmark run: set-up, the timed phase, the output checks, and
//! the metrics.
//!
//! Every workload runs the same phases against the engine's public API,
//! so every run reports every metric; the workloads differ in corpus and
//! batch stream:
//!
//! 1. **Set-up**: `MatchEngine::bootstrap` plus the first checkpoint
//!    from `enable_durability` give the writer's engine.
//! 2. **Writes, restarts and set-ups**, interleaved for `--seconds`,
//!    while one closed-loop reader thread checks lookups on the published
//!    snapshot. One closed-loop writer applies the workload's batches.
//!    Each further set-up bootstraps a throwaway engine. A restart
//!    that falls due checkpoints the writer; the next [`TAIL_BATCHES`]
//!    batches go to its WAL; the snapshot and WAL are copied, as a crash
//!    would leave them, and `recover_engine` restarts from the copy. The
//!    restarted engine must reproduce the writer's groups and epoch; it
//!    then moves to a separate path and times
//!    [`CHECKPOINTS_PER_RESTART`] calls to `MatchEngine::checkpoint`.
//! 3. **Settle**: one untimed batch returns the live records to the
//!    original corpus; the engine's groups must then equal the groups its
//!    own bootstrap produced from that corpus (replay ≡ one-shot).

use crate::load::{BatchStream, Churn, Domain, Feed};
use crate::stats::{median, quantile, NsCounts};
use crate::trace::{Counters, Tracer};
use gralmatch_blocking::Blocker;
use gralmatch_core::{
    decode_state, group_metrics, persist, recover_engine, CheckpointPolicy, CompiledScorerProvider,
    EngineStats, GroupSnapshot, MatchEngine, PipelineConfig, ScorerProvider, ShardPlan,
    HEURISTIC_JACCARD,
};
use gralmatch_datagen::{generate, GenerationConfig};
use gralmatch_lm::{HeuristicMatcher, ModelSpec};
use gralmatch_records::{CompanyRecord, GroundTruth, RecordId, SecurityRecord};
use gralmatch_util::{current_rss_bytes, Error, Parallelism, Published, PublishedReader};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups a run times at least; `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;
/// Shards of every engine.
pub const SHARDS: usize = 2;
/// Auto-checkpoint cadence of every durable engine, in batches.
pub const CHECKPOINT_EVERY: usize = 32;
/// Checkpoints timed on each restarted engine.
pub const CHECKPOINTS_PER_RESTART: usize = 8;
/// Restarts a run times at least.
pub const MIN_RECOVERIES: usize = 3;
/// WAL frames behind the snapshot every restart replays.
pub const TAIL_BATCHES: usize = 2;
/// Share of the timed phase spent applying batches.
pub const WRITE_SHARE: f64 = 0.6;
/// Share of the timed phase spent setting up throwaway engines.
/// Restarts and their checkpoints take the rest.
pub const SETUP_SHARE: f64 = 0.1;
/// Repetitions of the traced decode and WAL-read probes.
const PROBES: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Delete-3/re-insert-3 churn on securities, with a concurrent reader.
    Churn,
    /// ≈250-mutation provider batches on companies.
    Feed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Churn, Workload::Feed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn => "churn",
            Workload::Feed => "feed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's sizes.
    pub fn plan(self) -> Plan {
        Plan {
            scale: 0.01,
            min_batches: 100,
        }
    }
}

/// Sizes of a run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Corpus scale (`GenerationConfig::synthetic_scaled`).
    pub scale: f64,
    /// Write batches a run applies at least. The traced counters cover
    /// exactly these batches, so they repeat exactly at one seed.
    pub min_batches: usize,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted: batches, lookups, checkpoints, restarts and
    /// the final group check.
    pub attempted: u64,
    /// Attempted operations that failed or returned a wrong answer.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The settled engine's groups (sorted), for cross-run comparison.
    pub settled_groups: Vec<Vec<RecordId>>,
}

/// Run `workload` at `seed` for about `seconds`, traced or not.
pub fn run(workload: Workload, plan: &Plan, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut config = GenerationConfig::synthetic_scaled(plan.scale);
    config.seed = seed;
    let data = generate(&config).expect("the scaled synthetic configuration is valid");
    let args = RunArgs {
        name: workload.name(),
        plan,
        seconds,
        seed,
        tracer: traced.then(Tracer::default),
    };
    match workload {
        Workload::Churn => {
            let corpus = SecurityRecord::corpus(&data);
            drop(data);
            run_phases(&args, corpus, |records| Box::new(Churn::new(records)))
        }
        Workload::Feed => {
            let corpus = CompanyRecord::corpus(&data);
            drop(data);
            run_phases(&args, corpus, |records| Box::new(Feed::new(records)))
        }
    }
}

struct RunArgs<'p> {
    name: &'static str,
    plan: &'p Plan,
    seconds: f64,
    seed: u64,
    tracer: Option<Tracer>,
}

impl RunArgs<'_> {
    fn strategies<R: Domain>(&self) -> Vec<Box<dyn Blocker<R>>> {
        let strategies = R::strategies();
        match &self.tracer {
            Some(tracer) => strategies.into_iter().map(|b| tracer.blocker(b)).collect(),
            None => strategies,
        }
    }

    fn provider<R: Domain>(&self) -> Box<dyn ScorerProvider<R>> {
        let heuristic = CompiledScorerProvider::new(
            HeuristicMatcher {
                jaccard_threshold: HEURISTIC_JACCARD,
            },
            ModelSpec::DistilBert128All.encoder(),
        );
        match &self.tracer {
            Some(tracer) => Box::new(tracer.provider(heuristic)),
            None => Box::new(heuristic),
        }
    }

    fn counters(&self) -> Counters {
        self.tracer.as_ref().map(Tracer::read).unwrap_or_default()
    }
}

fn config() -> PipelineConfig {
    PipelineConfig::new(25, 5).with_parallelism(Parallelism::Fixed(1))
}

fn policy() -> CheckpointPolicy {
    CheckpointPolicy {
        max_wal_batches: CHECKPOINT_EVERY,
        fsync: false,
        ..CheckpointPolicy::default()
    }
}

fn sorted_groups(groups: Vec<Vec<RecordId>>) -> Vec<Vec<RecordId>> {
    let mut groups: Vec<Vec<RecordId>> = groups
        .into_iter()
        .map(|mut group| {
            group.sort_unstable();
            group
        })
        .collect();
    groups.sort_unstable();
    groups
}

/// Attempt and failure counts.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    fn result<T>(&mut self, result: Result<T, Error>, what: &str) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|error| {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {error}");
            })
            .ok()
    }
}

/// A per-process scratch directory under the benchmark's own directory,
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(label: &str) -> std::io::Result<WorkDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!(
                "{label}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run uses the directory.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Engine-side counts of the traced write scope, all read from the
/// public API or from the files on disk.
#[derive(Debug, Clone, Default)]
struct EngineCounts {
    batches: u64,
    mutations: u64,
    apply_ns: u64,
    components_recleaned: u64,
    changed_nodes: u64,
    edges_cut: u64,
    buckets_rebuilt: u64,
    /// WAL growth over batches that did not checkpoint.
    wal_bytes: u64,
    /// Mutations of those batches.
    wal_mutations: u64,
}

/// The traced write scope: the first `min_batches` batches.
struct WriteScope {
    engine: EngineCounts,
    counters: Counters,
    stats: EngineStats,
}

/// The traced restart scope: the first restart.
struct RestartScope {
    seconds: f64,
    counters: Counters,
    frames_replayed: usize,
    /// Size of the checkpoints the restarted engine wrote.
    snapshot_bytes: u64,
}

#[derive(Default)]
struct Reads {
    latency: NsCounts,
    inconsistent: u64,
    epochs_seen: u64,
}

/// File identity (inode) and length, or zeros when the file is missing.
fn file_id(path: &Path) -> (u64, u64) {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata(path)
        .map(|meta| (meta.ino(), meta.len()))
        .unwrap_or((0, 0))
}

/// The closed-loop reader: consistency-checked `group_of` +
/// `group_members` on the freshest published snapshot until `stop`.
fn read_loop(
    source: Arc<Published<GroupSnapshot>>,
    seed: u64,
    num_ids: usize,
    stop: &AtomicBool,
) -> Reads {
    let mut reader = PublishedReader::new(source);
    let mut reads = Reads::default();
    let mut state = seed | 1;
    let mut last_epoch = reader.current().epoch();
    while !stop.load(Ordering::Acquire) {
        // xorshift64: the id stream repeats for one seed.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let id = RecordId((state % num_ids as u64) as u32);
        let start = Instant::now();
        let snapshot = reader.current();
        let epoch = snapshot.epoch();
        let member = match snapshot.group_of(id) {
            // A deleted record has no group: a consistent answer.
            None => true,
            Some(group) => snapshot
                .group_members(group)
                .is_some_and(|members| members.contains(&id)),
        };
        let ns = start.elapsed().as_nanos();
        reads.latency.record(u64::try_from(ns).unwrap_or(u64::MAX));
        if !member || epoch < last_epoch {
            reads.inconsistent += 1;
        }
        if epoch != last_epoch {
            reads.epochs_seen += 1;
            last_epoch = epoch;
        }
    }
    reads
}

/// What a restart from the crash files must reproduce.
struct Crash {
    groups: Vec<Vec<RecordId>>,
    epoch: u64,
}

/// The restarts of a run: where they read and what they measured.
struct Restarts {
    /// The crash files: a copy of the writer's snapshot and WAL.
    crash_path: PathBuf,
    /// Where each restarted engine moves its durability to checkpoint.
    checkpoint_path: PathBuf,
    recover_times: Vec<f64>,
    checkpoint_times: Vec<f64>,
    scope: Option<RestartScope>,
}

impl Restarts {
    fn new(dir: &Path) -> Restarts {
        Restarts {
            crash_path: dir.join("crash.gmsn"),
            checkpoint_path: dir.join("checkpoint.gmsn"),
            recover_times: Vec::new(),
            checkpoint_times: Vec::new(),
            scope: None,
        }
    }

    /// Copy the writer's snapshot and WAL, the files a crash now would
    /// leave behind, to the crash path.
    fn crash<R: Domain>(
        &self,
        engine: &MatchEngine<'_, R>,
        snapshot_path: &Path,
    ) -> Result<Crash, Error> {
        std::fs::copy(snapshot_path, &self.crash_path)?;
        std::fs::copy(
            persist::wal_path(snapshot_path),
            persist::wal_path(&self.crash_path),
        )?;
        Ok(Crash {
            groups: sorted_groups(engine.groups()),
            epoch: engine.snapshot().epoch(),
        })
    }

    /// Restart from the crash files, check the restarted engine, then
    /// time [`CHECKPOINTS_PER_RESTART`] checkpoints on it. False when an
    /// operation failed.
    fn run_one<R: Domain>(&mut self, args: &RunArgs<'_>, crash: &Crash, tally: &mut Tally) -> bool {
        let (strategies, provider) = (args.strategies::<R>(), args.provider::<R>());
        let before = args.counters();
        let start = Instant::now();
        let recovered = recover_engine(&self.crash_path, strategies, provider, config(), policy());
        let recover_s = start.elapsed().as_secs_f64();
        let Some((mut restarted, report)) = tally.result(recovered, "recover_engine") else {
            return false;
        };
        self.recover_times.push(recover_s);
        tally.check(
            sorted_groups(restarted.groups()) == crash.groups
                && restarted.snapshot().epoch() == crash.epoch,
            "a restart reproduces the pre-crash groups and epoch",
        );
        let traced = (self.scope.is_none() && args.tracer.is_some())
            .then(|| (args.counters().since(&before), report.batches_replayed));
        let moved = restarted.enable_durability(&self.checkpoint_path, policy());
        if tally.result(moved, "enable_durability").is_none() {
            return false;
        }
        let mut snapshot_bytes = 0;
        for _ in 0..CHECKPOINTS_PER_RESTART {
            let start = Instant::now();
            let written = restarted.checkpoint();
            let seconds = start.elapsed().as_secs_f64();
            let Some(info) = tally.result(written, "checkpoint") else {
                return false;
            };
            self.checkpoint_times.push(seconds);
            snapshot_bytes = info.snapshot_bytes;
        }
        if let Some((counters, frames_replayed)) = traced {
            self.scope = Some(RestartScope {
                seconds: recover_s,
                counters,
                frames_replayed,
                snapshot_bytes,
            });
        }
        true
    }
}

/// Bootstrap an engine over `corpus` and make it durable at `path`,
/// timing both into `times`.
fn set_up<R: Domain>(
    args: &RunArgs<'_>,
    corpus: &[R],
    path: &Path,
    times: &mut Vec<f64>,
    tally: &mut Tally,
) -> Option<MatchEngine<'static, R>> {
    let records = corpus.to_vec();
    let (strategies, provider) = (args.strategies(), args.provider());
    let start = Instant::now();
    let booted = MatchEngine::bootstrap(
        ShardPlan::new(SHARDS),
        records,
        strategies,
        provider,
        config(),
    )
    .and_then(|(mut engine, _)| {
        engine.enable_durability(path, policy())?;
        Ok(engine)
    });
    times.push(start.elapsed().as_secs_f64());
    tally.result(booted, "set-up")
}

fn run_phases<R: Domain>(
    args: &RunArgs<'_>,
    corpus: Vec<R>,
    stream_of: impl Fn(Vec<R>) -> Box<dyn BatchStream<R>>,
) -> Outcome {
    let plan = args.plan;
    let work = WorkDir::create(args.name).expect("create the benchmark's scratch directory");
    let snapshot_path = work.0.join("engine.gmsn");
    let wal_path = persist::wal_path(&snapshot_path);
    let mut tally = Tally::default();

    // -- 1. Set-up. -------------------------------------------------------
    let mut setup_times = Vec::new();
    let Some(mut engine) = set_up(args, &corpus, &snapshot_path, &mut setup_times, &mut tally)
    else {
        return failed_outcome(tally);
    };
    let bootstrap_groups = sorted_groups(engine.groups());

    // -- 2. Writes, restarts and set-ups, interleaved, with one reader. -----
    // Whichever of the three is furthest behind its share of the time so
    // far runs next, so each samples the whole run rather than one
    // stretch of it. A restart that falls due checkpoints the writer; the
    // next `TAIL_BATCHES` batches are the WAL tail it replays.
    let mut stream = stream_of(corpus.clone());
    let source = engine.snapshot_source();
    let num_ids = engine.stats().num_ids.max(1);
    let stop = AtomicBool::new(false);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut write_times: Vec<f64> = Vec::new();
    let mut counts = EngineCounts::default();
    let mut write_counters = Counters::default();
    let mut write_scope = None;
    let mut restarts = Restarts::new(&work.0);
    let mut tail: Option<usize> = None;
    let setup_path = work.0.join("setup.gmsn");
    let reads = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(source, args.seed, num_ids, &stop));
        let started = Instant::now();
        let (mut writing, mut restarting, mut setting_up) = (0.0, 0.0, 0.0);
        while write_times.len() < plan.min_batches
            || restarts.recover_times.len() < MIN_RECOVERIES
            || setup_times.len() < MIN_SETUPS
            || started.elapsed() < budget
        {
            let segment = Instant::now();
            let spent = writing + restarting + setting_up;
            let write_lag = WRITE_SHARE * spent - writing;
            let setup_lag = SETUP_SHARE * spent - setting_up;
            let restart_lag = (1.0 - WRITE_SHARE - SETUP_SHARE) * spent - restarting;
            if tail == Some(TAIL_BATCHES) {
                tail = None;
                let crash = restarts.crash(&engine, &snapshot_path);
                let Some(crash) = tally.result(crash, "copy the crash files") else {
                    break;
                };
                if !restarts.run_one::<R>(args, &crash, &mut tally) {
                    break;
                }
                restarting += segment.elapsed().as_secs_f64();
                continue;
            }
            if tail.is_none() && setup_lag > write_lag.max(restart_lag) {
                // The throwaway engine is dropped inside the segment.
                if set_up(args, &corpus, &setup_path, &mut setup_times, &mut tally).is_none() {
                    break;
                }
                setting_up += segment.elapsed().as_secs_f64();
                continue;
            }
            if tail.is_none() && restart_lag > write_lag {
                let checkpointed = engine.checkpoint();
                if tally
                    .result(checkpointed, "checkpoint before a tail")
                    .is_none()
                {
                    break;
                }
                tail = Some(0);
                restarting += segment.elapsed().as_secs_f64();
                continue;
            }
            let batch = stream.next_batch();
            let (snapshot_before, wal_before) = (file_id(&snapshot_path), file_id(&wal_path));
            let before = args.counters();
            let start = Instant::now();
            let applied = engine.apply_batch(&batch);
            let seconds = start.elapsed().as_secs_f64();
            let Some(outcome) = tally.result(applied, "apply_batch") else {
                break;
            };
            write_counters = write_counters.plus(&args.counters().since(&before));
            write_times.push(seconds);
            counts.batches += 1;
            counts.mutations += batch.len() as u64;
            counts.apply_ns += (seconds * 1e9) as u64;
            counts.components_recleaned += outcome.touched_components as u64;
            counts.changed_nodes += outcome.changed_nodes.len() as u64;
            let cut = &outcome.cleanup;
            counts.edges_cut +=
                (cut.pre_cleanup_removed + cut.mincut_removed + cut.betweenness_removed) as u64;
            counts.buckets_rebuilt += outcome.snapshot_buckets_rebuilt as u64;
            // A batch that checkpointed truncated the WAL.
            if file_id(&snapshot_path).0 == snapshot_before.0 {
                counts.wal_bytes += file_id(&wal_path).1.saturating_sub(wal_before.1);
                counts.wal_mutations += batch.len() as u64;
            }
            if let Some(frames) = &mut tail {
                *frames += 1;
            }
            if write_times.len() == plan.min_batches && args.tracer.is_some() {
                write_scope = Some(WriteScope {
                    engine: counts.clone(),
                    counters: write_counters.clone(),
                    stats: engine.stats(),
                });
            }
            writing += segment.elapsed().as_secs_f64();
        }
        stop.store(true, Ordering::Release);
        reader.join().expect("the reader thread does not panic")
    });
    let rss_bytes = current_rss_bytes();
    tally.attempted += reads.latency.total();
    tally.failed += reads.inconsistent;

    // -- 3. Settle and compare with the bootstrap. --------------------------
    let settled = engine.apply_batch(&stream.settle());
    tally.result(settled, "settle batch");
    let settled_groups = sorted_groups(engine.groups());
    tally.check(
        settled_groups == bootstrap_groups,
        "settled groups equal the bootstrap's groups over the same records",
    );
    let group_f1 = group_metrics(&settled_groups, &GroundTruth::from_records(&corpus))
        .pairs
        .f1;
    drop(engine);
    let Restarts {
        crash_path,
        recover_times,
        checkpoint_times,
        scope: restart_scope,
        ..
    } = restarts;

    let metrics = match (write_scope, restart_scope) {
        (Some(write), Some(restart)) => layer_metrics::<R>(
            &write,
            &restart,
            &reads,
            &crash_path,
            &persist::wal_path(&crash_path),
            &write_times,
            &recover_times,
            &mut tally,
        ),
        _ if args.tracer.is_some() => {
            tally.check(false, "the traced scopes were reached");
            Vec::new()
        }
        _ => vec![
            metric("setup_s", median(&setup_times), "s"),
            metric("write_p50_s", quantile(&write_times, 0.5), "s"),
            metric("write_p90_s", quantile(&write_times, 0.9), "s"),
            metric("lookup_p50_ns", reads.latency.quantile(0.5), "ns"),
            metric("lookup_p99_ns", reads.latency.quantile(0.99), "ns"),
            metric("recover_s", median(&recover_times), "s"),
            metric("checkpoint_s", median(&checkpoint_times), "s"),
            metric("group_f1", Some(group_f1), "ratio"),
            metric(
                "rss_mb",
                rss_bytes.map(|bytes| bytes as f64 / (1u64 << 20) as f64),
                "MiB",
            ),
        ],
    };
    for m in &metrics {
        tally.check(m.value.is_finite(), &format!("{} was measured", m.name));
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        settled_groups,
    }
}

fn metric(name: &str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: value.unwrap_or(f64::NAN),
        unit,
    }
}

fn failed_outcome(tally: Tally) -> Outcome {
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed.max(1),
        metrics: Vec::new(),
        settled_groups: Vec::new(),
    }
}

/// The blocking recipes a per-layer report always lists, by
/// `Blocker::name`, so every workload prints the same metric names.
const RECIPES: [&str; 2] = ["token-overlap", "id-overlap"];

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics<R: Domain>(
    write: &WriteScope,
    restart: &RestartScope,
    reads: &Reads,
    snapshot_path: &Path,
    wal_path: &Path,
    write_times: &[f64],
    recover_times: &[f64],
    tally: &mut Tally,
) -> Vec<Metric> {
    let ns = |value: u64| Some(value as f64 / 1e9);
    let count = |value: u64| Some(value as f64);
    let mut out = Vec::new();
    let counters = &write.counters;
    for name in RECIPES {
        let recipe = counters.recipes.get(name).copied().unwrap_or_default();
        out.push(metric(
            &format!("blocking.{name}.calls"),
            count(recipe.calls),
            "count",
        ));
        out.push(metric(
            &format!("blocking.{name}.busy_s"),
            ns(recipe.busy_ns),
            "s",
        ));
        out.push(metric(
            &format!("blocking.{name}.records_in"),
            count(recipe.records_in),
            "count",
        ));
        out.push(metric(
            &format!("blocking.{name}.pairs_out"),
            count(recipe.pairs_out),
            "count",
        ));
    }
    let records_in: u64 = counters.recipes.values().map(|r| r.records_in).sum();
    let pairs_out: u64 = counters.recipes.values().map(|r| r.pairs_out).sum();
    let lm = &counters.lm;
    let engine = &write.engine;
    let blocking_ns = counters.blocking_busy_ns();
    let child_ns = blocking_ns + lm.absorb_ns + lm.score_busy_ns;
    out.extend([
        metric(
            "blocking.records_in_per_mutation",
            Some(ratio(records_in as f64, engine.mutations as f64)),
            "ratio",
        ),
        metric(
            "blocking.new_pair_ratio",
            Some(ratio(lm.pairs_scored as f64, pairs_out as f64)),
            "ratio",
        ),
        metric("lm.prime_s", ns(restart.counters.lm.prime_ns), "s"),
        metric(
            "lm.records_primed",
            count(restart.counters.lm.records_primed),
            "count",
        ),
        metric("lm.absorb_s", ns(lm.absorb_ns), "s"),
        metric("lm.records_compiled", count(lm.records_compiled), "count"),
        metric("lm.pairs_scored", count(lm.pairs_scored), "count"),
        metric("lm.score_busy_s", ns(lm.score_busy_ns), "s"),
        metric(
            "lm.positive_ratio",
            Some(ratio(lm.positives as f64, lm.pairs_scored as f64)),
            "ratio",
        ),
        metric("engine.batches", count(engine.batches), "count"),
        metric("engine.mutations", count(engine.mutations), "count"),
        metric("engine.apply_s", ns(engine.apply_ns), "s"),
        metric(
            "engine.apply_self_s",
            ns(engine.apply_ns.saturating_sub(child_ns)),
            "s",
        ),
        metric(
            "engine.components_recleaned",
            count(engine.components_recleaned),
            "count",
        ),
        metric("engine.changed_nodes", count(engine.changed_nodes), "count"),
        metric("engine.edges_cut", count(engine.edges_cut), "count"),
        metric(
            "engine.buckets_rebuilt",
            count(engine.buckets_rebuilt),
            "count",
        ),
        metric(
            "engine.candidates",
            count(write.stats.num_candidates as u64),
            "count",
        ),
        metric(
            "engine.predicted",
            count(write.stats.num_predicted as u64),
            "count",
        ),
        metric(
            "persist.wal_bytes_per_mutation",
            Some(ratio(engine.wal_bytes as f64, engine.wal_mutations as f64)),
            "B/mutation",
        ),
        metric("persist.snapshot_bytes", count(restart.snapshot_bytes), "B"),
    ]);

    // Decode and WAL-read probes on the very files the restarts read.
    let snapshot = std::fs::read(snapshot_path);
    let snapshot = tally.result(snapshot.map_err(Error::from), "read the snapshot");
    let mut decode_times = Vec::new();
    let mut read_times = Vec::new();
    for _ in 0..PROBES {
        if let Some(bytes) = &snapshot {
            let start = Instant::now();
            let decoded = decode_state::<R>(bytes);
            decode_times.push(start.elapsed().as_secs_f64());
            tally.result(decoded.map(drop), "decode_state");
        }
        let start = Instant::now();
        let replay = persist::read_wal(wal_path);
        read_times.push(start.elapsed().as_secs_f64());
        tally.result(replay.map(drop), "read_wal");
    }
    out.extend([
        metric("persist.decode_s", median(&decode_times), "s"),
        metric("persist.read_wal_s", median(&read_times), "s"),
        metric(
            "persist.frames_replayed",
            count(restart.frames_replayed as u64),
            "count",
        ),
        metric("restart.recover_s", Some(restart.seconds), "s"),
        metric(
            "restart.blocking_busy_s",
            ns(restart.counters.blocking_busy_ns()),
            "s",
        ),
        metric("lookup.count", count(reads.latency.total()), "count"),
        metric("lookup.epochs_seen", count(reads.epochs_seen), "count"),
        metric("lookup.inconsistent", count(reads.inconsistent), "count"),
        metric("traced.write_p50_s", quantile(write_times, 0.5), "s"),
        metric("traced.recover_s", median(recover_times), "s"),
    ]);
    out
}
