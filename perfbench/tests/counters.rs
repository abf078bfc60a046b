//! Exact-counter self-test: at one seed, two traced runs report identical
//! work counters, tracing leaves the engine's output unchanged, and a
//! second seed gives a different corpus. Runs on a small corpus with the
//! minimum number of operations per phase.

use gralmatch_perfbench::run::{run, Outcome, Plan, Workload};

fn small_plan() -> Plan {
    Plan {
        scale: 0.002,
        min_batches: 6,
    }
}

/// Run with a near-zero time budget, so every phase stops at its minimum
/// count and the run does the same work every time.
fn run_small(workload: Workload, seed: u64, traced: bool) -> Outcome {
    let outcome = run(workload, &small_plan(), seed, 0.001, traced);
    assert_eq!(outcome.failed, 0, "{workload:?} seed {seed} had failures");
    outcome
}

/// The per-layer metrics that count work: everything except timings and
/// the reader's tallies, which depend on how the two threads interleave.
fn work_counters(outcome: &Outcome) -> Vec<(String, f64)> {
    outcome
        .metrics
        .iter()
        .filter(|m| m.unit != "s" && !m.name.starts_with("lookup."))
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

#[test]
fn counters_repeat_exactly_at_one_seed() {
    for workload in Workload::ALL {
        let first = run_small(workload, 7, true);
        let second = run_small(workload, 7, true);
        let counters = work_counters(&first);
        assert!(
            counters
                .iter()
                .any(|(name, value)| name == "lm.pairs_scored" && *value > 0.0),
            "{workload:?}: no pairs scored"
        );
        assert_eq!(counters, work_counters(&second), "{workload:?}");
        assert_eq!(first.settled_groups, second.settled_groups, "{workload:?}");
    }
}

#[test]
fn tracing_changes_no_output() {
    for workload in Workload::ALL {
        let traced = run_small(workload, 11, true);
        let untraced = run_small(workload, 11, false);
        assert_eq!(
            traced.settled_groups, untraced.settled_groups,
            "{workload:?}"
        );
        let end_to_end: Vec<&str> = untraced.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            end_to_end,
            [
                "setup_s",
                "write_p50_s",
                "write_p90_s",
                "lookup_p50_ns",
                "lookup_p99_ns",
                "recover_s",
                "checkpoint_s",
                "group_f1",
                "rss_mb"
            ]
        );
        assert!(
            untraced.metrics.iter().all(|m| m.value > 0.0),
            "{workload:?}"
        );
    }
}

#[test]
fn another_seed_gives_another_corpus() {
    let first = run_small(Workload::Feed, 7, true);
    let second = run_small(Workload::Feed, 8, true);
    assert_ne!(first.settled_groups, second.settled_groups);
    assert_ne!(work_counters(&first), work_counters(&second));
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside this package");
    let json = gralmatch_util::Json::parse(&text).expect("BENCHMARK.json parses");
    let gralmatch_util::Json::Arr(metrics) = json.field(key).expect("metric list") else {
        panic!("{key} is not a list");
    };
    metrics
        .iter()
        .map(|m| {
            let text = |field: &str| m.field(field).ok().and_then(|v| v.as_str()).expect(field);
            (text("name").to_string(), text("unit").to_string())
        })
        .collect()
}

#[test]
fn runs_print_exactly_the_listed_metrics() {
    let printed = |outcome: &Outcome| -> Vec<(String, String)> {
        outcome
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    };
    for workload in Workload::ALL {
        assert_eq!(
            printed(&run_small(workload, 5, false)),
            listed("end_to_end")
        );
        assert_eq!(printed(&run_small(workload, 5, true)), listed("per_layer"));
    }
}
