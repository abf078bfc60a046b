//! Hub-entity cleanup benchmark: the worst case the cleanup rewrite is
//! for.
//!
//! Builds the [`hub_graph`] workload (per-hub mega-components of cliques
//! welded together by bridge edges to one popular record, plus churn
//! batches that keep re-adding the hub bridges) and runs the same
//! bootstrap-then-churn protocol through both cleanup implementations:
//!
//! * **new** — [`graph_cleanup_with_pool`]: bridge-first splitting, one
//!   mutable scratch graph per component lineage, per-component fan-out;
//! * **reference** — [`reference_graph_cleanup`]: the seed algorithm that
//!   re-induces the component and runs Stoer–Wagner after every removal.
//!
//! `--steady` adds a third protocol: a long steady-state schedule
//! ([`hub_steady_schedule`]) that re-adds every hub bridge each batch and
//! retracts/restores interior clique edges (delete-created bridges), each
//! batch re-cleaned by the sequential [`graph_cleanup`]. Nothing carries
//! over between batches: every dirty component is scanned once per
//! re-clean.
//!
//! The report (default `HUBBENCH.json`, or merged into a repro report
//! with `--merge-into`) carries a gated `cleanup` object
//! (`cleanup:hub_bootstrap_s`, `cleanup:hub_churn_s`, and with `--steady`
//! `cleanup:hub_steady_s` — seconds, bigger = worse) and an ungated
//! `cleanup_info` object with the speedup, both paths' timings, and
//! workload shape. `--mode reference` swaps the reference timings into
//! the gated lines (and runs the steady schedule through the reference
//! too) — CI uses it to verify `perfcmp` fails on an injected fallback.
//!
//! Exits nonzero when the new path is less than `--min-speedup` (default
//! 4) times faster than the reference, or when any path leaves an
//! oversized component behind. The report is written before the checks
//! so baseline regeneration works everywhere.

use gralmatch_bench::cli::BenchCli;
use gralmatch_bench::harness::Scale;
use gralmatch_core::{
    graph_cleanup, graph_cleanup_with_pool, reference_graph_cleanup, CleanupConfig, CleanupReport,
};
use gralmatch_datagen::{hub_graph, hub_steady_schedule, HubConfig, HubGraph, SteadyBatch};
use gralmatch_graph::{largest_component, Graph};
use gralmatch_util::{Json, Parallelism, Stopwatch, ToJson, WorkerPool};

/// One implementation's run over the bootstrap + churn protocol.
struct ProtocolRun {
    bootstrap_s: f64,
    churn_s: f64,
    report: CleanupReport,
    largest_after: usize,
}

impl ProtocolRun {
    fn total(&self) -> f64 {
        self.bootstrap_s + self.churn_s
    }
}

/// Run `reps` repetitions of bootstrap-clean + churn-reclean, summing
/// wall-clock (totals, not per-rep means, so the gated numbers aggregate
/// like every other stage line).
fn run_protocol(
    hub: &HubGraph,
    reps: usize,
    mut clean: impl FnMut(&mut Graph) -> CleanupReport,
) -> ProtocolRun {
    let mut bootstrap_s = 0.0;
    let mut churn_s = 0.0;
    let mut report = CleanupReport::default();
    let mut largest_after = 0;
    for _ in 0..reps {
        let mut graph = Graph::with_nodes(hub.num_nodes);
        for &(a, b) in &hub.bootstrap_edges {
            graph.add_edge(a, b);
        }
        let watch = Stopwatch::start();
        report.merge(&clean(&mut graph));
        bootstrap_s += watch.elapsed_secs();
        for batch in &hub.churn_batches {
            for &(a, b) in batch {
                graph.add_edge(a, b);
            }
            let watch = Stopwatch::start();
            report.merge(&clean(&mut graph));
            churn_s += watch.elapsed_secs();
        }
        largest_after = largest_component(&graph).map_or(0, |c| c.len());
    }
    ProtocolRun {
        bootstrap_s,
        churn_s,
        report,
        largest_after,
    }
}

/// One implementation's run over the steady-state churn protocol.
struct SteadyRun {
    steady_s: f64,
    largest_after: usize,
}

/// Run `reps` repetitions of the steady-state protocol: bootstrap-clean
/// once (untimed), then per steady batch re-add every hub bridge, apply
/// the batch's interior restores/retractions, and re-clean (timed).
fn run_steady(
    hub: &HubGraph,
    hub_bridges: &[(u32, u32)],
    schedule: &[SteadyBatch],
    reps: usize,
    mut clean: impl FnMut(&mut Graph) -> CleanupReport,
) -> SteadyRun {
    let mut steady_s = 0.0;
    let mut largest_after = 0;
    for _ in 0..reps {
        let mut graph = Graph::with_nodes(hub.num_nodes);
        for &(a, b) in &hub.bootstrap_edges {
            graph.add_edge(a, b);
        }
        clean(&mut graph);
        for batch in schedule {
            for &(a, b) in hub_bridges.iter().chain(&batch.add) {
                graph.add_edge(a, b);
            }
            for &(a, b) in &batch.remove {
                graph.remove_edge(a, b);
            }
            let watch = Stopwatch::start();
            clean(&mut graph);
            steady_s += watch.elapsed_secs();
        }
        largest_after = largest_component(&graph).map_or(0, |c| c.len());
    }
    SteadyRun {
        steady_s,
        largest_after,
    }
}

fn main() {
    let cli = BenchCli::parse_with_switches(
        &[
            "merge-into",
            "mode",
            "reps",
            "min-speedup",
            "steady-batches",
        ],
        &["steady"],
    );
    let out_path = cli.out_path("HUBBENCH.json");
    let scale = Scale::from_env();
    let steady = cli.switch("steady");
    let mode = cli.value("mode").unwrap_or("new");
    assert!(
        mode == "new" || mode == "reference",
        "--mode must be `new` or `reference`, got {mode:?}"
    );
    let reps = cli.usize_value("reps").unwrap_or(3).max(1);
    let min_speedup: f64 = cli
        .value("min-speedup")
        .map(|v| v.parse().expect("--min-speedup needs a number"))
        .unwrap_or(4.0);

    let hub_config = HubConfig::scaled(scale.0);
    let hub = hub_graph(&hub_config);
    // γ just above the clique size, μ at it: every hub bridge must go,
    // every clique must survive — the thresholds the workload is built for.
    let cleanup_config = CleanupConfig::new(hub_config.group_size + 1, hub_config.group_size);
    println!(
        "hubbench: {} hubs × {} groups of {} ({} nodes, mega-component {}), {} churn batches, \
         {reps} reps",
        hub_config.hubs,
        hub_config.groups_per_hub,
        hub_config.group_size,
        hub.num_nodes,
        hub.mega_component_size,
        hub.churn_batches.len()
    );

    let pool: WorkerPool = Parallelism::Auto.pool_for(hub.bootstrap_edges.len());
    let new_run = run_protocol(&hub, reps, |graph| {
        graph_cleanup_with_pool(graph, &cleanup_config, &pool)
    });
    let reference_run = run_protocol(&hub, reps, |graph| {
        reference_graph_cleanup(graph, &cleanup_config)
    });
    let speedup = if new_run.total() > 0.0 {
        reference_run.total() / new_run.total()
    } else {
        f64::INFINITY
    };
    println!(
        "hubbench: new {:.4}s (bootstrap {:.4}s + churn {:.4}s) vs reference {:.4}s → {speedup:.1}x",
        new_run.total(),
        new_run.bootstrap_s,
        new_run.churn_s,
        reference_run.total()
    );

    // Steady-state protocol: a long schedule that keeps re-adding the same
    // hub bridges and retracting/restoring interior clique edges. Only the
    // gated path runs it: the reference takes minutes at larger scales.
    let steady_run = steady.then(|| {
        let batches = cli
            .usize_value("steady-batches")
            .unwrap_or(hub.churn_batches.len() * 4)
            .max(1);
        let schedule = hub_steady_schedule(&hub_config, batches);
        let hub_bridges = hub_config.hub_bridges();
        let run = if mode == "reference" {
            run_steady(&hub, &hub_bridges, &schedule, reps, |graph| {
                reference_graph_cleanup(graph, &cleanup_config)
            })
        } else {
            run_steady(&hub, &hub_bridges, &schedule, reps, |graph| {
                graph_cleanup(graph, &cleanup_config)
            })
        };
        println!(
            "hubbench: steady ({batches} batches, {mode}) {:.4}s",
            run.steady_s
        );
        (run, batches)
    });

    // Gated section: seconds, bigger = worse. Default is the new path;
    // `--mode reference` injects the sequential full-recompute numbers, so
    // CI can prove the gate catches that fallback.
    let gated = match mode {
        "reference" => &reference_run,
        _ => &new_run,
    };
    let mut cleanup_fields = vec![
        ("hub_bootstrap_s", gated.bootstrap_s.to_json()),
        ("hub_churn_s", gated.churn_s.to_json()),
    ];
    if let Some((run, _)) = &steady_run {
        cleanup_fields.push(("hub_steady_s", run.steady_s.to_json()));
    }
    let cleanup = Json::obj(cleanup_fields);
    let mut cleanup_info = Json::obj([
        ("mode", Json::Str(mode.to_string())),
        ("speedup_vs_reference", speedup.to_json()),
        ("new_bootstrap_s", new_run.bootstrap_s.to_json()),
        ("new_churn_s", new_run.churn_s.to_json()),
        ("reference_bootstrap_s", reference_run.bootstrap_s.to_json()),
        ("reference_churn_s", reference_run.churn_s.to_json()),
        ("reps", (reps as f64).to_json()),
        ("nodes", (hub.num_nodes as f64).to_json()),
        (
            "mega_component_size",
            (hub.mega_component_size as f64).to_json(),
        ),
        (
            "bootstrap_edges",
            (hub.bootstrap_edges.len() as f64).to_json(),
        ),
        ("churn_batches", (hub.churn_batches.len() as f64).to_json()),
        (
            "new_mincut_removed",
            (new_run.report.mincut_removed as f64).to_json(),
        ),
        (
            "new_betweenness_removed",
            (new_run.report.betweenness_removed as f64).to_json(),
        ),
    ]);
    if let (Some((_, batches)), Json::Obj(fields)) = (&steady_run, &mut cleanup_info) {
        fields.push(("steady_batches".to_string(), (*batches as f64).to_json()));
    }
    write_report(&out_path, cli.value("merge-into"), cleanup, cleanup_info);

    // Correctness backstop: every path must leave every component ≤ μ.
    let mut runs = vec![
        ("new", new_run.largest_after),
        ("reference", reference_run.largest_after),
    ];
    if let Some((run, _)) = &steady_run {
        runs.push(("steady", run.largest_after));
    }
    for (name, largest_after) in runs {
        if largest_after > hub_config.group_size {
            eprintln!(
                "hubbench: FAILED — {name} cleanup left a component of {largest_after} (> μ = {})",
                hub_config.group_size
            );
            std::process::exit(1);
        }
    }
    if speedup < min_speedup {
        eprintln!(
            "hubbench: FAILED — new cleanup only {speedup:.2}x the sequential full-recompute \
             reference (expected ≥ {min_speedup}x)"
        );
        std::process::exit(1);
    }
    println!("hubbench ok: {speedup:.1}x over reference → {out_path}");
}

/// Write the standalone report, and optionally merge the two cleanup
/// sections into an existing repro report (replacing prior ones).
fn write_report(out_path: &str, merge_into: Option<&str>, cleanup: Json, cleanup_info: Json) {
    let report = Json::obj([
        ("cleanup", cleanup.clone()),
        ("cleanup_info", cleanup_info.clone()),
    ]);
    std::fs::write(out_path, report.to_pretty_string()).expect("write hubbench report");
    let Some(path) = merge_into else { return };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let mut target = Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {}", e.message));
    let Json::Obj(fields) = &mut target else {
        panic!("{path} is not a JSON object");
    };
    fields.retain(|(key, _)| key != "cleanup" && key != "cleanup_info");
    fields.push(("cleanup".to_string(), cleanup));
    fields.push(("cleanup_info".to_string(), cleanup_info));
    std::fs::write(path, target.to_pretty_string()).expect("write merged report");
    eprintln!("hubbench: merged cleanup sections into {path}");
}
