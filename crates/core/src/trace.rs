//! Unified per-stage diagnostics for pipeline runs.
//!
//! Every stage of an engine batch records wall-clock seconds and item
//! counts into a [`PipelineTrace`] — a uniform view over the whole
//! Figure 1 pipeline. The Table 4 binaries read the inference stage's
//! timing from here; ops dashboards get blocking and merge for free.

use std::fmt;

/// Canonical stage names of an engine batch.
pub mod stage_names {
    /// Candidate generation.
    pub const BLOCKING: &str = "blocking";
    /// Pairwise matching over blocked candidates.
    pub const INFERENCE: &str = "inference";
    /// Dirty-component merge: component union, pre-cleanup and
    /// Algorithm 1 over the rebuilt components.
    pub const MERGE: &str = "merge";
}

/// Per-phase wall-clock split of the merge stage's cleanup: the pre-cleanup
/// pass, the min-cut phase, and the betweenness phase of Algorithm 1.
///
/// Min-cut/betweenness seconds are summed across components, so under a
/// parallel pool they can exceed the stage wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CleanupPhases {
    /// Seconds removing token-overlap edges from oversized components.
    pub pre_cleanup_seconds: f64,
    /// Seconds in the min-cut phase (bridge-first + Stoer–Wagner).
    pub mincut_seconds: f64,
    /// Seconds in the betweenness-removal phase.
    pub betweenness_seconds: f64,
}

/// Diagnostics of one executed stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTrace {
    /// Stage name (see [`stage_names`] for the standard pipeline).
    pub stage: &'static str,
    /// Wall-clock seconds spent in the stage.
    pub seconds: f64,
    /// Items entering the stage (records, candidate pairs, edges…).
    pub items_in: usize,
    /// Items leaving the stage.
    pub items_out: usize,
    /// Heap bytes of the scorer's compiled featurization arena (symbol
    /// arena + per-symbol feature tables + interner), reported by
    /// inference stages driven by a compiled scorer — the memory side of
    /// the compile-once/score-many tradeoff, next to the wall-clock.
    pub arena_bytes: Option<usize>,
    /// Seconds of the stage's core work only, when the stage distinguishes
    /// it from setup/evaluation bookkeeping (e.g. pair scoring without the
    /// candidate sort and metrics pass). `seconds` is always the full
    /// stage wall-clock.
    pub core_seconds: Option<f64>,
    /// Per-phase cleanup timing split, reported by the merge stage.
    pub phases: Option<CleanupPhases>,
}

impl StageTrace {
    /// Input items processed per second (0 for an instantaneous stage).
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.items_in as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Ordered stage diagnostics of one pipeline run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineTrace {
    /// One entry per executed stage, in execution order.
    pub stages: Vec<StageTrace>,
}

impl PipelineTrace {
    /// Record a finished stage.
    pub fn push(&mut self, stage: StageTrace) {
        self.stages.push(stage);
    }

    /// Total wall-clock seconds across all stages.
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.seconds).sum()
    }

    /// The trace of a stage by name (first match).
    pub fn stage(&self, name: &str) -> Option<&StageTrace> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Seconds spent in a stage (0.0 when the stage did not run).
    pub fn seconds_for(&self, name: &str) -> f64 {
        self.stage(name).map_or(0.0, |s| s.seconds)
    }

    /// Seconds of the pairwise-matching stage (Table 4's time column).
    ///
    /// Uses the stage's core-work timing (scoring only) when available, so
    /// the number stays comparable to the pre-engine `inference_seconds`
    /// field, which excluded candidate sorting and metrics evaluation.
    pub fn inference_seconds(&self) -> f64 {
        self.stage(stage_names::INFERENCE)
            .map_or(0.0, |s| s.core_seconds.unwrap_or(s.seconds))
    }
}

impl fmt::Display for PipelineTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>10} {:>12} {:>12}",
            "stage", "seconds", "items in", "items out"
        )?;
        for stage in &self.stages {
            writeln!(
                f,
                "{:<12} {:>10.3} {:>12} {:>12}",
                stage.stage, stage.seconds, stage.items_in, stage.items_out
            )?;
        }
        write!(f, "total        {:>10.3}", self.total_seconds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineTrace {
        let mut trace = PipelineTrace::default();
        trace.push(StageTrace {
            stage: stage_names::BLOCKING,
            seconds: 0.5,
            items_in: 100,
            items_out: 400,
            arena_bytes: None,
            core_seconds: None,
            phases: None,
        });
        trace.push(StageTrace {
            stage: stage_names::INFERENCE,
            seconds: 2.0,
            items_in: 400,
            items_out: 120,
            arena_bytes: Some(1 << 16),
            core_seconds: Some(1.5),
            phases: Some(CleanupPhases {
                pre_cleanup_seconds: 0.1,
                mincut_seconds: 0.3,
                betweenness_seconds: 0.2,
            }),
        });
        trace
    }

    #[test]
    fn totals_and_lookup() {
        let trace = sample();
        assert!((trace.total_seconds() - 2.5).abs() < 1e-12);
        assert_eq!(trace.stage(stage_names::BLOCKING).unwrap().items_out, 400);
        assert_eq!(trace.seconds_for("missing"), 0.0);
        // inference_seconds prefers the core-work timing when present.
        assert!((trace.inference_seconds() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn throughput_is_items_in_per_second() {
        let trace = sample();
        let inference = trace.stage(stage_names::INFERENCE).unwrap();
        assert!((inference.throughput() - 200.0).abs() < 1e-9);
        let instant = StageTrace {
            stage: "x",
            seconds: 0.0,
            items_in: 10,
            items_out: 10,
            arena_bytes: None,
            core_seconds: None,
            phases: None,
        };
        assert_eq!(instant.throughput(), 0.0);
    }

    #[test]
    fn display_renders_all_stages() {
        let text = sample().to_string();
        assert!(text.contains("blocking"));
        assert!(text.contains("inference"));
        assert!(text.contains("total"));
    }
}
