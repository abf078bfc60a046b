//! End-to-end and per-layer benchmark of the long-lived match engine:
//! writes, lookups and restarts through the engine's public API. See
//! `README.md` next to this package for the metrics and workloads.

mod load;
pub mod run;
mod stats;
mod trace;
