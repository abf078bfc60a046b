//! Graph substrate for GraLMatch.
//!
//! The paper's Graph Cleanup (Algorithm 1) repeatedly takes the largest
//! connected component of the pairwise-prediction graph and removes either a
//! *minimum edge cut* or the *maximum edge-betweenness-centrality* edge until
//! all components fall below size thresholds. This crate provides those
//! primitives from scratch:
//!
//! * [`Graph`] — an undirected simple graph with O(1) edge insert/remove,
//! * [`UnionFind`] — incremental connectivity for transitive-closure grouping,
//! * [`components`] — connected components (BFS) and induced subgraphs,
//! * [`mincut`] — global minimum edge cut via Stoer–Wagner,
//! * [`maxflow`] — Dinic max-flow / min s–t cut (cross-check + fallback),
//! * [`betweenness`] — Brandes' edge betweenness centrality,
//! * [`bridges`] — Tarjan bridge detection (cheap pre-filter / diagnostics).
//!
//! All algorithms operate on *induced subgraphs* given as a node list, since
//! the cleanup only ever looks at one component at a time.

pub mod betweenness;
pub mod bridges;
pub mod components;
pub mod graph;
pub mod maxflow;
pub mod mincut;
pub mod unionfind;

pub use betweenness::edge_betweenness;
pub use bridges::{cut_structure, find_bridges, most_balanced_bridge, BridgeSplit, CutStructure};
pub use components::{component_of, connected_components, largest_component, Subgraph};
pub use graph::{Edge, Graph, NodeId};
pub use maxflow::{min_st_cut, Dinic};
pub use mincut::{global_min_cut, MinCut};
pub use unionfind::UnionFind;
