//! GraLMatch Graph Cleanup — Algorithm 1 of the paper, plus the
//! Pre Graph Cleanup of Section 4.2.1.
//!
//! ```text
//! Input: matches graph G = (V, E), size thresholds γ and μ
//! 1: C = connected components of G
//! 2: c* ← largest component
//! 3: while |c*| > γ:
//! 4:     E_mincut ← MinEdgeCut(c*)
//! 5:     G ← (V, E \ E_mincut)
//! 6:     c* ← largest component
//! 7: while |c*| > μ:
//! 8:     e_maxBC ← argmax BetweennessCentrality(e), e ∈ c*
//! 9:     G ← (V, E \ e_maxBC)
//! 10:    c* ← largest component
//! 11: Output: connected components of G
//! ```
//!
//! μ is set to the number of data sources ("each group is expected to have
//! at most one record per data source"); γ controls the crossover from the
//! cheaper min-cut phase to the more conservative betweenness phase. The
//! sensitivity variants of Table 4 — MEC-only (γ = μ), BC-only (γ = ∞), ½γ —
//! are expressed through [`CleanupConfig::variant`].
//!
//! ## Scaling
//!
//! Connected components are independent under edge *removal*, so the
//! cleanup decomposes perfectly: [`graph_cleanup_with_pool`] fans dirty
//! components out across a [`WorkerPool`] and applies each component's
//! removed edges back into the global graph in a deterministic order
//! (components sorted by minimum node id, removals in per-component
//! discovery order). Within a component, the per-component worker keeps one
//! mutable scratch graph for the whole lineage of splits — removals mutate
//! it in place and the split sides are tracked directly from the cut, so
//! nothing is re-induced from the global graph after the first copy.
//! Oversized regions are first split at their most balanced bridge (a
//! weight-1 min cut): the component's bridges and 2-edge-connected blocks
//! come from one [`cut_structure`] scan, and every bridge round is answered
//! from that block tree. Stoer–Wagner / max-flow [`global_min_cut`] runs
//! only on 2-edge-connected regions. Nothing persists between calls: a
//! dirty component is scanned once per cleanup (`docs/CLEANUP.md`). The
//! seed implementation survives as
//! [`reference_graph_cleanup`](crate::reference::reference_graph_cleanup) for
//! benchmarking and fallback-injection tests.

use gralmatch_graph::{
    betweenness::max_betweenness_edge, component_of, connected_components, cut_structure,
    global_min_cut, most_balanced_bridge, Edge, Graph, Subgraph,
};
use gralmatch_util::{Stopwatch, WorkerPool};

/// Thresholds for Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleanupConfig {
    /// Components above γ are split with minimum edge cuts.
    pub gamma: usize,
    /// Components above μ (but ≤ γ) are split by removing max-betweenness
    /// edges; μ is set to the number of data sources.
    pub mu: usize,
    /// Pre-cleanup: inside components larger than this, drop positively
    /// predicted token-overlap edges (None disables; companies use 50).
    pub pre_cleanup_threshold: Option<usize>,
}

impl CleanupConfig {
    /// Table 2 thresholds for the given dataset shape.
    pub fn new(gamma: usize, mu: usize) -> Self {
        CleanupConfig {
            gamma,
            mu,
            pre_cleanup_threshold: None,
        }
    }

    /// Enable pre-cleanup at the paper's 50-record threshold.
    pub fn with_pre_cleanup(mut self, threshold: usize) -> Self {
        self.pre_cleanup_threshold = Some(threshold);
        self
    }

    /// Apply a sensitivity variant (Section 5.2.1).
    pub fn variant(mut self, variant: CleanupVariant) -> Self {
        match variant {
            CleanupVariant::Full => {}
            CleanupVariant::MinCutOnly => self.gamma = self.mu,
            CleanupVariant::BetweennessOnly => self.gamma = usize::MAX,
            CleanupVariant::HalfGamma => self.gamma = (self.gamma / 2).max(self.mu),
        }
        self
    }
}

/// The Table 4 sensitivity variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleanupVariant {
    /// Algorithm 1 as published.
    Full,
    /// γ = μ: only the Minimum Edge Cut phase runs (suffix “-MEC”).
    MinCutOnly,
    /// γ = ∞: only the Betweenness Centrality phase runs (suffix “-BC”).
    BetweennessOnly,
    /// γ halved (the “(½γ)” row).
    HalfGamma,
}

/// What the cleanup did (diagnostics + the runtime ablations).
#[derive(Debug, Clone, Default)]
pub struct CleanupReport {
    /// Edges removed by the pre-cleanup.
    pub pre_cleanup_removed: usize,
    /// Edges removed by min cuts (phase 1).
    pub mincut_removed: usize,
    /// Edges removed by betweenness (phase 2).
    pub betweenness_removed: usize,
    /// Min-cut invocations (bridge or Stoer–Wagner).
    pub mincut_rounds: usize,
    /// Betweenness invocations.
    pub betweenness_rounds: usize,
    /// Wall-clock seconds of the whole cleanup (pre-cleanup + both phases).
    pub seconds: f64,
    /// Wall-clock seconds spent in pre-cleanup.
    pub pre_cleanup_seconds: f64,
    /// Wall-clock seconds spent in the min-cut phase (summed across
    /// components, so under a parallel pool this can exceed `seconds`).
    pub mincut_seconds: f64,
    /// Wall-clock seconds spent in the betweenness phase (summed across
    /// components).
    pub betweenness_seconds: f64,
}

impl CleanupReport {
    /// Fold another report into this one: counters and per-phase seconds
    /// all add. Used to combine per-component outcomes and to accumulate
    /// per-shard / per-batch reports into run totals.
    pub fn merge(&mut self, other: &CleanupReport) {
        self.pre_cleanup_removed += other.pre_cleanup_removed;
        self.mincut_removed += other.mincut_removed;
        self.betweenness_removed += other.betweenness_removed;
        self.mincut_rounds += other.mincut_rounds;
        self.betweenness_rounds += other.betweenness_rounds;
        self.seconds += other.seconds;
        self.pre_cleanup_seconds += other.pre_cleanup_seconds;
        self.mincut_seconds += other.mincut_seconds;
        self.betweenness_seconds += other.betweenness_seconds;
    }

    /// The per-phase timing split, in the shape trace consumers expect.
    pub fn phases(&self) -> crate::trace::CleanupPhases {
        crate::trace::CleanupPhases {
            pre_cleanup_seconds: self.pre_cleanup_seconds,
            mincut_seconds: self.mincut_seconds,
            betweenness_seconds: self.betweenness_seconds,
        }
    }
}

/// Remove token-overlap-sourced edges inside oversized components
/// (Section 4.2.1). `is_removable(a, b)` decides whether the edge `(a, b)`
/// (canonical `a < b`, global record ids) came from the Token Overlap
/// blocking (and not from an identifier blocking).
///
/// Walks the adjacency of each oversized component directly — no induced
/// subgraph, no per-edge pair construction — so the pass is O(component
/// edges) with a single batch removal at the end.
pub fn pre_cleanup(
    graph: &mut Graph,
    threshold: usize,
    is_removable: impl Fn(u32, u32) -> bool,
) -> usize {
    let components = connected_components(graph);
    let mut to_remove: Vec<Edge> = Vec::new();
    for component in components {
        if component.len() <= threshold {
            continue;
        }
        for &a in &component {
            for b in graph.neighbors(a) {
                if a < b && is_removable(a, b) {
                    to_remove.push(Edge::new(a, b));
                }
            }
        }
    }
    graph.remove_edges(&to_remove)
}

/// Everything one component's cleanup decided: the global edges it removed
/// (in removal order) and its share of the report.
struct ComponentOutcome {
    removed: Vec<Edge>,
    report: CleanupReport,
}

/// Region ids still to the left of `side` after splitting: `region` minus
/// `side`, both sorted — one merge walk.
fn complement_of(region: &[u32], side: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(region.len() - side.len());
    let mut side_iter = side.iter().peekable();
    for &node in region {
        if side_iter.peek() == Some(&&node) {
            side_iter.next();
        } else {
            out.push(node);
        }
    }
    out
}

/// A bridge carried through phase 1: `(component-local edge, block of .0,
/// block of .1)`.
type BlockBridge = ((u32, u32), u32, u32);

/// `parent_bridge` markers: block not reached yet / block is the root.
const UNVISITED: u32 = u32::MAX;
const ROOT: u32 = u32::MAX - 1;

/// One phase-1 round answered from the block tree.
struct BridgeRound {
    /// The most balanced bridge (component-local, canonical).
    edge: (u32, u32),
    /// Region nodes on the far side of `edge` from the region minimum.
    side: Vec<u32>,
    /// The region's other bridges, split by the side they fall on.
    side_bridges: Vec<BlockBridge>,
    other_bridges: Vec<BlockBridge>,
}

/// The 2-edge-connected block labels of one component, plus per-block
/// buffers reused across rounds (all-zero / empty / unvisited between
/// rounds).
///
/// Cutting a bridge removes one edge of the block tree and changes nothing
/// else, so the two sides inherit their blocks and bridges verbatim: one
/// [`cut_structure`] scan answers every bridge round that follows it. Only
/// a Stoer–Wagner cut, which can rip through block interiors, leaves
/// regions whose labels must be scanned again.
struct BlockTree {
    block_of: Vec<u32>,
    /// Region nodes per block during a round, then subtree weights.
    weight: Vec<u32>,
    /// `(other block, bridge index)` per block.
    adj: Vec<Vec<(u32, u32)>>,
    parent_bridge: Vec<u32>,
    on_side: Vec<bool>,
}

impl BlockTree {
    fn new(num_nodes: usize) -> Self {
        BlockTree {
            block_of: vec![u32::MAX; num_nodes],
            weight: Vec::new(),
            adj: Vec::new(),
            parent_bridge: Vec::new(),
            on_side: Vec::new(),
        }
    }

    /// Label the nodes of `rsub` (local node `i` is component node
    /// `local_of(i)`, monotone) with fresh block ids from one
    /// [`cut_structure`] scan; returns the region's bridges.
    fn scan(&mut self, rsub: &Subgraph, local_of: impl Fn(u32) -> u32) -> Vec<BlockBridge> {
        let structure = cut_structure(rsub);
        let base = self.weight.len() as u32;
        for (i, &block) in structure.block_of.iter().enumerate() {
            self.block_of[local_of(i as u32) as usize] = base + block;
        }
        let num_blocks = self.weight.len() + structure.num_blocks as usize;
        self.weight.resize(num_blocks, 0);
        self.adj.resize_with(num_blocks, Vec::new);
        self.parent_bridge.resize(num_blocks, UNVISITED);
        self.on_side.resize(num_blocks, false);
        let block = |node: u32| base + structure.block_of[node as usize];
        structure
            .bridges
            .iter()
            .map(|&(a, b)| ((local_of(a), local_of(b)), block(a), block(b)))
            .collect()
    }

    /// [`most_balanced_bridge`] of the connected `region` (sorted), from
    /// its carried `bridges` (non-empty): O(region) bookkeeping, no graph
    /// traversal.
    fn split(&mut self, region: &[u32], bridges: Vec<BlockBridge>) -> BridgeRound {
        let mut touched: Vec<u32> = Vec::new();
        for &node in region {
            let block = self.block_of[node as usize];
            if self.weight[block as usize] == 0 {
                touched.push(block);
            }
            self.weight[block as usize] += 1;
        }
        for (i, &(_, x, y)) in bridges.iter().enumerate() {
            self.adj[x as usize].push((y, i as u32));
            self.adj[y as usize].push((x, i as u32));
        }
        // Root the tree at the region minimum's block, where the Tarjan
        // scan roots its DFS, and fold subtree weights children-first.
        let root = self.block_of[region[0] as usize];
        let mut order: Vec<u32> = Vec::with_capacity(touched.len());
        let mut child_block: Vec<u32> = vec![0; bridges.len()];
        self.parent_bridge[root as usize] = ROOT;
        let mut stack = vec![root];
        while let Some(block) = stack.pop() {
            order.push(block);
            for &(next, bridge) in &self.adj[block as usize] {
                if self.parent_bridge[next as usize] == UNVISITED {
                    self.parent_bridge[next as usize] = bridge;
                    child_block[bridge as usize] = next;
                    stack.push(next);
                }
            }
        }
        for &block in order.iter().rev() {
            let bridge = self.parent_bridge[block as usize];
            if bridge != ROOT {
                let (_, x, y) = bridges[bridge as usize];
                let parent = if block == x { y } else { x };
                self.weight[parent as usize] += self.weight[block as usize];
            }
        }
        let n = region.len();
        let best = (0..bridges.len())
            .max_by_key(|&i| {
                let size = self.weight[child_block[i] as usize] as usize;
                (size.min(n - size), std::cmp::Reverse(bridges[i].0))
            })
            .expect("split needs a bridge");

        // The child side: every block hanging below the chosen bridge.
        let below = child_block[best];
        self.on_side[below as usize] = true;
        let mut walk = vec![below];
        while let Some(block) = walk.pop() {
            for &(next, bridge) in &self.adj[block as usize] {
                if bridge != best as u32 && !self.on_side[next as usize] {
                    self.on_side[next as usize] = true;
                    walk.push(next);
                }
            }
        }
        let side: Vec<u32> = region
            .iter()
            .copied()
            .filter(|&node| self.on_side[self.block_of[node as usize] as usize])
            .collect();
        let edge = bridges[best].0;
        let (mut side_bridges, mut other_bridges) = (Vec::new(), Vec::new());
        for (i, bridge) in bridges.into_iter().enumerate() {
            if i == best {
                continue;
            }
            if self.on_side[bridge.1 as usize] {
                side_bridges.push(bridge);
            } else {
                other_bridges.push(bridge);
            }
        }
        for &block in &touched {
            self.weight[block as usize] = 0;
            self.adj[block as usize].clear();
            self.parent_bridge[block as usize] = UNVISITED;
            self.on_side[block as usize] = false;
        }
        BridgeRound {
            edge,
            side,
            side_bridges,
            other_bridges,
        }
    }
}

/// Run both phases of Algorithm 1 on a single connected component of
/// `graph`, without mutating it. The component is copied once into a
/// mutable scratch graph that every removal mutates in place; the split
/// sides are tracked directly from each cut, so no global
/// `connected_components` pass ever runs.
///
/// Phase 1 scans the component's cut structure once and answers each
/// bridge round from the carried block tree ([`BlockTree`]); only
/// 2-edge-connected regions run Stoer–Wagner, and only the regions such a
/// cut leaves behind are scanned again. Debug builds check every
/// block-tree round against a fresh [`most_balanced_bridge`] scan.
///
/// Invariant: the regions in the work queues are exactly the connected
/// components of the scratch graph that may still exceed a threshold, so
/// a BFS from inside a region never escapes it.
fn cleanup_component(graph: &Graph, component: &[u32], config: &CleanupConfig) -> ComponentOutcome {
    let mut report = CleanupReport::default();
    let mut removed: Vec<Edge> = Vec::new();

    let phase1_watch = Stopwatch::start();
    let sub = Subgraph::induce(graph, component);
    let n = sub.num_nodes();
    // One mutable scratch graph per component lineage (local ids 0..n).
    let mut scratch = Graph::with_nodes(n);
    for &(a, b) in &sub.edges {
        scratch.add_edge(a, b);
    }

    // Phase 1: minimum edge cuts while |region| > γ. A bridge is a
    // weight-1 min cut; queued regions carry their bridges, or `None`
    // when a Stoer–Wagner cut left them unlabelled.
    let mut tree = BlockTree::new(n);
    let initial = (n > config.gamma).then(|| tree.scan(&sub, |i| i));
    let mut phase2: Vec<Vec<u32>> = Vec::new();
    let mut queue: Vec<(Vec<u32>, Option<Vec<BlockBridge>>)> =
        vec![((0..n as u32).collect(), initial)];
    while let Some((region, carried)) = queue.pop() {
        if region.len() <= config.gamma {
            if region.len() > config.mu {
                phase2.push(region);
            }
            continue;
        }
        let bridges = carried.unwrap_or_else(|| {
            let rsub = Subgraph::induce(&scratch, &region);
            tree.scan(&rsub, |i| rsub.locals[i as usize])
        });

        if bridges.is_empty() {
            // 2-edge-connected: Stoer–Wagner.
            let rsub = Subgraph::induce(&scratch, &region);
            debug_assert!(most_balanced_bridge(&rsub).is_none());
            let Some(cut) = global_min_cut(&rsub) else {
                if region.len() > config.mu {
                    phase2.push(region);
                }
                continue;
            };
            report.mincut_rounds += 1;
            for &(a, b) in &cut.cut_edges {
                let (sa, sb) = (rsub.locals[a as usize], rsub.locals[b as usize]);
                if scratch.remove_edge(sa, sb) {
                    report.mincut_removed += 1;
                    removed.push(Edge::new(sub.locals[sa as usize], sub.locals[sb as usize]));
                }
            }
            // The cut disconnects the region into exactly `side` and its
            // complement; `region` and `side` are sorted, so mapping the
            // side through `rsub.locals` (monotone) keeps both parts sorted.
            let side: Vec<u32> = cut.side.iter().map(|&i| rsub.locals[i as usize]).collect();
            let other = complement_of(&region, &side);
            for part in [side, other] {
                if part.len() > config.gamma {
                    queue.push((part, None));
                } else if part.len() > config.mu {
                    phase2.push(part);
                }
            }
            continue;
        }

        let round = tree.split(&region, bridges);
        #[cfg(debug_assertions)]
        {
            let rsub = Subgraph::induce(&scratch, &region);
            let scan = most_balanced_bridge(&rsub).expect("the scan must find a bridge too");
            let to_local = |i: u32| rsub.locals[i as usize];
            assert_eq!(
                (to_local(scan.edge.0), to_local(scan.edge.1)),
                round.edge,
                "block-tree round chose another bridge than the Tarjan scan"
            );
            let scan_side: Vec<u32> = scan.child_side.iter().map(|&i| to_local(i)).collect();
            assert_eq!(scan_side, round.side, "block-tree round split another side");
        }
        report.mincut_rounds += 1;
        let (a, b) = round.edge;
        if scratch.remove_edge(a, b) {
            report.mincut_removed += 1;
            removed.push(Edge::new(sub.locals[a as usize], sub.locals[b as usize]));
        }
        let other = complement_of(&region, &round.side);
        for (part, bridges) in [
            (round.side, round.side_bridges),
            (other, round.other_bridges),
        ] {
            if part.len() > config.gamma {
                queue.push((part, Some(bridges)));
            } else if part.len() > config.mu {
                phase2.push(part);
            }
        }
    }
    report.mincut_seconds = phase1_watch.elapsed_secs();

    // Phase 2: betweenness-centrality removal while |region| > μ. After a
    // removal, one BFS from an endpoint decides connectivity — the region
    // either survives intact or splits into the BFS side + complement.
    let phase2_watch = Stopwatch::start();
    while let Some(region) = phase2.pop() {
        if region.len() <= config.mu {
            continue;
        }
        let rsub = Subgraph::induce(&scratch, &region);
        let Some(((a, b), _)) = max_betweenness_edge(&rsub) else {
            continue;
        };
        report.betweenness_rounds += 1;
        let (sa, sb) = (rsub.locals[a as usize], rsub.locals[b as usize]);
        if scratch.remove_edge(sa, sb) {
            report.betweenness_removed += 1;
            removed.push(Edge::new(sub.locals[sa as usize], sub.locals[sb as usize]));
        }
        let side = component_of(&scratch, sa);
        if side.binary_search(&sb).is_ok() {
            // Still connected: same region, one edge lighter.
            phase2.push(region);
        } else {
            let other = complement_of(&region, &side);
            for part in [side, other] {
                if part.len() > config.mu {
                    phase2.push(part);
                }
            }
        }
    }
    report.betweenness_seconds = phase2_watch.elapsed_secs();

    ComponentOutcome { removed, report }
}

/// Run Algorithm 1 in place, sequentially. Returns a report; the graph's
/// final components are the output groups. Equivalent to
/// [`graph_cleanup_with_pool`] with one worker.
pub fn graph_cleanup(graph: &mut Graph, config: &CleanupConfig) -> CleanupReport {
    graph_cleanup_with_pool(graph, config, &WorkerPool::new(1))
}

/// Run Algorithm 1 in place, cleaning independent oversized components in
/// parallel on `pool`.
///
/// Deterministic regardless of worker count: components are processed in
/// ascending minimum-node-id order, each component's decisions depend only
/// on its own induced subgraph, and the pool preserves input order, so the
/// removed-edge sequence and the report counters are bit-identical to the
/// sequential run.
pub fn graph_cleanup_with_pool(
    graph: &mut Graph,
    config: &CleanupConfig,
    pool: &WorkerPool,
) -> CleanupReport {
    let stopwatch = Stopwatch::start();
    let mut report = CleanupReport::default();

    let mut components: Vec<Vec<u32>> = connected_components(graph)
        .into_iter()
        .filter(|component| component.len() > config.mu.min(config.gamma))
        .collect();
    // Deterministic work order: by minimum node id (members are sorted).
    components.sort_unstable_by_key(|component| component[0]);

    let shared: &Graph = graph;
    let outcomes = pool.map(&components, |component| {
        cleanup_component(shared, component, config)
    });
    for outcome in &outcomes {
        for edge in &outcome.removed {
            graph.remove_edge(edge.a, edge.b);
        }
        report.merge(&outcome.report);
    }
    // Per-component seconds sum worker time; the headline number is wall.
    report.seconds = stopwatch.elapsed_secs();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_graph_cleanup;
    use gralmatch_graph::largest_component;

    /// Two K4 cliques joined by one false edge.
    fn two_cliques_bridged() -> Graph {
        let mut graph = Graph::new();
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    graph.add_edge(base + i, base + j);
                }
            }
        }
        graph.add_edge(3, 4); // the false positive
        graph
    }

    #[test]
    fn bridge_removed_by_mincut_phase() {
        let mut graph = two_cliques_bridged();
        let report = graph_cleanup(&mut graph, &CleanupConfig::new(5, 4));
        assert_eq!(report.mincut_removed, 1);
        assert!(!graph.has_edge(3, 4));
        let components = connected_components(&graph);
        assert_eq!(components.len(), 2);
        assert_eq!(components[0].len(), 4);
    }

    #[test]
    fn bridge_removed_by_betweenness_phase() {
        let mut graph = two_cliques_bridged();
        let config = CleanupConfig::new(5, 4).variant(CleanupVariant::BetweennessOnly);
        let report = graph_cleanup(&mut graph, &config);
        assert_eq!(report.betweenness_removed, 1);
        assert!(!graph.has_edge(3, 4));
    }

    #[test]
    fn all_components_below_mu_afterwards() {
        // Chain of 4 triangles — a long straggly component.
        let mut graph = Graph::new();
        for k in 0..4u32 {
            let base = k * 3;
            graph.add_edge(base, base + 1);
            graph.add_edge(base + 1, base + 2);
            graph.add_edge(base + 2, base);
            if k > 0 {
                graph.add_edge(base - 1, base);
            }
        }
        graph_cleanup(&mut graph, &CleanupConfig::new(6, 3));
        let largest = largest_component(&graph).unwrap();
        assert!(largest.len() <= 3, "largest {}", largest.len());
    }

    #[test]
    fn clean_graph_untouched() {
        // Components already within μ: nothing removed.
        let mut graph = Graph::from_edges([(0, 1), (1, 2), (3, 4)]);
        let report = graph_cleanup(&mut graph, &CleanupConfig::new(40, 8));
        assert_eq!(report.mincut_removed + report.betweenness_removed, 0);
        assert_eq!(graph.num_edges(), 3);
    }

    #[test]
    fn mec_only_variant_skips_betweenness() {
        let mut graph = two_cliques_bridged();
        let config = CleanupConfig::new(5, 4).variant(CleanupVariant::MinCutOnly);
        assert_eq!(config.gamma, config.mu);
        let report = graph_cleanup(&mut graph, &config);
        assert_eq!(report.betweenness_rounds, 0);
        assert!(report.mincut_rounds > 0);
    }

    #[test]
    fn half_gamma_variant() {
        let config = CleanupConfig::new(40, 8).variant(CleanupVariant::HalfGamma);
        assert_eq!(config.gamma, 20);
        // Never below μ.
        let config2 = CleanupConfig::new(9, 8).variant(CleanupVariant::HalfGamma);
        assert_eq!(config2.gamma, 8);
    }

    #[test]
    fn pre_cleanup_drops_marked_edges_in_big_components() {
        // A 6-node path; threshold 4 → the component qualifies; mark every
        // edge removable.
        let mut graph = Graph::from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let removed = pre_cleanup(&mut graph, 4, |_, _| true);
        assert_eq!(removed, 5);
        assert_eq!(graph.num_edges(), 0);
    }

    #[test]
    fn pre_cleanup_spares_small_components() {
        let mut graph = Graph::from_edges([(0, 1), (1, 2)]);
        let removed = pre_cleanup(&mut graph, 4, |_, _| true);
        assert_eq!(removed, 0);
        assert_eq!(graph.num_edges(), 2);
    }

    #[test]
    fn pre_cleanup_respects_predicate() {
        let mut graph = Graph::from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let removed = pre_cleanup(&mut graph, 4, |a, _| a == 0);
        assert_eq!(removed, 1);
        assert!(!graph.has_edge(0, 1));
        assert!(graph.has_edge(1, 2));
    }

    #[test]
    fn report_counts_rounds() {
        let mut graph = two_cliques_bridged();
        let report = graph_cleanup(&mut graph, &CleanupConfig::new(5, 4));
        assert!(report.mincut_rounds >= 1);
        assert!(report.seconds >= 0.0);
        // The phase split is populated and consistent with the rounds.
        assert!(report.mincut_seconds >= 0.0);
        assert!(report.betweenness_seconds >= 0.0);
    }

    #[test]
    fn report_merge_sums_all_fields() {
        let mut total = CleanupReport {
            pre_cleanup_removed: 1,
            mincut_removed: 2,
            betweenness_removed: 3,
            mincut_rounds: 4,
            betweenness_rounds: 5,
            seconds: 0.5,
            pre_cleanup_seconds: 0.1,
            mincut_seconds: 0.2,
            betweenness_seconds: 0.2,
        };
        let part = CleanupReport {
            pre_cleanup_removed: 10,
            mincut_removed: 20,
            betweenness_removed: 30,
            mincut_rounds: 40,
            betweenness_rounds: 50,
            seconds: 1.0,
            pre_cleanup_seconds: 0.25,
            mincut_seconds: 0.5,
            betweenness_seconds: 0.25,
        };
        total.merge(&part);
        assert_eq!(total.pre_cleanup_removed, 11);
        assert_eq!(total.mincut_removed, 22);
        assert_eq!(total.betweenness_removed, 33);
        assert_eq!(total.mincut_rounds, 44);
        assert_eq!(total.betweenness_rounds, 55);
        assert!((total.seconds - 1.5).abs() < 1e-12);
        assert!((total.pre_cleanup_seconds - 0.35).abs() < 1e-12);
        assert!((total.mincut_seconds - 0.7).abs() < 1e-12);
        assert!((total.betweenness_seconds - 0.45).abs() < 1e-12);
    }

    /// A miniature hub: `groups` cliques of `size` nodes, the first node of
    /// each clique linked to one shared hub node (node 0).
    fn hub_graph(groups: u32, size: u32) -> Graph {
        let mut graph = Graph::new();
        graph.ensure_node(0);
        for g in 0..groups {
            let base = 1 + g * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    graph.add_edge(base + i, base + j);
                }
            }
            graph.add_edge(0, base);
        }
        graph
    }

    #[test]
    fn bridge_first_shatters_hub_component() {
        // 12 cliques of 4 around one hub: a 49-node mega-component whose
        // false edges are all bridges. γ=5, μ=4 → every clique survives and
        // the hub is isolated. Phase 1 peels one clique per bridge round
        // until the region is hub + one clique (5 nodes, ≤ γ but > μ),
        // which routes to phase 2 for the final bridge.
        let mut graph = hub_graph(12, 4);
        let report = graph_cleanup(&mut graph, &CleanupConfig::new(5, 4));
        assert_eq!(report.mincut_removed, 11);
        assert_eq!(report.betweenness_removed, 1);
        let components = connected_components(&graph);
        // 12 cliques of 4 plus the isolated hub.
        assert_eq!(components[0].len(), 4);
        assert!(largest_component(&graph).unwrap().len() <= 4);
        for g in 0..12u32 {
            assert!(!graph.has_edge(0, 1 + g * 4));
        }
    }

    #[test]
    fn parallel_pool_matches_sequential_bit_for_bit() {
        let build = || {
            let mut graph = hub_graph(8, 5);
            // A second oversized component: chain of triangles offset high.
            for k in 0..4u32 {
                let base = 1000 + k * 3;
                graph.add_edge(base, base + 1);
                graph.add_edge(base + 1, base + 2);
                graph.add_edge(base + 2, base);
                if k > 0 {
                    graph.add_edge(base - 1, base);
                }
            }
            graph
        };
        let config = CleanupConfig::new(6, 4);
        let mut sequential = build();
        let seq_report = graph_cleanup(&mut sequential, &config);
        let mut parallel = build();
        let par_report = graph_cleanup_with_pool(&mut parallel, &config, &WorkerPool::new(4));
        let mut seq_edges: Vec<Edge> = sequential.edges().collect();
        let mut par_edges: Vec<Edge> = parallel.edges().collect();
        seq_edges.sort_unstable();
        par_edges.sort_unstable();
        assert_eq!(seq_edges, par_edges);
        assert_eq!(seq_report.mincut_removed, par_report.mincut_removed);
        assert_eq!(
            seq_report.betweenness_removed,
            par_report.betweenness_removed
        );
        assert_eq!(seq_report.mincut_rounds, par_report.mincut_rounds);
        assert_eq!(seq_report.betweenness_rounds, par_report.betweenness_rounds);
    }

    #[test]
    fn reference_cleanup_reaches_same_size_bound() {
        let config = CleanupConfig::new(5, 4);
        let mut fast = hub_graph(10, 4);
        let mut reference = hub_graph(10, 4);
        graph_cleanup(&mut fast, &config);
        reference_graph_cleanup(&mut reference, &config);
        assert!(largest_component(&fast).unwrap().len() <= 4);
        assert!(largest_component(&reference).unwrap().len() <= 4);
    }

    fn sorted_edges(graph: &Graph) -> Vec<Edge> {
        let mut edges: Vec<Edge> = graph.edges().collect();
        edges.sort_unstable();
        edges
    }

    /// Clean `graph` sequentially and on a 4-worker pool, assert both give
    /// the same edge set and counters with every component ≤ μ, and return
    /// the cleaned graph and sequential report. In debug builds every
    /// block-tree round is also checked against a fresh Tarjan scan.
    fn clean_checked(graph: &Graph, config: &CleanupConfig) -> (Graph, CleanupReport) {
        let mut sequential = graph.clone();
        let report = graph_cleanup(&mut sequential, config);
        let mut pooled = graph.clone();
        let pooled_report = graph_cleanup_with_pool(&mut pooled, config, &WorkerPool::new(4));
        assert_eq!(sorted_edges(&sequential), sorted_edges(&pooled));
        assert_eq!(
            (
                report.mincut_removed,
                report.mincut_rounds,
                report.betweenness_removed,
                report.betweenness_rounds,
            ),
            (
                pooled_report.mincut_removed,
                pooled_report.mincut_rounds,
                pooled_report.betweenness_removed,
                pooled_report.betweenness_rounds,
            )
        );
        assert!(largest_component(&sequential).map_or(0, |c| c.len()) <= config.mu);
        (sequential, report)
    }

    /// Assert a split side's carried bridges are exactly what a fresh
    /// scan of that side of `scratch` finds, with block annotations that
    /// agree with the tree's labels and a block partition equal to the
    /// scan's.
    fn assert_carried_matches_scan(
        scratch: &Graph,
        region: &[u32],
        carried: &[BlockBridge],
        tree: &BlockTree,
        context: &str,
    ) {
        let rsub = Subgraph::induce(scratch, region);
        let scan = cut_structure(&rsub);
        let to_local = |(a, b): (u32, u32)| (rsub.locals[a as usize], rsub.locals[b as usize]);
        let scanned: Vec<(u32, u32)> = scan.bridges.iter().map(|&e| to_local(e)).collect();
        let mut got: Vec<(u32, u32)> = carried.iter().map(|&(edge, _, _)| edge).collect();
        got.sort_unstable();
        assert_eq!(got, scanned, "{context}: carried bridges of {region:?}");
        for &((a, b), x, y) in carried {
            assert_eq!(
                (tree.block_of[a as usize], tree.block_of[b as usize]),
                (x, y),
                "{context}: bridge ({a},{b}) annotated with stale blocks"
            );
        }
        // Same partition, labels aside: one tree block per scan block.
        let mut pairs: Vec<(u32, u32)> = region
            .iter()
            .enumerate()
            .map(|(i, &node)| (tree.block_of[node as usize], scan.block_of[i]))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(
            pairs.len(),
            scan.num_blocks as usize,
            "{context}: block partition of {region:?}"
        );
        let mut tree_blocks: Vec<u32> = pairs.iter().map(|&(block, _)| block).collect();
        tree_blocks.dedup();
        assert_eq!(tree_blocks.len(), pairs.len(), "{context}: merged blocks");
    }

    /// Split every region of `graph` (node ids 0..n, one component per
    /// call) at its block tree's chosen bridge until no bridge is left,
    /// checking both sides' carried structure after every round.
    fn split_to_blocks(mut scratch: Graph, context: &str) -> usize {
        let n = scratch.num_nodes();
        let all: Vec<u32> = (0..n as u32).collect();
        let sub = Subgraph::induce(&scratch, &all);
        let mut tree = BlockTree::new(n);
        let bridges = tree.scan(&sub, |i| i);
        let mut rounds = 0;
        let mut queue = vec![(all, bridges)];
        while let Some((region, bridges)) = queue.pop() {
            if bridges.is_empty() {
                continue;
            }
            let round = tree.split(&region, bridges);
            assert!(scratch.remove_edge(round.edge.0, round.edge.1));
            rounds += 1;
            let other = complement_of(&region, &round.side);
            for (part, carried) in [
                (round.side, round.side_bridges),
                (other, round.other_bridges),
            ] {
                assert_carried_matches_scan(&scratch, &part, &carried, &tree, context);
                queue.push((part, carried));
            }
        }
        rounds
    }

    #[test]
    fn block_tree_split_carries_exact_side_structure() {
        // Triangle – bridge – triangle – bridge – triangle – pendant: the
        // first split leaves bridges on both sides, which must carry over
        // verbatim, with no rescan.
        let graph = Graph::from_edges([
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 3),
            (5, 6),
            (6, 7),
            (7, 8),
            (8, 6),
            (8, 9),
        ]);
        assert_eq!(split_to_blocks(graph, "chain"), 3);
    }

    #[test]
    fn block_tree_splits_match_scratch_on_random_graphs() {
        // Sparse random graphs: plenty of bridges and some cycles. Split
        // every component all the way down along its block tree.
        for seed in [5u64, 29, 101] {
            let mut rng = gralmatch_util::SplitRng::new(seed).split("block-tree");
            let n = 40;
            let mut graph = Graph::with_nodes(n);
            for _ in 0..45 {
                let a = rng.next_below(n) as u32;
                let b = rng.next_below(n) as u32;
                if a != b {
                    graph.add_edge(a, b);
                }
            }
            for component in connected_components(&graph) {
                let sub = Subgraph::induce(&graph, &component);
                let mut local = Graph::with_nodes(sub.num_nodes());
                for &(a, b) in &sub.edges {
                    local.add_edge(a, b);
                }
                let rounds = split_to_blocks(local, &format!("seed {seed}"));
                assert_eq!(rounds, gralmatch_graph::find_bridges(&sub).len());
            }
        }
    }

    #[test]
    fn block_tree_rounds_split_hub_at_bridges_only() {
        // Every false edge is a bridge: one scan of the 49-node component
        // answers all phase-1 rounds, and only hub edges are cut.
        let graph = hub_graph(12, 4);
        let (cleaned, report) = clean_checked(&graph, &CleanupConfig::new(5, 4));
        assert_eq!(report.mincut_rounds, 11);
        assert_eq!(cleaned.num_edges(), graph.num_edges() - 12);
        assert_eq!(graph.degree(0) - cleaned.degree(0), 12);
    }

    #[test]
    fn two_edge_connected_component_takes_min_cut() {
        // Two K4s joined by two parallel link edges: no bridge exists, so
        // the round is Stoer–Wagner's, cutting exactly the two links.
        let mut graph = two_cliques_bridged();
        graph.add_edge(1, 5); // second link alongside (3, 4)
        let (cleaned, report) = clean_checked(&graph, &CleanupConfig::new(5, 4));
        assert_eq!(report.mincut_removed, 2);
        assert!(!cleaned.has_edge(3, 4) && !cleaned.has_edge(1, 5));
        assert_eq!(connected_components(&cleaned).len(), 2);
    }

    #[test]
    fn regions_left_by_min_cut_are_rescanned() {
        // A ring of six K4s, each linked to the next by one edge: the ring
        // is 2-edge-connected, so the first round is Stoer–Wagner. Its cut
        // opens the ring into a path of cliques whose links are now
        // bridges, which the rescanned block tree answers.
        let mut graph = Graph::new();
        for k in 0..6u32 {
            let base = k * 4;
            for i in 0..4 {
                for j in (i + 1)..4 {
                    graph.add_edge(base + i, base + j);
                }
            }
            graph.add_edge(base + 3, (base + 4) % 24);
        }
        let (cleaned, report) = clean_checked(&graph, &CleanupConfig::new(5, 4));
        assert!(report.mincut_rounds >= 2);
        assert_eq!(cleaned.num_edges(), 6 * 6, "exactly the ring links go");
        assert_eq!(connected_components(&cleaned).len(), 6);
    }

    #[test]
    fn hub_welded_to_two_edge_connected_pair_is_fully_split() {
        // Hub of cliques with one pair of cliques double-linked: bridge
        // rounds peel the plain cliques, the 2-edge-connected remnant
        // (hub + welded pair) falls back to min cut, and what that cut
        // leaves behind is scanned again.
        let mut graph = hub_graph(8, 4);
        graph.add_edge(2, 6); // weld clique 0 to clique 1
        graph.add_edge(3, 7);
        let (cleaned, _) = clean_checked(&graph, &CleanupConfig::new(5, 4));
        assert_eq!(cleaned.degree(0), 0, "the hub keeps no edge");
        assert!(!cleaned.has_edge(2, 6) && !cleaned.has_edge(3, 7));
        assert_eq!(connected_components(&cleaned).len(), 9);
    }

    #[test]
    fn cleanup_is_stateless_across_churn_batches() {
        // Steady-state churn: re-adding the cut bridges and cleaning again
        // must give what cleaning a fresh clone gives, with the same
        // counters as the first batch — nothing carries over between calls.
        let config = CleanupConfig::new(5, 4);
        let mut graph = hub_graph(12, 4);
        let before = sorted_edges(&graph);
        let first = graph_cleanup(&mut graph, &config);
        for round in 0..3 {
            let cleaned = sorted_edges(&graph);
            for edge in &before {
                if cleaned.binary_search(edge).is_err() {
                    graph.add_edge(edge.a, edge.b);
                }
            }
            let (oracle, oracle_report) = clean_checked(&graph, &config);
            let report = graph_cleanup(&mut graph, &config);
            assert_eq!(sorted_edges(&oracle), sorted_edges(&graph), "round {round}");
            assert_eq!(report.mincut_removed, oracle_report.mincut_removed);
            assert_eq!(report.mincut_removed, first.mincut_removed);
        }
    }
}
