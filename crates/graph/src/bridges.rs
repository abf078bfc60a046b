//! Tarjan bridge detection.
//!
//! A bridge is an edge whose removal disconnects its component — a min cut
//! of weight 1. Finding all bridges in one O(n + m) DFS lets the cleanup
//! (and diagnostics) shortcut the common case where a false-positive link
//! between two groups is a single edge, without running a full min-cut.

use crate::components::Subgraph;

/// A bridge together with the side it would split off.
///
/// Produced by [`most_balanced_bridge`]: removing `edge` disconnects the
/// (connected) subgraph into `child_side` and its complement. The child
/// side is the DFS subtree hanging below the bridge — the region "behind"
/// the articulation point at the bridge's parent endpoint — so a caller
/// recursing into the split can confine itself to the two known sides
/// without recomputing connected components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgeSplit {
    /// The bridge, as a local index pair (canonical `a < b`).
    pub edge: (u32, u32),
    /// Local indices of the side split off by removing the bridge
    /// (sorted). The other side is the complement.
    pub child_side: Vec<u32>,
}

impl BridgeSplit {
    /// The split's balance: the size of its smaller side. Higher is more
    /// balanced (a bridge to a pendant vertex scores 1).
    pub fn balance(&self, num_nodes: usize) -> usize {
        self.child_side.len().min(num_nodes - self.child_side.len())
    }
}

/// The bridge whose removal splits a **connected** subgraph most evenly,
/// or `None` when the subgraph is 2-edge-connected (no bridge exists).
///
/// A bridge is a minimum edge cut of weight 1, so when one exists it is a
/// valid (and cheapest-possible) min-cut round: this function lets the
/// graph cleanup shatter bridge-rich mega-components in O(n + m) per
/// round instead of running Stoer–Wagner. Among all bridges the most
/// balanced one is chosen — halving a component bounds the total rounds
/// logarithmically where an arbitrary (e.g. pendant) bridge would peel
/// one node per round — with ties broken toward the smallest canonical
/// edge for determinism.
///
/// The input must be connected (the caller's invariant, as for
/// [`global_min_cut`](crate::mincut::global_min_cut)); this is
/// debug-asserted.
pub fn most_balanced_bridge(sub: &Subgraph) -> Option<BridgeSplit> {
    debug_assert!(
        sub.is_connected(),
        "most_balanced_bridge requires a connected subgraph"
    );
    let n = sub.num_nodes();
    let bridges = bridges_with_subtree_sizes(sub);
    let best = bridges
        .iter()
        .max_by_key(|(edge, _, size)| {
            let size = *size as usize;
            // Most balanced first; ties toward the smallest edge (Reverse
            // inside max_by_key picks the smallest on equal balance).
            (size.min(n - size), std::cmp::Reverse(*edge))
        })
        .copied()?;
    let (edge, child, _) = best;
    // The child side is the set reachable from the bridge's child endpoint
    // without crossing the bridge — one O(side) traversal.
    let other = if edge.0 == child { edge.1 } else { edge.0 };
    let mut seen = vec![false; n];
    seen[child as usize] = true;
    seen[other as usize] = true; // blocked: never cross the bridge
    let mut side = vec![child];
    let mut stack = vec![child];
    while let Some(u) = stack.pop() {
        for &v in &sub.adj[u as usize] {
            if !seen[v as usize] {
                seen[v as usize] = true;
                side.push(v);
                stack.push(v);
            }
        }
    }
    side.sort_unstable();
    Some(BridgeSplit {
        edge,
        child_side: side,
    })
}

/// Tarjan bridge DFS that also tracks subtree sizes: each entry is
/// `(canonical edge, child endpoint, child-subtree size)`.
fn bridges_with_subtree_sizes(sub: &Subgraph) -> Vec<((u32, u32), u32, u32)> {
    let n = sub.num_nodes();
    let mut disc = vec![u32::MAX; n];
    let mut low = vec![u32::MAX; n];
    let mut size = vec![1u32; n];
    let mut bridges = Vec::new();
    let mut timer = 0u32;

    #[derive(Clone, Copy)]
    struct Frame {
        node: u32,
        parent: u32,
        cursor: usize,
        parent_skipped: bool,
    }

    for root in 0..n as u32 {
        if disc[root as usize] != u32::MAX {
            continue;
        }
        let mut stack = vec![Frame {
            node: root,
            parent: u32::MAX,
            cursor: 0,
            parent_skipped: false,
        }];
        disc[root as usize] = timer;
        low[root as usize] = timer;
        timer += 1;

        while let Some(frame) = stack.last_mut() {
            let u = frame.node;
            if frame.cursor < sub.adj[u as usize].len() {
                let v = sub.adj[u as usize][frame.cursor];
                frame.cursor += 1;
                if v == frame.parent && !frame.parent_skipped {
                    frame.parent_skipped = true;
                    continue;
                }
                if disc[v as usize] == u32::MAX {
                    disc[v as usize] = timer;
                    low[v as usize] = timer;
                    timer += 1;
                    stack.push(Frame {
                        node: v,
                        parent: u,
                        cursor: 0,
                        parent_skipped: false,
                    });
                } else {
                    low[u as usize] = low[u as usize].min(disc[v as usize]);
                }
            } else {
                let popped = *frame;
                stack.pop();
                if let Some(parent_frame) = stack.last() {
                    let p = parent_frame.node;
                    low[p as usize] = low[p as usize].min(low[popped.node as usize]);
                    size[p as usize] += size[popped.node as usize];
                    if low[popped.node as usize] > disc[p as usize] {
                        let edge = if p < popped.node {
                            (p, popped.node)
                        } else {
                            (popped.node, p)
                        };
                        bridges.push((edge, popped.node, size[popped.node as usize]));
                    }
                }
            }
        }
    }
    bridges
}

/// The full cut structure of a region in one scan: every bridge plus the
/// 2-edge-connected block each node belongs to.
///
/// Blocks are the connected components of the region once all bridges are
/// removed; the block graph (blocks as nodes, bridges as edges) is a
/// forest, and a tree per connected region. Block ids are dense `0..`,
/// assigned in ascending local-node order, so the labeling is a pure
/// function of the subgraph. The graph cleanup scans each oversized
/// component once and answers its bridge-splitting rounds from this block
/// tree instead of re-running Tarjan per round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutStructure {
    /// Bridges as local edge pairs (canonical `a < b`), sorted.
    pub bridges: Vec<(u32, u32)>,
    /// Dense block id (`0..num_blocks`) per local node.
    pub block_of: Vec<u32>,
    /// Number of 2-edge-connected blocks.
    pub num_blocks: u32,
}

/// Compute the [`CutStructure`] of a subgraph (any region, connected or
/// not): one Tarjan pass for the bridges, one BFS avoiding them for the
/// block labels — O(V + E) total.
pub fn cut_structure(sub: &Subgraph) -> CutStructure {
    let n = sub.num_nodes();
    let bridges = find_bridges(sub);
    let is_bridge = |a: u32, b: u32| {
        let edge = if a < b { (a, b) } else { (b, a) };
        bridges.binary_search(&edge).is_ok()
    };
    let mut block_of = vec![u32::MAX; n];
    let mut num_blocks = 0u32;
    let mut stack: Vec<u32> = Vec::new();
    for start in 0..n as u32 {
        if block_of[start as usize] != u32::MAX {
            continue;
        }
        let block = num_blocks;
        num_blocks += 1;
        block_of[start as usize] = block;
        stack.push(start);
        while let Some(u) = stack.pop() {
            for &v in &sub.adj[u as usize] {
                if block_of[v as usize] == u32::MAX && !is_bridge(u, v) {
                    block_of[v as usize] = block;
                    stack.push(v);
                }
            }
        }
    }
    CutStructure {
        bridges,
        block_of,
        num_blocks,
    }
}

/// All bridges of a subgraph, as local edge pairs (canonical `a < b`),
/// sorted. Iterative DFS so deep components cannot overflow the stack.
pub fn find_bridges(sub: &Subgraph) -> Vec<(u32, u32)> {
    let n = sub.num_nodes();
    let mut disc = vec![u32::MAX; n]; // discovery time
    let mut low = vec![u32::MAX; n];
    let mut bridges = Vec::new();
    let mut timer = 0u32;

    // Iterative DFS frames: (node, parent-edge-skip-flag, neighbor cursor).
    // parent is tracked as the *edge* (parent node id); parallel edges are
    // impossible in a simple graph so skipping one parent occurrence is
    // correct.
    #[derive(Clone, Copy)]
    struct Frame {
        node: u32,
        parent: u32, // u32::MAX for roots
        cursor: usize,
        parent_skipped: bool,
    }

    for root in 0..n as u32 {
        if disc[root as usize] != u32::MAX {
            continue;
        }
        let mut stack = vec![Frame {
            node: root,
            parent: u32::MAX,
            cursor: 0,
            parent_skipped: false,
        }];
        disc[root as usize] = timer;
        low[root as usize] = timer;
        timer += 1;

        while let Some(frame) = stack.last_mut() {
            let u = frame.node;
            if frame.cursor < sub.adj[u as usize].len() {
                let v = sub.adj[u as usize][frame.cursor];
                frame.cursor += 1;
                if v == frame.parent && !frame.parent_skipped {
                    frame.parent_skipped = true;
                    continue;
                }
                if disc[v as usize] == u32::MAX {
                    disc[v as usize] = timer;
                    low[v as usize] = timer;
                    timer += 1;
                    stack.push(Frame {
                        node: v,
                        parent: u,
                        cursor: 0,
                        parent_skipped: false,
                    });
                } else {
                    low[u as usize] = low[u as usize].min(disc[v as usize]);
                }
            } else {
                let popped = *frame;
                stack.pop();
                if let Some(parent_frame) = stack.last() {
                    let p = parent_frame.node;
                    low[p as usize] = low[p as usize].min(low[popped.node as usize]);
                    if low[popped.node as usize] > disc[p as usize] {
                        let (a, b) = if p < popped.node {
                            (p, popped.node)
                        } else {
                            (popped.node, p)
                        };
                        bridges.push((a, b));
                    }
                }
            }
        }
    }
    bridges.sort_unstable();
    bridges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::Subgraph;
    use crate::graph::Graph;

    fn sub_of(edges: &[(u32, u32)]) -> Subgraph {
        let g = Graph::from_edges(edges.iter().copied());
        let nodes: Vec<u32> = (0..g.num_nodes() as u32).collect();
        Subgraph::induce(&g, &nodes)
    }

    #[test]
    fn path_all_bridges() {
        let sub = sub_of(&[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(find_bridges(&sub), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn cycle_no_bridges() {
        let sub = sub_of(&[(0, 1), (1, 2), (2, 0)]);
        assert!(find_bridges(&sub).is_empty());
    }

    #[test]
    fn barbell_single_bridge() {
        let sub = sub_of(&[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        assert_eq!(find_bridges(&sub), vec![(2, 3)]);
    }

    #[test]
    fn two_components_each_with_bridge() {
        let sub = sub_of(&[(0, 1), (2, 3), (3, 4), (4, 2), (4, 5)]);
        assert_eq!(find_bridges(&sub), vec![(0, 1), (4, 5)]);
    }

    #[test]
    fn deep_path_no_stack_overflow() {
        let edges: Vec<(u32, u32)> = (0..50_000u32).map(|i| (i, i + 1)).collect();
        let sub = sub_of(&edges);
        assert_eq!(find_bridges(&sub).len(), 50_000);
    }

    #[test]
    fn star_all_bridges() {
        let sub = sub_of(&[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(find_bridges(&sub).len(), 4);
    }

    #[test]
    fn balanced_bridge_on_barbell() {
        // Two triangles joined by the bridge (2, 3): a perfect 3/3 split.
        let sub = sub_of(&[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        let split = most_balanced_bridge(&sub).unwrap();
        assert_eq!(split.edge, (2, 3));
        assert_eq!(split.balance(sub.num_nodes()), 3);
        // Child side is whichever triangle hangs below the bridge in DFS.
        assert!(split.child_side == vec![0, 1, 2] || split.child_side == vec![3, 4, 5]);
    }

    #[test]
    fn balanced_bridge_prefers_center_of_path() {
        // Path 0-1-2-3-4-5: every edge is a bridge; the most balanced is
        // (2, 3) with a 3/3 split.
        let sub = sub_of(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let split = most_balanced_bridge(&sub).unwrap();
        assert_eq!(split.edge, (2, 3));
        assert_eq!(split.balance(sub.num_nodes()), 3);
    }

    #[test]
    fn balanced_bridge_none_when_two_edge_connected() {
        let sub = sub_of(&[(0, 1), (1, 2), (2, 0)]);
        assert!(most_balanced_bridge(&sub).is_none());
    }

    #[test]
    fn balanced_bridge_sides_partition_nodes() {
        // Star with pendant chains of differing length.
        let sub = sub_of(&[(0, 1), (0, 2), (2, 3), (3, 4), (0, 5), (5, 6)]);
        let n = sub.num_nodes();
        let split = most_balanced_bridge(&sub).unwrap();
        assert!(!split.child_side.is_empty());
        assert!(split.child_side.len() < n);
        // The child side must be exactly the nodes unreachable from the
        // other endpoint once the bridge is gone.
        let (a, b) = split.edge;
        let child = *split.child_side.first().unwrap();
        let _ = (a, b, child);
        for w in split.child_side.windows(2) {
            assert!(w[0] < w[1], "child_side must be sorted and unique");
        }
    }

    #[test]
    fn cut_structure_barbell() {
        // Two triangles joined by the bridge (2, 3).
        let sub = sub_of(&[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        let cs = cut_structure(&sub);
        assert_eq!(cs.bridges, vec![(2, 3)]);
        assert_eq!(cs.num_blocks, 2);
        assert_eq!(cs.block_of, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn cut_structure_path_is_all_singleton_blocks() {
        let sub = sub_of(&[(0, 1), (1, 2), (2, 3)]);
        let cs = cut_structure(&sub);
        assert_eq!(cs.bridges.len(), 3);
        assert_eq!(cs.num_blocks, 4);
        assert_eq!(cs.block_of, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cut_structure_two_edge_connected_is_one_block() {
        let sub = sub_of(&[(0, 1), (1, 2), (2, 0)]);
        let cs = cut_structure(&sub);
        assert!(cs.bridges.is_empty());
        assert_eq!(cs.num_blocks, 1);
    }

    #[test]
    fn cut_structure_labels_disconnected_regions() {
        let sub = sub_of(&[(0, 1), (2, 3), (3, 4), (4, 2)]);
        let cs = cut_structure(&sub);
        assert_eq!(cs.bridges, vec![(0, 1)]);
        assert_eq!(cs.num_blocks, 3);
        assert_eq!(cs.block_of, vec![0, 1, 2, 2, 2]);
    }

    #[test]
    fn balanced_bridge_deterministic_tie_break() {
        // Two symmetric pendant edges off a triangle: (0,3) and (1,4) both
        // split 1/4. Smallest canonical edge wins.
        let sub = sub_of(&[(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)]);
        let split = most_balanced_bridge(&sub).unwrap();
        assert_eq!(split.edge, (0, 3));
        assert_eq!(split.child_side, vec![3]);
    }
}
