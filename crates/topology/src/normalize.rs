//! The two w.l.o.g. normalizations of Section 2.1.
//!
//! 1. **Every compute node is a leaf**: a non-leaf compute node `v` is
//!    demoted to a router and a fresh compute leaf `v'` is attached with an
//!    infinite-bandwidth link, so data movement between `v'` and the rest of
//!    the network costs exactly what it cost for `v`.
//! 2. **No degree-2 routers**: a router `v` with exactly two incident edges
//!    `e₁, e₂` is spliced out and replaced by a single edge whose
//!    per-direction bandwidth is the minimum of the two (the path through
//!    `v` is exactly as constrained as its weakest link).

use crate::node::{NodeId, NodeKind};
use crate::tree::{Tree, TreeBuilder};

/// Result of a normalization: the new tree plus a map from old node ids to
/// new node ids (`None` if the old node was removed).
#[derive(Clone, Debug)]
pub struct Normalized {
    /// The transformed tree.
    pub tree: Tree,
    /// `node_map[old.index()]` is the new id of the old node.
    ///
    /// For [`hoist_compute_leaves`], an old *compute* node maps to the new
    /// compute leaf that replaces it (so placements transfer directly).
    pub node_map: Vec<Option<NodeId>>,
}

/// Apply normalization 1: make every compute node a leaf.
///
/// Old compute nodes keep their ids but become routers; a fresh compute
/// leaf is attached to each with an infinite-bandwidth symmetric link. The
/// returned `node_map` sends each old compute node to its replacement leaf
/// (leaf compute nodes map to themselves).
pub fn hoist_compute_leaves(tree: &Tree) -> Normalized {
    let mut b = TreeBuilder::new();
    let n = tree.num_nodes();
    // Recreate all original nodes with the same ids.
    let mut node_map: Vec<Option<NodeId>> = Vec::with_capacity(n);
    let mut to_hoist = Vec::new();
    for v in tree.nodes() {
        let non_leaf_compute = tree.is_compute(v) && !tree.is_leaf(v);
        let id = if non_leaf_compute {
            to_hoist.push(v);
            b.router()
        } else {
            match tree.kind(v) {
                NodeKind::Compute => b.compute(),
                NodeKind::Router => b.router(),
            }
        };
        debug_assert_eq!(id, v);
        node_map.push(Some(v));
    }
    for e in tree.edges() {
        let (u, v) = tree.endpoints(e);
        let fwd = tree.bandwidth(crate::tree::DirEdgeId::new(e, false)).get();
        let rev = tree.bandwidth(crate::tree::DirEdgeId::new(e, true)).get();
        b.link_asym(u, v, fwd, rev).expect("valid edge");
    }
    for v in to_hoist {
        let leaf = b.compute();
        b.link(v, leaf, f64::INFINITY).expect("valid edge");
        node_map[v.index()] = Some(leaf);
    }
    Normalized {
        tree: b.build().expect("hoisting preserves treeness"),
        node_map,
    }
}

/// Apply normalization 2: splice out every degree-2 router.
///
/// Compute nodes are never removed, even if they have degree 2 (run
/// [`hoist_compute_leaves`] first for fully normalized trees).
pub fn contract_degree2(tree: &Tree) -> Normalized {
    let n = tree.num_nodes();
    // Work on a mutable adjacency replica: neighbor lists with per-direction
    // bandwidths, splicing repeatedly.
    #[derive(Clone)]
    struct Link {
        to: usize,
        w_out: f64, // bandwidth self → to
        w_in: f64,  // bandwidth to → self
    }
    let mut adj: Vec<Vec<Link>> = vec![Vec::new(); n];
    for e in tree.edges() {
        let (u, v) = tree.endpoints(e);
        let fwd = tree.bandwidth(crate::tree::DirEdgeId::new(e, false)).get();
        let rev = tree.bandwidth(crate::tree::DirEdgeId::new(e, true)).get();
        adj[u.index()].push(Link {
            to: v.index(),
            w_out: fwd,
            w_in: rev,
        });
        adj[v.index()].push(Link {
            to: u.index(),
            w_out: rev,
            w_in: fwd,
        });
    }
    let mut removed = vec![false; n];
    loop {
        let candidate = (0..n)
            .find(|&i| !removed[i] && !tree.is_compute(NodeId::from_index(i)) && adj[i].len() == 2);
        let Some(mid) = candidate else { break };
        let (a, bx) = (adj[mid][0].clone(), adj[mid][1].clone());
        removed[mid] = true;
        adj[mid].clear();
        // New edge a.to <-> b.to with min bandwidths per direction.
        // Direction a.to → b.to passes a.to→mid (a.w_in) then mid→b.to (b.w_out).
        let w_ab = a.w_in.min(bx.w_out);
        let w_ba = bx.w_in.min(a.w_out);
        let (ai, bi) = (a.to, bx.to);
        adj[ai].retain(|l| l.to != mid);
        adj[bi].retain(|l| l.to != mid);
        adj[ai].push(Link {
            to: bi,
            w_out: w_ab,
            w_in: w_ba,
        });
        adj[bi].push(Link {
            to: ai,
            w_out: w_ba,
            w_in: w_ab,
        });
    }
    // Compact ids and rebuild.
    let mut node_map: Vec<Option<NodeId>> = vec![None; n];
    let mut b = TreeBuilder::new();
    for i in 0..n {
        if !removed[i] {
            let id = match tree.kind(NodeId::from_index(i)) {
                NodeKind::Compute => b.compute(),
                NodeKind::Router => b.router(),
            };
            node_map[i] = Some(id);
        }
    }
    for i in 0..n {
        if removed[i] {
            continue;
        }
        for l in &adj[i] {
            if i < l.to {
                b.link_asym(
                    node_map[i].unwrap(),
                    node_map[l.to].unwrap(),
                    l.w_out,
                    l.w_in,
                )
                .expect("valid edge");
            }
        }
    }
    Normalized {
        tree: b.build().expect("contraction preserves treeness"),
        node_map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    #[test]
    fn hoists_internal_compute() {
        // compute - compute - compute path: middle is non-leaf compute.
        let mut b = TreeBuilder::new();
        let a = b.compute();
        let m = b.compute();
        let c = b.compute();
        b.link(a, m, 3.0).unwrap();
        b.link(m, c, 5.0).unwrap();
        let t = b.build().unwrap();
        assert!(!t.compute_nodes_are_leaves());

        let norm = hoist_compute_leaves(&t);
        assert!(norm.tree.compute_nodes_are_leaves());
        assert_eq!(norm.tree.num_compute(), 3);
        // The old middle node maps to a fresh leaf linked with ∞ bandwidth.
        let new_m = norm.node_map[m.index()].unwrap();
        assert_ne!(new_m, m);
        assert!(norm.tree.is_leaf(new_m));
        let d = norm
            .tree
            .dir_edge_between(m, new_m)
            .expect("hoist link exists");
        assert!(norm.tree.bandwidth(d).is_infinite());
        // Leaf compute nodes keep their ids.
        assert_eq!(norm.node_map[a.index()], Some(a));
    }

    #[test]
    fn hoist_is_identity_when_already_normal() {
        let t = crate::builders::star(4, 2.0);
        let norm = hoist_compute_leaves(&t);
        assert_eq!(norm.tree.num_nodes(), t.num_nodes());
        assert_eq!(norm.tree.num_edges(), t.num_edges());
    }

    #[test]
    fn hoist_preserves_degraded_asymmetric_bandwidths() {
        // Degrade the a-m uplink of an internal-compute chain, then hoist:
        // the surviving real edge must carry the degraded weights, which
        // must have moved from the healthy tree's.
        let build = || {
            let mut b = TreeBuilder::new();
            let a = b.compute();
            let m = b.compute();
            let c = b.compute();
            b.link_asym(a, m, 6.0, 3.0).unwrap();
            b.link(m, c, 5.0).unwrap();
            (b.build().unwrap(), a, m)
        };
        let (healthy, a, m) = build();
        let (mut t, _, _) = build();
        let e = t.dir_edge_between(a, m).unwrap().edge();
        t.scale_bandwidth(e, 3.0).unwrap();
        let (d, back) = (
            t.dir_edge_between(a, m).unwrap(),
            t.dir_edge_between(m, a).unwrap(),
        );
        assert_eq!((t.bandwidth(d).get(), t.bandwidth(back).get()), (2.0, 1.0));
        assert_eq!(
            (healthy.bandwidth(d).get(), healthy.bandwidth(back).get()),
            (6.0, 3.0)
        );

        let norm = hoist_compute_leaves(&t);
        assert!(norm.tree.compute_nodes_are_leaves());
        let d = norm.tree.dir_edge_between(a, m).unwrap();
        let back = norm.tree.dir_edge_between(m, a).unwrap();
        assert_eq!(norm.tree.bandwidth(d).get(), 2.0);
        assert_eq!(norm.tree.bandwidth(back).get(), 1.0);
    }

    #[test]
    fn contracts_router_chains() {
        // a - r1 - r2 - r3 - c with decreasing bandwidths: contraction must
        // keep the min.
        let mut b = TreeBuilder::new();
        let a = b.compute();
        let r1 = b.router();
        let r2 = b.router();
        let r3 = b.router();
        let c = b.compute();
        b.link(a, r1, 8.0).unwrap();
        b.link(r1, r2, 2.0).unwrap();
        b.link(r2, r3, 4.0).unwrap();
        b.link(r3, c, 6.0).unwrap();
        let t = b.build().unwrap();

        let norm = contract_degree2(&t);
        assert_eq!(norm.tree.num_nodes(), 2);
        assert_eq!(norm.tree.num_edges(), 1);
        let na = norm.node_map[a.index()].unwrap();
        let nc = norm.node_map[c.index()].unwrap();
        let d = norm.tree.dir_edge_between(na, nc).unwrap();
        assert_eq!(norm.tree.bandwidth(d).get(), 2.0);
        assert!(norm.node_map[r2.index()].is_none());
    }

    #[test]
    fn contract_keeps_degree2_compute() {
        let mut b = TreeBuilder::new();
        let a = b.compute();
        let m = b.compute(); // degree-2 *compute* node must survive
        let c = b.compute();
        b.link(a, m, 3.0).unwrap();
        b.link(m, c, 5.0).unwrap();
        let t = b.build().unwrap();
        let norm = contract_degree2(&t);
        assert_eq!(norm.tree.num_nodes(), 3);
        assert!(norm.node_map[m.index()].is_some());
    }

    #[test]
    fn contract_star_is_identity() {
        let t = crate::builders::star(5, 1.0);
        let norm = contract_degree2(&t);
        assert_eq!(norm.tree.num_nodes(), t.num_nodes());
    }
}
