//! Shared traffic metering, computed **in aggregate over the tree**.
//!
//! Both execution engines — the centralized [`Session`](crate::Session)
//! and the pooled BSP runtime in `tamp-runtime` — charge communication on
//! the same ledger: per round and per *directed* edge, a value multicast
//! to several destinations traverses each edge of the union of its
//! routing paths exactly once. [`TrafficMeter`] is that accounting,
//! extracted so the two engines cannot drift: identical sends produce
//! bit-identical [`Cost`]s no matter which engine executed them.
//!
//! # Output-sensitive charging
//!
//! The naive implementation walks every send's full `src → dst` path —
//! `O(p² · depth)` stamp work for one repartition round on `p` nodes,
//! plus a memo table of every routed pair. This meter instead exploits
//! the tree structure end to end (cf. `topology::lca`):
//!
//! - a **unicast** `a → b` of `t` tuples is four per-node delta updates:
//!   `+t` on the up-accumulator at `a` and the down-accumulator at `b`,
//!   `−t` on both at `lca(a, b)`. A post-order up-sweep at round commit
//!   turns subtree sums into per-edge charges, splitting the child→parent
//!   (up) direction from parent→child (down). O(1) per send, O(n) per
//!   round.
//! - a **multicast** `src → dsts` charges each directed edge of the
//!   Steiner union of its paths once. The union is decomposed through
//!   the Euler-order **virtual tree** of the terminals: sort the distinct
//!   terminals by `tin`, add `+t` at every terminal, `−t` at every
//!   consecutive-pair LCA, and `−t` at `src` (whose upward leg is
//!   charged as up-edges `src → lca(terminals)` instead). O(k log k) for
//!   `k` destinations, independent of path lengths.
//!
//! The same commit sweep serves both, so one round of any mix of sends
//! costs O(n + sends) instead of O(sends · depth). The pre-aggregation
//! per-path walk survives only as the hidden [`oracle`] reference
//! implementation (used by a proptest asserting bit-identical ledgers
//! on random trees and send batches, and as the `x-scale` bench
//! baseline).

use tamp_topology::{LcaIndex, NodeId, Tree};

use crate::cost::{Cost, Ledger};

const NONE: u32 = u32::MAX;

/// Union-of-paths, per-directed-edge traffic metering over a sequence of
/// rounds, charged in aggregate (see the module docs).
///
/// Usage per round: any number of [`TrafficMeter::charge_unicast`] /
/// [`TrafficMeter::charge_multicast`] / [`TrafficMeter::charge_via`]
/// calls, then one [`TrafficMeter::commit_round`].
/// [`TrafficMeter::finish`] folds the ledger into a [`Cost`].
#[derive(Clone, Debug)]
pub struct TrafficMeter {
    ledger: Ledger,
    lca: LcaIndex,
    /// Nodes in DFS preorder of the rooting at node 0 (parents first).
    order: Vec<u32>,
    /// Deeper endpoint of each undirected edge (the child side).
    edge_child: Vec<u32>,
    /// Per-node delta accumulator for child→parent (up) charges. The
    /// `−t` entries make intermediate values wrap below zero; u64
    /// wrapping arithmetic is exact because every subtree sum is a
    /// mathematically nonnegative total that fits in u64.
    up: Vec<u64>,
    /// Per-node delta accumulator for parent→child (down) charges.
    down: Vec<u64>,
    /// Distinct terminals of the multicast being charged, then sorted by
    /// Euler `tin` (reused scratch).
    terminals: Vec<NodeId>,
    /// Terminal-dedup stamps: `seen[v] == seen_ctr` marks `v` as already
    /// collected for the current multicast.
    seen: Vec<u32>,
    seen_ctr: u32,
    /// `true` once any charge landed in the round in progress.
    dirty: bool,
}

impl TrafficMeter {
    /// A meter over `tree`'s directed edges with an empty ledger.
    pub fn new(tree: &Tree) -> Self {
        let n = tree.num_nodes();
        let lca = LcaIndex::new(tree);
        let order: Vec<u32> = tree.dfs_order().iter().map(|v| v.0).collect();
        let edge_child = tree.edges().map(|e| tree.deeper_endpoint(e).0).collect();
        TrafficMeter {
            ledger: Ledger::new(tree),
            lca,
            order,
            edge_child,
            up: vec![0; n],
            down: vec![0; n],
            terminals: Vec::new(),
            seen: vec![0; n],
            seen_ctr: 0,
            dirty: false,
        }
    }

    /// Number of directed edges being metered.
    pub fn num_dir_edges(&self) -> usize {
        self.ledger.num_dir_edges()
    }

    /// Number of committed rounds.
    pub fn rounds_committed(&self) -> usize {
        self.ledger.num_rounds()
    }

    /// Charge `amount` tuples on every directed edge of the unique path
    /// `a → b`. O(1).
    pub fn charge_unicast(&mut self, a: NodeId, b: NodeId, amount: u64) {
        if a == b || amount == 0 {
            return;
        }
        self.dirty = true;
        let l = self.lca.lca(a, b);
        self.bump_up(a, amount);
        self.dip_up(l, amount);
        self.bump_down(b, amount);
        self.dip_down(l, amount);
    }

    /// Charge one multicast: `amount` tuples from `src` to every node of
    /// `dsts`, each directed edge of the union of the paths charged once
    /// (duplicate destinations collapse). O(k log k) in the number of
    /// destinations.
    pub fn charge_multicast(&mut self, src: NodeId, dsts: &[NodeId], amount: u64) {
        if amount == 0 {
            return;
        }
        // Distinct terminals: {src} ∪ dsts, deduplicated by stamp.
        self.seen_ctr = self.seen_ctr.wrapping_add(1);
        if self.seen_ctr == 0 {
            self.seen.fill(0);
            self.seen_ctr = 1;
        }
        let mut terminals = std::mem::take(&mut self.terminals);
        terminals.clear();
        self.seen[src.index()] = self.seen_ctr;
        terminals.push(src);
        for &d in dsts {
            let s = &mut self.seen[d.index()];
            if *s != self.seen_ctr {
                *s = self.seen_ctr;
                terminals.push(d);
            }
        }
        if terminals.len() < 2 {
            self.terminals = terminals;
            return; // every destination is the source: nothing travels
        }
        self.dirty = true;
        terminals.sort_unstable_by_key(|&v| self.lca.tin(v));

        // The union's upward leg is exactly `src → L` where `L` is the
        // LCA of all terminals (the first/last in tin order).
        let l = self.lca.lca(terminals[0], terminals[terminals.len() - 1]);
        self.bump_up(src, amount);
        self.dip_up(l, amount);

        // Every other union edge points away from the root-0 rooting's
        // parent side, i.e. is a down-edge of its child node `x`, and is
        // in the union iff some terminal lies in `subtree(x)` (and `x`
        // is below `L`, and `src` is not in `subtree(x)`). The virtual
        // tree decomposition charges that indicator additively: `+t` per
        // terminal, `−t` per consecutive-pair LCA — terminals inside any
        // subtree are a contiguous tin run, so each union edge nets
        // exactly `+t` — and `−t` at `src` cancels the upward leg (and,
        // combined with the pair terms, everything above `L`).
        for i in 0..terminals.len() {
            self.bump_down(terminals[i], amount);
            if i + 1 < terminals.len() {
                let pl = self.lca.lca(terminals[i], terminals[i + 1]);
                self.dip_down(pl, amount);
            }
        }
        self.dip_down(src, amount);
        self.terminals = terminals;
    }

    /// Charge a relayed multicast: `amount` tuples travel `src → relay`,
    /// then fan out `relay → dsts` as one multicast. Both legs are
    /// charged in full (the data physically traverses the relay, so the
    /// legs do not union with each other).
    pub fn charge_via(&mut self, src: NodeId, relay: NodeId, dsts: &[NodeId], amount: u64) {
        self.charge_unicast(src, relay, amount);
        self.charge_multicast(relay, dsts, amount);
    }

    #[inline]
    fn bump_up(&mut self, v: NodeId, amount: u64) {
        let x = &mut self.up[v.index()];
        *x = x.wrapping_add(amount);
    }

    #[inline]
    fn dip_up(&mut self, v: NodeId, amount: u64) {
        let x = &mut self.up[v.index()];
        *x = x.wrapping_sub(amount);
    }

    #[inline]
    fn bump_down(&mut self, v: NodeId, amount: u64) {
        let x = &mut self.down[v.index()];
        *x = x.wrapping_add(amount);
    }

    #[inline]
    fn dip_down(&mut self, v: NodeId, amount: u64) {
        let x = &mut self.down[v.index()];
        *x = x.wrapping_sub(amount);
    }

    /// Commit the accumulated charges as one finished round: a post-order
    /// fold turns the per-node deltas into per-edge subtree sums, emitted
    /// sparsely in edge-id order. O(n + touched) work.
    pub fn commit_round(&mut self) {
        if !self.dirty {
            self.ledger.push_round(Vec::new());
            return;
        }
        let pairs = self.sweep();
        self.up.fill(0);
        self.down.fill(0);
        self.dirty = false;
        self.ledger.push_round(pairs);
    }

    /// The post-order fold: children precede parents in reverse DFS
    /// order, so folding each node into its parent leaves every node
    /// holding its subtree sum; each undirected edge then emits its two
    /// directed charges (child side up, parent side down), ascending by
    /// dir-edge id.
    fn sweep(&mut self) -> Vec<(u32, u64)> {
        for &x in self.order.iter().rev() {
            if let Some(p) = self.lca.parent(NodeId(x)) {
                let (xi, pi) = (x as usize, p.index());
                self.up[pi] = self.up[pi].wrapping_add(self.up[xi]);
                self.down[pi] = self.down[pi].wrapping_add(self.down[xi]);
            }
        }
        debug_assert_eq!(self.up[self.order[0] as usize], 0, "up deltas must cancel");
        debug_assert_eq!(
            self.down[self.order[0] as usize], 0,
            "down deltas must cancel"
        );
        let mut pairs: Vec<(u32, u64)> = Vec::new();
        for (e, &child) in self.edge_child.iter().enumerate() {
            let (su, sd) = (self.up[child as usize], self.down[child as usize]);
            if su == 0 && sd == 0 {
                continue;
            }
            debug_assert!(su <= u64::MAX / 2 && sd <= u64::MAX / 2, "negative charge");
            let up_dir = self.lca.up_edge(NodeId(child)).map_or(NONE, |d| d.0);
            let d0 = (e as u32) << 1;
            let (first, second) = if up_dir == d0 { (su, sd) } else { (sd, su) };
            if first > 0 {
                pairs.push((d0, first));
            }
            if second > 0 {
                pairs.push((d0 | 1, second));
            }
        }
        pairs
    }

    /// Discard the accumulated charges of the round in progress — for
    /// callers abandoning a failed round so its partial sends don't leak
    /// into the next committed round.
    pub fn abort_round(&mut self) {
        self.up.fill(0);
        self.down.fill(0);
        self.dirty = false;
    }

    /// Fold the committed rounds into a [`Cost`]. Uncommitted charges of a
    /// round in progress are dropped.
    pub fn finish(self) -> Cost {
        self.ledger.finish()
    }
}

/// The pre-aggregation reference implementation: walk every path, stamp
/// every edge. This is the oracle the aggregate meter is proptested
/// against and the baseline the `x-scale` bench measures — it exists
/// for exactly those consumers, hence the `doc(hidden)`. Not a
/// supported metering API.
#[doc(hidden)]
pub mod oracle {
    use std::collections::HashMap;

    use tamp_topology::DirEdgeId;

    use super::*;

    /// A faithful reconstruction of the seed metering: a memoized
    /// `HashMap<(src, dst), Box<[DirEdgeId]>>` path table (`PathCache`),
    /// a dense per-round charge vector, and a stamp array deduplicating
    /// edges within one union (multicast) scope.
    pub struct NaivePathMeter {
        bandwidth: Vec<f64>,
        paths: HashMap<(u32, u32), Box<[DirEdgeId]>>,
        current: Vec<u64>,
        stamp: Vec<u32>,
        stamp_ctr: u32,
        rounds: Vec<Vec<u64>>,
    }

    impl NaivePathMeter {
        /// A naive meter over `tree`'s directed edges.
        pub fn new(tree: &Tree) -> Self {
            let bandwidth: Vec<f64> = tree.dir_edges().map(|d| tree.bandwidth(d).get()).collect();
            let n = bandwidth.len();
            NaivePathMeter {
                bandwidth,
                paths: HashMap::new(),
                current: vec![0; n],
                stamp: vec![0; n],
                stamp_ctr: 0,
                rounds: Vec::new(),
            }
        }

        fn begin_union(&mut self) {
            self.stamp_ctr = self.stamp_ctr.wrapping_add(1);
            if self.stamp_ctr == 0 {
                self.stamp.fill(0);
                self.stamp_ctr = 1;
            }
        }

        fn charge_path(&mut self, tree: &Tree, a: NodeId, b: NodeId, amount: u64) {
            if a == b || amount == 0 {
                return;
            }
            let path = self
                .paths
                .entry((a.0, b.0))
                .or_insert_with(|| tree.path(a, b).into_boxed_slice());
            for &d in path.iter() {
                let i = d.index();
                if self.stamp[i] != self.stamp_ctr {
                    self.stamp[i] = self.stamp_ctr;
                    self.current[i] += amount;
                }
            }
        }

        /// Charge one unicast (its own union scope).
        pub fn charge_unicast(&mut self, tree: &Tree, a: NodeId, b: NodeId, amount: u64) {
            self.begin_union();
            self.charge_path(tree, a, b, amount);
        }

        /// Charge one multicast: union of the `src → dst` paths.
        pub fn charge_multicast(&mut self, tree: &Tree, src: NodeId, dsts: &[NodeId], amount: u64) {
            self.begin_union();
            for &dst in dsts {
                self.charge_path(tree, src, dst, amount);
            }
        }

        /// Charge a relayed multicast: both legs in full, each its own
        /// union scope.
        pub fn charge_via(
            &mut self,
            tree: &Tree,
            src: NodeId,
            relay: NodeId,
            dsts: &[NodeId],
            amount: u64,
        ) {
            self.charge_unicast(tree, src, relay, amount);
            self.charge_multicast(tree, relay, dsts, amount);
        }

        /// Commit the round in progress.
        pub fn commit_round(&mut self) {
            let n = self.current.len();
            let charges = std::mem::replace(&mut self.current, vec![0; n]);
            self.rounds.push(charges);
        }

        /// The seed's dense `Ledger::finish`, verbatim.
        pub fn finish(self) -> Cost {
            use crate::cost::RoundCost;
            let mut per_round = Vec::with_capacity(self.rounds.len());
            let mut edge_totals = vec![0u64; self.bandwidth.len()];
            for traffic in &self.rounds {
                let mut round = RoundCost {
                    tuple_cost: 0.0,
                    bottleneck: None,
                    max_tuples: 0,
                    total_tuples: 0,
                };
                for (d, &tuples) in traffic.iter().enumerate() {
                    edge_totals[d] += tuples;
                    round.total_tuples += tuples;
                    round.max_tuples = round.max_tuples.max(tuples);
                    let w = self.bandwidth[d];
                    let c = if w.is_infinite() {
                        0.0
                    } else {
                        tuples as f64 / w
                    };
                    if c > round.tuple_cost {
                        round.tuple_cost = c;
                        round.bottleneck = Some(DirEdgeId(d as u32));
                    }
                }
                per_round.push(round);
            }
            Cost {
                per_round,
                edge_totals,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tamp_topology::builders;

    #[test]
    fn multicast_unions_paths() {
        // Star with 4 leaves: a broadcast from leaf 0 charges the uplink
        // once and each downlink once.
        let t = builders::star(4, 1.0);
        let mut m = TrafficMeter::new(&t);
        let vc = t.compute_nodes().to_vec();
        m.charge_multicast(vc[0], &vc, 10);
        m.commit_round();
        let cost = m.finish();
        assert_eq!(cost.total_tuples(), 40);
        assert_eq!(cost.tuple_cost(), 10.0);
    }

    #[test]
    fn union_scopes_are_independent() {
        let t = builders::star(2, 1.0);
        let mut m = TrafficMeter::new(&t);
        let vc = t.compute_nodes().to_vec();
        // Two separate unicasts of the same path charge it twice…
        m.charge_multicast(vc[0], &[vc[1]], 3);
        m.charge_multicast(vc[0], &[vc[1]], 3);
        m.commit_round();
        // …while one multicast with a duplicated destination charges once.
        m.charge_multicast(vc[0], &[vc[1], vc[1]], 3);
        m.commit_round();
        let cost = m.finish();
        assert_eq!(cost.per_round[0].total_tuples, 12);
        assert_eq!(cost.per_round[1].total_tuples, 6);
    }

    #[test]
    fn rounds_are_separated() {
        let t = builders::star(2, 2.0);
        let mut m = TrafficMeter::new(&t);
        let vc = t.compute_nodes().to_vec();
        m.charge_multicast(vc[0], &[vc[1]], 4);
        m.commit_round();
        m.charge_multicast(vc[1], &[vc[0]], 2);
        m.commit_round();
        assert_eq!(m.rounds_committed(), 2);
        let cost = m.finish();
        assert_eq!(cost.per_round.len(), 2);
        assert_eq!(cost.per_round[0].tuple_cost, 2.0);
        assert_eq!(cost.per_round[1].tuple_cost, 1.0);
    }

    #[test]
    fn self_and_empty_sends_are_free() {
        let t = builders::star(3, 1.0);
        let mut m = TrafficMeter::new(&t);
        let vc = t.compute_nodes().to_vec();
        m.charge_unicast(vc[0], vc[0], 9);
        m.charge_multicast(vc[1], &[vc[1], vc[1]], 9);
        m.charge_multicast(vc[2], &[], 9);
        m.charge_unicast(vc[0], vc[1], 0);
        m.commit_round();
        let cost = m.finish();
        assert_eq!(cost.total_tuples(), 0);
        assert_eq!(cost.per_round[0].bottleneck, None);
    }

    #[test]
    fn abort_discards_partial_charges() {
        let t = builders::star(2, 1.0);
        let mut m = TrafficMeter::new(&t);
        let vc = t.compute_nodes().to_vec();
        m.charge_unicast(vc[0], vc[1], 7);
        m.abort_round();
        m.charge_unicast(vc[0], vc[1], 1);
        m.commit_round();
        let cost = m.finish();
        assert_eq!(cost.total_tuples(), 2); // 1 tuple × 2 hops
    }

    /// The oracle check on a tree large enough to matter (≥ 4096 nodes),
    /// cheap enough for debug builds: one round of 2,000 seeded
    /// multicasts must commit the same ledger as the per-path oracle.
    #[test]
    fn large_tree_commit_matches_per_path_oracle() {
        let tree = builders::random_tree(3000, 2500, 0.5, 16.0, 42);
        assert!(tree.nodes().count() >= 4096);
        let mut agg = TrafficMeter::new(&tree);
        let mut naive = oracle::NaivePathMeter::new(&tree);
        let all: Vec<NodeId> = tree.nodes().collect();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2_000 {
            let src = all[rng.random_range(0..all.len())];
            let mut dsts = Vec::new();
            for _ in 0..rng.random_range(1..4usize) {
                dsts.push(all[rng.random_range(0..all.len())]);
            }
            let amount = rng.random_range(0..50u64);
            agg.charge_multicast(src, &dsts, amount);
            naive.charge_multicast(&tree, src, &dsts, amount);
        }
        agg.commit_round();
        naive.commit_round();
        let (agg, naive) = (agg.finish(), naive.finish());
        assert_eq!(agg.edge_totals, naive.edge_totals);
        assert_eq!(agg.per_round, naive.per_round);
        assert!(agg.total_tuples() > 0);
    }

    /// Drive identical random batches — unicasts, multicasts with
    /// duplicated destinations, `send_via` relay legs (router relays
    /// included) — through the aggregate meter and the per-path oracle
    /// and require bit-identical ledgers.
    fn parity_case(seed: u64) -> (Cost, Cost) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_compute = rng.random_range(1..9usize);
        let n_routers = rng.random_range(1..8usize);
        let tree = builders::random_tree(n_compute, n_routers, 0.5, 16.0, seed ^ 0xA5);
        let all: Vec<NodeId> = tree.nodes().collect();
        let mut agg = TrafficMeter::new(&tree);
        let mut naive = oracle::NaivePathMeter::new(&tree);
        let rounds = rng.random_range(1..4usize);
        for _ in 0..rounds {
            let sends = rng.random_range(0..16usize);
            for _ in 0..sends {
                let amount = rng.random_range(0..20u64);
                let pick = |rng: &mut StdRng| all[rng.random_range(0..all.len())];
                let mut dsts = Vec::new();
                for _ in 0..rng.random_range(0..6usize) {
                    dsts.push(pick(&mut rng)); // duplicates welcome
                }
                match rng.random_range(0..3u32) {
                    0 => {
                        let (a, b) = (pick(&mut rng), pick(&mut rng));
                        agg.charge_unicast(a, b, amount);
                        naive.charge_unicast(&tree, a, b, amount);
                    }
                    1 => {
                        let src = pick(&mut rng);
                        agg.charge_multicast(src, &dsts, amount);
                        naive.charge_multicast(&tree, src, &dsts, amount);
                    }
                    _ => {
                        let (src, relay) = (pick(&mut rng), pick(&mut rng));
                        agg.charge_via(src, relay, &dsts, amount);
                        naive.charge_via(&tree, src, relay, &dsts, amount);
                    }
                }
            }
            agg.commit_round();
            naive.commit_round();
        }
        (agg.finish(), naive.finish())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn aggregate_charging_matches_per_path_oracle(seed in 0u64..1_000_000) {
            let (agg, naive) = parity_case(seed);
            prop_assert_eq!(&agg.edge_totals, &naive.edge_totals);
            prop_assert_eq!(&agg.per_round, &naive.per_round);
        }
    }
}
