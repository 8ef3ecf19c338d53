//! Network topologies (paper, Fig. 6).
//!
//! The evaluation uses two 15-node topologies: a **partial mesh** where
//! each node has 4 neighbors (cycles ⇒ redundant delivery paths ⇒ the RR
//! optimization matters) and a **tree** with 3 neighbors per inner node
//! (acyclic ⇒ BP alone suffices). This module builds those plus the usual
//! suspects for tests and extensions.

use crdt_lattice::ReplicaId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// An undirected connected graph over replicas `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    name: String,
    adj: Vec<Vec<ReplicaId>>,
}

impl Topology {
    fn from_edges(name: impl Into<String>, n: usize, edges: &[(usize, usize)]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a != b, "self-loop {a}");
            assert!(a < n && b < n, "edge ({a},{b}) out of range");
            let (ra, rb) = (ReplicaId::from(a), ReplicaId::from(b));
            if !adj[a].contains(&rb) {
                adj[a].push(rb);
                adj[b].push(ra);
            }
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        Topology {
            name: name.into(),
            adj,
        }
    }

    /// Every node connected to every other node.
    pub fn full_mesh(n: usize) -> Self {
        let edges: Vec<_> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .collect();
        Self::from_edges(format!("full-mesh({n})"), n, &edges)
    }

    /// The paper's partial mesh: a circulant graph where node `i` links to
    /// `i ± 1, …, i ± degree/2` (mod n). With `degree = 4` and `n = 15`
    /// this is the left topology of Fig. 6: 4 neighbors per node, plenty
    /// of cycles.
    pub fn partial_mesh(n: usize, degree: usize) -> Self {
        assert!(
            degree.is_multiple_of(2),
            "circulant mesh needs an even degree"
        );
        assert!(degree / 2 < n, "degree too large for {n} nodes");
        let mut edges = Vec::new();
        for a in 0..n {
            for d in 1..=degree / 2 {
                edges.push((a, (a + d) % n));
            }
        }
        Self::from_edges(format!("mesh({n},deg{degree})"), n, &edges)
    }

    /// The paper's tree: a complete binary tree — the root has 2
    /// neighbors, inner nodes 3, leaves 1 (right topology of Fig. 6).
    pub fn binary_tree(n: usize) -> Self {
        let mut edges = Vec::new();
        for a in 1..n {
            edges.push(((a - 1) / 2, a));
        }
        Self::from_edges(format!("tree({n})"), n, &edges)
    }

    /// A simple cycle.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs ≥ 3 nodes");
        let edges: Vec<_> = (0..n).map(|a| (a, (a + 1) % n)).collect();
        Self::from_edges(format!("ring({n})"), n, &edges)
    }

    /// A path graph.
    pub fn line(n: usize) -> Self {
        let edges: Vec<_> = (1..n).map(|a| (a - 1, a)).collect();
        Self::from_edges(format!("line({n})"), n, &edges)
    }

    /// A hub-and-spoke star centered on node 0.
    pub fn star(n: usize) -> Self {
        let edges: Vec<_> = (1..n).map(|a| (0, a)).collect();
        Self::from_edges(format!("star({n})"), n, &edges)
    }

    /// A random connected graph: a random spanning tree plus `extra`
    /// random edges (deterministic for a given seed).
    pub fn random_connected(n: usize, extra: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut edges = Vec::new();
        for i in 1..n {
            let parent = order[rng.gen_range(0..i)];
            edges.push((order[i], parent));
        }
        let mut added = 0;
        let mut guard = 0;
        while added < extra && guard < extra * 20 + 100 {
            guard += 1;
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
                edges.push((a, b));
                added += 1;
            }
        }
        Self::from_edges(format!("random({n},+{extra},seed{seed})"), n, &edges)
    }

    /// Grow the graph by one node linked to `links`, returning the new
    /// node's id — the structural half of a mid-run **join** (the
    /// membership half lives in [`DynamicTopology`]).
    ///
    /// # Panics
    ///
    /// If `links` is empty (the joiner would be unreachable) or names an
    /// unknown node.
    pub fn add_node(&mut self, links: &[ReplicaId]) -> ReplicaId {
        assert!(!links.is_empty(), "a joining node needs at least one link");
        let new = ReplicaId::from(self.adj.len());
        self.adj.push(Vec::new());
        for &peer in links {
            assert!(peer.index() < new.index(), "link to unknown node {peer}");
            if !self.adj[new.index()].contains(&peer) {
                self.adj[new.index()].push(peer);
                self.adj[peer.index()].push(new);
                self.adj[peer.index()].sort_unstable();
            }
        }
        self.adj[new.index()].sort_unstable();
        new
    }

    /// Human-readable topology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Is the topology empty?
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        (0..self.adj.len()).map(ReplicaId::from)
    }

    /// Sorted neighbor list of `node`.
    pub fn neighbors(&self, node: ReplicaId) -> &[ReplicaId] {
        &self.adj[node.index()]
    }

    /// Degree of `node`.
    pub fn degree(&self, node: ReplicaId) -> usize {
        self.adj[node.index()].len()
    }

    /// Total undirected edge count.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Is the graph connected? (Required for convergence.)
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(a) = stack.pop() {
            for &b in &self.adj[a] {
                if !seen[b.index()] {
                    seen[b.index()] = true;
                    stack.push(b.index());
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// Does the graph contain a cycle? (Determines whether BP alone
    /// suffices — §V-B.)
    pub fn has_cycle(&self) -> bool {
        // For a connected undirected graph: cycle ⇔ |E| ≥ |V|.
        self.edge_count() >= self.adj.len()
    }

    /// Graph diameter (longest shortest path), via BFS from every node.
    pub fn diameter(&self) -> usize {
        let n = self.adj.len();
        let mut best = 0;
        for start in 0..n {
            let mut dist = vec![usize::MAX; n];
            dist[start] = 0;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(a) = queue.pop_front() {
                for &b in &self.adj[a] {
                    if dist[b.index()] == usize::MAX {
                        dist[b.index()] = dist[a] + 1;
                        queue.push_back(b.index());
                    }
                }
            }
            best = best.max(
                dist.into_iter()
                    .filter(|d| *d != usize::MAX)
                    .max()
                    .unwrap_or(0),
            );
        }
        best
    }
}

/// A [`Topology`] with **mutable membership**: which nodes are alive, and
/// which partition side each node currently sits on.
///
/// The base graph stays the source of truth for *links*; this wrapper
/// answers the time-varying questions a fault scenario asks — is this
/// node up, can a message cross this edge right now, who are the live
/// representatives of each partition side. Drivers
/// ([`crate::ShardedEngineRunner`], the scenario layer) consult it at
/// delivery time; senders keep addressing their full neighbor list,
/// exactly like real deployments that do not learn about crashes or cuts
/// synchronously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicTopology {
    base: Topology,
    alive: Vec<bool>,
    /// Partition side per node (`None` ⇒ no partition active).
    side: Option<Vec<usize>>,
}

impl DynamicTopology {
    /// Wrap a static topology; every node starts alive, unpartitioned.
    pub fn new(base: Topology) -> Self {
        let n = base.len();
        DynamicTopology {
            base,
            alive: vec![true; n],
            side: None,
        }
    }

    /// The underlying link graph.
    pub fn base(&self) -> &Topology {
        &self.base
    }

    /// Number of nodes (alive or not).
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Is the membership empty?
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Is `node` currently up?
    pub fn is_alive(&self, node: ReplicaId) -> bool {
        self.alive[node.index()]
    }

    /// Mark `node` down (crash) or up (restart).
    pub fn set_alive(&mut self, node: ReplicaId, alive: bool) {
        self.alive[node.index()] = alive;
    }

    /// All currently live nodes, in id order.
    pub fn alive_nodes(&self) -> Vec<ReplicaId> {
        self.base.nodes().filter(|n| self.is_alive(*n)).collect()
    }

    /// Number of live nodes.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Install a partition: each entry of `groups` is one side; nodes not
    /// listed form one extra implicit side. Replaces any active partition.
    pub fn set_partition(&mut self, groups: &[Vec<usize>]) {
        let n = self.base.len();
        let mut side = vec![groups.len(); n];
        for (g, members) in groups.iter().enumerate() {
            for &m in members {
                assert!(m < n, "partition names unknown node {m}");
                side[m] = g;
            }
        }
        self.side = Some(side);
    }

    /// Remove the active partition (heal).
    pub fn clear_partition(&mut self) {
        self.side = None;
    }

    /// Is a partition currently active?
    pub fn is_partitioned(&self) -> bool {
        self.side.is_some()
    }

    /// Can a message currently cross `from → to`? `false` while the two
    /// ends sit on different partition sides or either end is down.
    pub fn link_open(&self, from: ReplicaId, to: ReplicaId) -> bool {
        if !self.is_alive(from) || !self.is_alive(to) {
            return false;
        }
        match &self.side {
            Some(side) => side[from.index()] == side[to.index()],
            None => true,
        }
    }

    /// The base-graph neighbors of `node` it can currently reach.
    pub fn reachable_neighbors(&self, node: ReplicaId) -> Vec<ReplicaId> {
        self.base
            .neighbors(node)
            .iter()
            .copied()
            .filter(|&p| self.link_open(node, p))
            .collect()
    }

    /// One live representative per partition side (lowest id), in side
    /// order — the nodes a repair pass stitches back together after a
    /// heal. Without an active partition: the single lowest live node.
    pub fn side_representatives(&self) -> Vec<ReplicaId> {
        match &self.side {
            None => self.alive_nodes().into_iter().take(1).collect(),
            Some(side) => {
                let mut reps: Vec<(usize, ReplicaId)> = Vec::new();
                for node in self.base.nodes() {
                    if self.is_alive(node) && !reps.iter().any(|(g, _)| *g == side[node.index()]) {
                        reps.push((side[node.index()], node));
                    }
                }
                reps.sort_unstable();
                reps.into_iter().map(|(_, n)| n).collect()
            }
        }
    }

    /// Grow the base graph by one (live) node — a join. Delegates to
    /// [`Topology::add_node`].
    pub fn join(&mut self, links: &[ReplicaId]) -> ReplicaId {
        let new = self.base.add_node(links);
        self.alive.push(true);
        if let Some(side) = &mut self.side {
            // A joiner lands on the side of its first link.
            side.push(side[links[0].index()]);
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mesh_shape() {
        // Fig. 6 left: 15 nodes, 4 neighbors each.
        let t = Topology::partial_mesh(15, 4);
        assert_eq!(t.len(), 15);
        for node in t.nodes() {
            assert_eq!(t.degree(node), 4, "node {node}");
        }
        assert!(t.is_connected());
        assert!(t.has_cycle());
        assert_eq!(t.edge_count(), 30);
    }

    #[test]
    fn paper_tree_shape() {
        // Fig. 6 right: root 2 neighbors, inner 3, leaves 1.
        let t = Topology::binary_tree(15);
        assert_eq!(t.degree(ReplicaId(0)), 2);
        for i in 1..7 {
            assert_eq!(t.degree(ReplicaId(i)), 3, "inner node {i}");
        }
        for i in 7..15 {
            assert_eq!(t.degree(ReplicaId(i)), 1, "leaf {i}");
        }
        assert!(t.is_connected());
        assert!(!t.has_cycle());
        assert_eq!(t.edge_count(), 14);
    }

    #[test]
    fn full_mesh_is_complete() {
        let t = Topology::full_mesh(5);
        assert_eq!(t.edge_count(), 10);
        for node in t.nodes() {
            assert_eq!(t.degree(node), 4);
        }
        assert_eq!(t.diameter(), 1);
    }

    #[test]
    fn ring_line_star() {
        let r = Topology::ring(6);
        assert!(r.has_cycle());
        assert_eq!(r.diameter(), 3);
        let l = Topology::line(6);
        assert!(!l.has_cycle());
        assert_eq!(l.diameter(), 5);
        let s = Topology::star(6);
        assert!(!s.has_cycle());
        assert_eq!(s.degree(ReplicaId(0)), 5);
        assert_eq!(s.diameter(), 2);
    }

    #[test]
    fn random_graphs_are_connected_and_deterministic() {
        for seed in 0..5 {
            let t = Topology::random_connected(12, 6, seed);
            assert!(t.is_connected(), "seed {seed}");
            let t2 = Topology::random_connected(12, 6, seed);
            assert_eq!(t, t2, "determinism for seed {seed}");
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let t = Topology::partial_mesh(10, 4);
        for a in t.nodes() {
            for &b in t.neighbors(a) {
                assert!(t.neighbors(b).contains(&a), "{a} ↔ {b}");
            }
        }
    }

    #[test]
    fn add_node_links_both_directions() {
        let mut t = Topology::ring(4);
        let new = t.add_node(&[ReplicaId(0), ReplicaId(2)]);
        assert_eq!(new, ReplicaId(4));
        assert_eq!(t.len(), 5);
        assert_eq!(t.neighbors(new), &[ReplicaId(0), ReplicaId(2)]);
        assert!(t.neighbors(ReplicaId(0)).contains(&new));
        assert!(t.is_connected());
    }

    #[test]
    fn dynamic_topology_tracks_membership_and_partitions() {
        let mut d = DynamicTopology::new(Topology::full_mesh(5));
        assert_eq!(d.alive_count(), 5);
        assert!(d.link_open(ReplicaId(0), ReplicaId(4)));

        d.set_alive(ReplicaId(4), false);
        assert!(!d.link_open(ReplicaId(0), ReplicaId(4)));
        assert_eq!(d.alive_nodes().len(), 4);

        d.set_partition(&[vec![0, 1]]);
        assert!(d.is_partitioned());
        assert!(d.link_open(ReplicaId(0), ReplicaId(1)));
        assert!(!d.link_open(ReplicaId(0), ReplicaId(2)));
        // Unlisted nodes form the implicit other side, together.
        assert!(d.link_open(ReplicaId(2), ReplicaId(3)));
        assert_eq!(
            d.side_representatives(),
            vec![ReplicaId(0), ReplicaId(2)],
            "one live representative per side"
        );
        assert_eq!(
            d.reachable_neighbors(ReplicaId(0)),
            vec![ReplicaId(1)],
            "cross-cut and dead peers filtered"
        );

        d.clear_partition();
        assert!(d.link_open(ReplicaId(0), ReplicaId(2)));
        assert_eq!(d.side_representatives(), vec![ReplicaId(0)]);

        let joined = d.join(&[ReplicaId(0)]);
        assert!(d.is_alive(joined));
        assert_eq!(d.len(), 6);
    }
}
