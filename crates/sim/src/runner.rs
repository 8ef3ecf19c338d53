//! The round-based simulation engine.
//!
//! One **round** models the paper's experiment loop (§V-B: "each node
//! periodically (every second) synchronizes with neighbors and executes an
//! update operation"): every node first applies its workload operations,
//! then runs one synchronization step; all resulting messages (and any
//! protocol replies, recursively — Scuttlebutt's push-pull completes
//! within the round) are delivered before the next round starts.
//!
//! The round structure deliberately reproduces the contention regime that
//! exposes the classic-delta anomaly: *"this anomaly becomes noticeable
//! when concurrent update operations always occur between synchronization
//! rounds"* (§I).

use std::time::Instant;

use crdt_lattice::{ReplicaId, SizeModel};
use crdt_sync::{Measured, Params, Protocol};
use crdt_types::Crdt;

use crate::metrics::{RoundMetrics, RunMetrics};
use crate::network::{Network, NetworkConfig};
use crate::topology::Topology;

/// A source of update operations, one batch per (node, round).
///
/// Implementations live in `crdt-workloads`; closures work for tests.
pub trait Workload<C: Crdt> {
    /// Operations node `node` executes at the start of `round`.
    fn ops(&mut self, node: ReplicaId, round: usize) -> Vec<C::Op>;
}

impl<C: Crdt, F> Workload<C> for F
where
    F: FnMut(ReplicaId, usize) -> Vec<C::Op>,
{
    fn ops(&mut self, node: ReplicaId, round: usize) -> Vec<C::Op> {
        self(node, round)
    }
}

/// Simulation driver for one protocol over one topology.
#[derive(Debug)]
pub struct Runner<C: Crdt, P: Protocol<C>> {
    topology: Topology,
    nodes: Vec<P>,
    alive: Vec<bool>,
    net: Network<(ReplicaId, P::Msg)>,
    model: SizeModel,
    metrics: RunMetrics,
    round: usize,
}

impl<C: Crdt, P: Protocol<C>> Runner<C, P> {
    /// Build a runner: one protocol instance per topology node.
    pub fn new(topology: Topology, net_cfg: NetworkConfig, model: SizeModel) -> Self {
        let params = Params::new(topology.len());
        let nodes: Vec<P> = topology.nodes().map(|id| P::new(id, &params)).collect();
        let n = topology.len();
        Runner {
            topology,
            nodes,
            alive: vec![true; n],
            net: Network::new(net_cfg),
            model,
            metrics: RunMetrics::new(n),
            round: 0,
        }
    }

    /// The protocol's display name.
    pub fn protocol_name() -> &'static str {
        P::NAME
    }

    /// Access a node's protocol instance.
    pub fn node(&self, id: ReplicaId) -> &P {
        &self.nodes[id.index()]
    }

    /// The topology driving this run.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The collected metrics so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Consume the runner, returning the metrics.
    pub fn into_metrics(self) -> RunMetrics {
        self.metrics
    }

    /// Have all **live** replicas reached the same lattice state?
    pub fn converged(&self) -> bool {
        let states: Vec<&C> = self
            .nodes
            .iter()
            .zip(&self.alive)
            .filter(|(_, a)| **a)
            .map(|(p, _)| p.state())
            .collect();
        states.windows(2).all(|w| w[0] == w[1])
    }

    /// Crash `node`: it stops executing and everything addressed to it is
    /// discarded. `durable: false` additionally wipes its state (cold
    /// restart from `⊥`); pair the restart with
    /// [`Runner::bootstrap_pair`] to rejoin.
    pub fn crash_node(&mut self, node: ReplicaId, durable: bool) {
        self.alive[node.index()] = false;
        if !durable {
            self.nodes[node.index()] = P::new(node, &Params::new(self.topology.len()));
        }
    }

    /// Bring a crashed `node` back (state as the crash left it).
    pub fn restart_node(&mut self, node: ReplicaId) {
        self.alive[node.index()] = true;
    }

    /// Is `node` currently up?
    pub fn is_alive(&self, node: ReplicaId) -> bool {
        self.alive[node.index()]
    }

    /// Out-of-band bidirectional snapshot exchange between `a` and `b`
    /// through [`Protocol::bootstrap`] — the state-transfer half of a
    /// restart or join.
    pub fn bootstrap_pair(&mut self, a: ReplicaId, b: ReplicaId) {
        assert_ne!(a, b, "bootstrap needs two distinct replicas");
        let (lo, hi) = (a.index().min(b.index()), a.index().max(b.index()));
        let (left, right) = self.nodes.split_at_mut(hi);
        left[lo].bootstrap(&right[0]);
        right[0].bootstrap(&left[lo]);
    }

    /// Run `rounds` rounds of workload + synchronization.
    pub fn run(&mut self, workload: &mut impl Workload<C>, rounds: usize) {
        for _ in 0..rounds {
            self.step(workload);
        }
    }

    /// Run one round.
    pub fn step(&mut self, workload: &mut impl Workload<C>) {
        let mut rm = RoundMetrics::default();

        // Phase 1: update operations (paper: one update event per node per
        // synchronization interval). Down nodes execute nothing.
        for id in 0..self.nodes.len() {
            let node_id = ReplicaId::from(id);
            if !self.alive[id] {
                continue;
            }
            let t_draw = Instant::now();
            let ops = workload.ops(node_id, self.round);
            rm.workload_nanos += t_draw.elapsed().as_nanos() as u64;
            for op in ops {
                let t0 = Instant::now();
                self.nodes[id].on_op(&op);
                rm.cpu_nanos += t0.elapsed().as_nanos() as u64;
            }
        }

        // Phase 2: synchronization step at every live node (senders keep
        // addressing their full neighbor list — crashes are not learned
        // synchronously).
        let mut outbox: Vec<(ReplicaId, P::Msg)> = Vec::new();
        for id in 0..self.nodes.len() {
            let node_id = ReplicaId::from(id);
            if !self.alive[id] {
                continue;
            }
            let t0 = Instant::now();
            self.nodes[id].on_sync(self.topology.neighbors(node_id), &mut outbox);
            rm.cpu_nanos += t0.elapsed().as_nanos() as u64;
            for (to, msg) in outbox.drain(..) {
                self.account(&mut rm, &msg);
                self.net.send(node_id, to, (node_id, msg));
            }
        }

        // Phase 3: deliver to quiescence (replies may generate replies —
        // Scuttlebutt's 3-message exchange completes here). Deliveries to
        // down nodes are discarded.
        while !self.net.is_idle() {
            for env in self.net.flush() {
                let (from, msg) = env.msg;
                let to = env.to;
                if !self.alive[to.index()] {
                    continue;
                }
                let t0 = Instant::now();
                self.nodes[to.index()].on_msg(from, msg, &mut outbox);
                rm.cpu_nanos += t0.elapsed().as_nanos() as u64;
                for (reply_to, reply) in outbox.drain(..) {
                    self.account(&mut rm, &reply);
                    self.net.send(to, reply_to, (to, reply));
                }
            }
        }

        // Phase 4: end-of-round memory snapshot (paper §V-B3: "during the
        // experiments, we periodically measure the amount of state").
        for (id, node) in self.nodes.iter().enumerate() {
            if !self.alive[id] {
                continue;
            }
            let m = node.memory(&self.model);
            rm.memory.crdt_elements += m.crdt_elements;
            rm.memory.crdt_bytes += m.crdt_bytes;
            rm.memory.meta_elements += m.meta_elements;
            rm.memory.meta_bytes += m.meta_bytes;
        }

        // One worker did everything: the critical path is the total work.
        rm.critical_path_nanos = rm.cpu_nanos;
        self.metrics.push_round(rm);
        self.round += 1;
        self.net.advance_round();
    }

    fn account(&self, rm: &mut RoundMetrics, msg: &P::Msg) {
        rm.messages += 1;
        rm.envelopes += 1;
        rm.payload_elements += msg.payload_elements();
        rm.payload_bytes += msg.payload_bytes(&self.model);
        rm.metadata_bytes += msg.metadata_bytes(&self.model);
    }

    /// After the workload ends, keep synchronizing (no new ops) until all
    /// live replicas agree: at most `max_rounds` idle rounds, `Some(extra)`
    /// iff they agree after `extra ≤ max_rounds` of them.
    pub fn run_to_convergence(&mut self, max_rounds: usize) -> Option<usize> {
        let mut idle = |_: ReplicaId, _: usize| -> Vec<C::Op> { Vec::new() };
        drive_to_convergence(self, max_rounds, Self::converged, |r| r.step(&mut idle))
    }
}

/// The one `run_to_convergence` contract, shared by [`Runner`] and
/// [`crate::ShardedEngineRunner`]: execute at most `max_rounds` idle
/// steps, stopping at the first agreement; `Some(extra)` iff the replicas
/// agree after `extra ≤ max_rounds` steps, `None` if they still disagree
/// once the budget is spent.
pub(crate) fn drive_to_convergence<R>(
    runner: &mut R,
    max_rounds: usize,
    converged: impl Fn(&R) -> bool,
    mut idle_step: impl FnMut(&mut R),
) -> Option<usize> {
    for extra in 0..max_rounds {
        if converged(runner) {
            return Some(extra);
        }
        idle_step(runner);
    }
    converged(runner).then_some(max_rounds)
}

/// Convenience: run `protocol` over `topology` with `workload` for
/// `rounds` rounds, then drive to convergence; panic if the replicas do
/// not converge. Returns the metrics.
pub fn run_experiment<C: Crdt, P: Protocol<C>>(
    topology: Topology,
    net_cfg: NetworkConfig,
    model: SizeModel,
    workload: &mut impl Workload<C>,
    rounds: usize,
) -> RunMetrics {
    let mut runner: Runner<C, P> = Runner::new(topology, net_cfg, model);
    runner.run(workload, rounds);
    let diameter_slack = runner.topology().diameter() * 4 + 16;
    runner
        .run_to_convergence(diameter_slack)
        .unwrap_or_else(|| {
            panic!(
                "{} did not converge within {} extra rounds",
                P::NAME,
                diameter_slack
            )
        });
    runner.into_metrics()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdt_sync::{
        BpRrDelta, ClassicDelta, OpBased, ProtocolKind, Scuttlebutt, ScuttlebuttGc, StateSync,
    };
    use crdt_types::{GSet, GSetOp};

    /// Each node adds one globally unique element per round (the paper's
    /// GSet micro-benchmark).
    fn unique_adds(n: usize) -> impl FnMut(ReplicaId, usize) -> Vec<GSetOp<u64>> {
        move |node: ReplicaId, round: usize| vec![GSetOp::Add((round * n + node.index()) as u64)]
    }

    fn total_expected(n: usize, rounds: usize) -> usize {
        n * rounds
    }

    macro_rules! converges {
        ($name:ident, $proto:ident) => {
            #[test]
            fn $name() {
                let n = 8;
                let rounds = 6;
                let topo = Topology::partial_mesh(n, 4);
                let mut runner: Runner<GSet<u64>, $proto<GSet<u64>>> =
                    Runner::new(topo, NetworkConfig::chaotic(7), SizeModel::compact());
                runner.run(&mut unique_adds(n), rounds);
                let extra = runner.run_to_convergence(64).expect("must converge");
                assert!(extra <= 64);
                let state = runner.node(ReplicaId(0)).state();
                assert_eq!(state.len(), total_expected(n, rounds));
            }
        };
    }

    converges!(state_sync_converges, StateSync);
    converges!(classic_delta_converges, ClassicDelta);
    converges!(bp_rr_delta_converges, BpRrDelta);
    converges!(scuttlebutt_converges, Scuttlebutt);
    converges!(scuttlebutt_gc_converges, ScuttlebuttGc);
    converges!(op_based_converges, OpBased);

    #[test]
    fn tree_topology_converges_too() {
        let n = 15;
        let topo = Topology::binary_tree(n);
        let mut runner: Runner<GSet<u64>, BpRrDelta<GSet<u64>>> =
            Runner::new(topo, NetworkConfig::reliable(3), SizeModel::compact());
        runner.run(&mut unique_adds(n), 5);
        runner.run_to_convergence(64).expect("tree convergence");
        assert_eq!(runner.node(ReplicaId(14)).state().len(), 75);
    }

    #[test]
    fn bp_rr_transmits_less_than_classic_on_mesh() {
        // The headline claim (Fig. 7): on a cyclic topology BP+RR beats
        // classic delta by a wide margin.
        let n = 15;
        let rounds = 20;
        let topo = Topology::partial_mesh(n, 4);
        let classic = run_experiment::<GSet<u64>, ClassicDelta<GSet<u64>>>(
            topo.clone(),
            NetworkConfig::reliable(1),
            SizeModel::compact(),
            &mut unique_adds(n),
            rounds,
        );
        let bprr = run_experiment::<GSet<u64>, BpRrDelta<GSet<u64>>>(
            topo,
            NetworkConfig::reliable(1),
            SizeModel::compact(),
            &mut unique_adds(n),
            rounds,
        );
        assert!(
            bprr.total_elements() * 2 < classic.total_elements(),
            "BP+RR {} vs classic {}",
            bprr.total_elements(),
            classic.total_elements()
        );
    }

    #[test]
    fn classic_is_no_better_than_state_based_on_mesh() {
        // The Fig. 1 anomaly: with updates every round, classic delta
        // transmits in the same ballpark as full-state gossip.
        let n = 15;
        let rounds = 20;
        let topo = Topology::partial_mesh(n, 4);
        let classic = run_experiment::<GSet<u64>, ClassicDelta<GSet<u64>>>(
            topo.clone(),
            NetworkConfig::reliable(1),
            SizeModel::compact(),
            &mut unique_adds(n),
            rounds,
        );
        let state = run_experiment::<GSet<u64>, StateSync<GSet<u64>>>(
            topo,
            NetworkConfig::reliable(1),
            SizeModel::compact(),
            &mut unique_adds(n),
            rounds,
        );
        let ratio = classic.total_elements() as f64 / state.total_elements() as f64;
        assert!(
            ratio > 0.5,
            "classic should be within the state-based ballpark, got ratio {ratio:.3}"
        );
    }

    #[test]
    fn crash_restart_bootstrap_reconverges() {
        // Durable and non-durable crashes of a BP+RR node: the restarted
        // node misses the deltas sent while it was down (buffers were
        // cleared into the void), so a bootstrap exchange with a live
        // peer is what restores convergence.
        for durable in [true, false] {
            let n = 6;
            let topo = Topology::partial_mesh(n, 4);
            let mut runner: Runner<GSet<u64>, BpRrDelta<GSet<u64>>> =
                Runner::new(topo, NetworkConfig::reliable(5), SizeModel::compact());
            runner.run(&mut unique_adds(n), 2);
            runner.crash_node(ReplicaId(3), durable);
            assert!(!runner.is_alive(ReplicaId(3)));
            runner.run(&mut unique_adds(n), 3);
            runner.restart_node(ReplicaId(3));
            runner.bootstrap_pair(ReplicaId(3), ReplicaId(0));
            runner
                .run_to_convergence(64)
                .unwrap_or_else(|| panic!("durable={durable}: no re-convergence"));
            assert_eq!(
                runner.node(ReplicaId(3)).state(),
                runner.node(ReplicaId(0)).state()
            );
        }
    }

    /// The generic runner and [`ProtocolKind`] expose the same protocol
    /// naming, so experiment tables line up across the two drivers.
    #[test]
    fn names_agree_with_protocol_kind() {
        assert_eq!(
            Runner::<GSet<u64>, BpRrDelta<GSet<u64>>>::protocol_name(),
            ProtocolKind::BpRr.name()
        );
        assert_eq!(
            Runner::<GSet<u64>, ClassicDelta<GSet<u64>>>::protocol_name(),
            ProtocolKind::Classic.name()
        );
    }

    #[test]
    fn metrics_record_rounds() {
        let n = 4;
        let topo = Topology::ring(n);
        let mut runner: Runner<GSet<u64>, BpRrDelta<GSet<u64>>> =
            Runner::new(topo, NetworkConfig::reliable(0), SizeModel::compact());
        runner.run(&mut unique_adds(n), 3);
        assert_eq!(runner.metrics().rounds.len(), 3);
        assert!(runner.metrics().total_messages() > 0);
        assert!(runner.metrics().total_elements() > 0);
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let run = |seed: u64| {
            let n = 6;
            let topo = Topology::partial_mesh(n, 4);
            run_experiment::<GSet<u64>, BpRrDelta<GSet<u64>>>(
                topo,
                NetworkConfig::chaotic(seed),
                SizeModel::compact(),
                &mut unique_adds(n),
                5,
            )
        };
        let (a, b) = (run(9), run(9));
        assert_eq!(a.total_elements(), b.total_elements());
        assert_eq!(a.total_bytes(), b.total_bytes());
        assert_eq!(a.total_messages(), b.total_messages());
    }
}
