//! Fault & churn scenarios: time-indexed schedules of membership and
//! network events, driven against [`ShardedEngineRunner`].
//!
//! The paper evaluates a fixed 15-node topology over a network that may
//! "drop, duplicate, and reorder" uniformly. Production systems face a
//! harsher regime — partitions that heal, nodes that crash (with or
//! without their disk), replicas that join mid-run, links that flap.
//! This module makes those regimes first-class:
//!
//! * [`ScenarioEvent`] — one fault/membership transition;
//! * [`ScenarioSchedule`] — events keyed by simulation round, with
//!   range-based builders and four built-in scenarios
//!   (`partition_heal`, `churn`, `flapping_link`, `rolling_restart`);
//! * [`run_scenario`] — drives any [`crdt_sync::ProtocolKind`] through a
//!   schedule, at any object granularity and thread count, and reports
//!   a [`ScenarioOutcome`]: convergence rounds, bytes to re-converge,
//!   repair traffic, and staleness windows — the quantities
//!   `crdt-bench`'s `scenarios` experiment family records in
//!   `BENCH_scenarios.json`.
//!
//! **Clock semantics.** Events scheduled at round `r` are applied *before*
//! round `r` executes (a partition scheduled at 5 blocks round 5's
//! traffic). Events scheduled at or past the schedule's round count fire
//! after the workload, before convergence is driven. The network's
//! per-link fault windows ([`crate::network::LinkFault`]) advance on the
//! same clock.
//!
//! **Repair policy.** Kinds that
//! [`crdt_sync::ProtocolKind::recovers_from_loss`] (Scuttlebutt variants,
//! the acked delta) are left to their own metadata. The rest get the
//! paper's §VI medicine at the disruption boundary: digest-driven pairwise
//! repair for δ-group kinds, bootstrap state transfer otherwise — all
//! charged to the outcome's repair accounting, so the BP/RR ablation
//! extends honestly into fault regimes the paper never measured.

use crdt_lattice::{ReplicaId, SizeModel, Sizeable, WireEncode};
use crdt_sync::ProtocolKind;
use crdt_types::Crdt;

use std::collections::BTreeMap;
use std::ops::Range;

use crate::network::{LinkFault, NetworkConfig};
use crate::sharded_engine::{KeyedOp, ShardedEngineRunner};
use crate::topology::Topology;

/// One fault or membership transition.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// Split the cluster: each entry of `groups` is one side; unlisted
    /// nodes form the implicit last side. Cross-side traffic is dropped.
    Partition {
        /// Partition sides, as node indices.
        groups: Vec<Vec<usize>>,
    },
    /// Remove the active partition and run the repair policy.
    Heal,
    /// Take `node` down. `durable: true` keeps its state for the restart
    /// (process crash, disk intact); `durable: false` wipes it (cold
    /// restart from `⊥`).
    Crash {
        /// The crashing node.
        node: usize,
        /// Does the node's state survive the crash?
        durable: bool,
    },
    /// Bring a crashed `node` back, repairing/bootstrapping per policy.
    Restart {
        /// The restarting node.
        node: usize,
    },
    /// A new replica joins, linked to `links`, bootstrapped from
    /// `bootstrap`.
    Join {
        /// Existing nodes the joiner links to.
        links: Vec<usize>,
        /// The live peer whose snapshot seeds the joiner.
        bootstrap: usize,
    },
    /// Overlay a fault on both directions of the edge `a ↔ b`.
    LinkFault {
        /// One end of the edge.
        a: usize,
        /// The other end.
        b: usize,
        /// Drop/duplicate/reorder configuration.
        fault: LinkFault,
    },
    /// Clear the fault overlay from `a ↔ b` and repair the pair if the
    /// protocol cannot recover lost messages on its own.
    LinkHeal {
        /// One end of the edge.
        a: usize,
        /// The other end.
        b: usize,
    },
}

/// A named, time-indexed schedule of [`ScenarioEvent`]s over a fixed
/// number of workload rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSchedule {
    name: String,
    rounds: usize,
    events: BTreeMap<usize, Vec<ScenarioEvent>>,
}

impl ScenarioSchedule {
    /// Names of the built-in scenarios accepted by
    /// [`ScenarioSchedule::builtin`].
    pub const BUILTIN_NAMES: [&'static str; 4] = [
        "partition_heal",
        "churn",
        "flapping_link",
        "rolling_restart",
    ];

    /// An empty schedule named `name`, spanning `rounds` workload rounds.
    pub fn new(name: impl Into<String>, rounds: usize) -> Self {
        ScenarioSchedule {
            name: name.into(),
            rounds,
            events: BTreeMap::new(),
        }
    }

    /// Schedule `event` at `round` (applied before that round runs).
    pub fn at(mut self, round: usize, event: ScenarioEvent) -> Self {
        self.events.entry(round).or_default().push(event);
        self
    }

    /// Partition into `groups` for the round range, healing at its end.
    pub fn partition_during(self, range: Range<usize>, groups: Vec<Vec<usize>>) -> Self {
        self.at(range.start, ScenarioEvent::Partition { groups })
            .at(range.end, ScenarioEvent::Heal)
    }

    /// Crash `node` for the round range, restarting at its end.
    pub fn crash_during(self, range: Range<usize>, node: usize, durable: bool) -> Self {
        self.at(range.start, ScenarioEvent::Crash { node, durable })
            .at(range.end, ScenarioEvent::Restart { node })
    }

    /// Fault the edge `a ↔ b` for the round range, healing at its end.
    pub fn link_fault_during(
        self,
        range: Range<usize>,
        a: usize,
        b: usize,
        fault: LinkFault,
    ) -> Self {
        self.at(range.start, ScenarioEvent::LinkFault { a, b, fault })
            .at(range.end, ScenarioEvent::LinkHeal { a, b })
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Workload rounds the scenario spans.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Events scheduled at exactly `round`.
    pub fn events_at(&self, round: usize) -> &[ScenarioEvent] {
        self.events.get(&round).map_or(&[], Vec::as_slice)
    }

    /// Events scheduled at or after `round` (boundary events fired after
    /// the workload, before convergence), in round order.
    pub fn events_from(&self, round: usize) -> impl Iterator<Item = &ScenarioEvent> {
        self.events.range(round..).flat_map(|(_, evs)| evs.iter())
    }

    /// Build a named built-in scenario for an `n`-node cluster over
    /// `rounds` workload rounds; `None` for unknown names.
    ///
    /// | name | shape |
    /// |---|---|
    /// | `partition_heal` | cluster splits in half at ¼, heals at ¾ |
    /// | `churn` | a durable crash/restart, a non-durable one, and a join |
    /// | `flapping_link` | edge 0↔1 flaps lossy (drop+dup+reorder) 3× |
    /// | `rolling_restart` | every node durably restarted, one at a time |
    pub fn builtin(name: &str, n: usize, rounds: usize) -> Option<Self> {
        assert!(n >= 4, "built-in scenarios need ≥ 4 nodes");
        assert!(rounds >= 8, "built-in scenarios need ≥ 8 rounds");
        Some(match name {
            "partition_heal" => {
                let left: Vec<usize> = (0..n / 2).collect();
                ScenarioSchedule::new(name, rounds)
                    .partition_during(rounds / 4..3 * rounds / 4, vec![left])
            }
            "churn" => ScenarioSchedule::new(name, rounds)
                .crash_during(rounds / 5..2 * rounds / 5, 1, true)
                .crash_during(2 * rounds / 5..3 * rounds / 5, 2, false)
                .at(
                    3 * rounds / 5,
                    ScenarioEvent::Join {
                        links: vec![0, n - 1],
                        bootstrap: 0,
                    },
                ),
            "flapping_link" => {
                let fault = LinkFault::flaky(0.5, 0.2);
                let mut s = ScenarioSchedule::new(name, rounds);
                // Three on/off cycles across the run, healed at the end.
                let phase = (rounds / 6).max(1);
                for cycle in 0..3 {
                    let start = 2 * cycle * phase;
                    s = s.link_fault_during(start..start + phase, 0, 1, fault);
                }
                s
            }
            "rolling_restart" => {
                let gap = (rounds / (n + 1)).max(2);
                let mut s = ScenarioSchedule::new(name, rounds);
                for node in 0..n {
                    let start = node * gap;
                    s = s.crash_during(start..start + gap.div_ceil(2), node, true);
                }
                s
            }
            _ => return None,
        })
    }
}

/// What a scenario run measured — the per-protocol row of
/// `BENCH_scenarios.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Protocol driven through it.
    pub protocol: ProtocolKind,
    /// Workload rounds executed.
    pub workload_rounds: usize,
    /// Extra idle rounds until all live replicas agreed, `None` if
    /// convergence was never reached within the slack budget.
    pub convergence_rounds: Option<usize>,
    /// Total protocol traffic over the whole run (model bytes).
    pub total_bytes: u64,
    /// Total transmitted lattice elements.
    pub total_elements: u64,
    /// Total protocol messages.
    pub total_messages: u64,
    /// Protocol bytes spent *after* the workload ended, driving the
    /// cluster back to agreement.
    pub bytes_to_reconverge: u64,
    /// Out-of-band repair/bootstrap messages (digest repair sessions and
    /// snapshot transfers).
    pub repair_messages: u64,
    /// Lattice elements shipped by repair/bootstrap.
    pub repair_elements: u64,
    /// Repair payload + digest bytes.
    pub repair_bytes: u64,
    /// Messages lost to faults: discarded by crashes and partitions,
    /// plus messages the fabric dropped (global `drop_prob` and
    /// per-link fault overlays — the flapping-link loss shows up here).
    pub undeliverable: u64,
    /// Workload rounds that ended with live replicas disagreeing.
    pub staleness_rounds: usize,
    /// Longest consecutive run of disagreeing rounds, including the
    /// convergence tail.
    pub max_staleness_window: usize,
    /// Cluster size at the end (joins included).
    pub final_nodes: usize,
    /// Did the run end converged?
    pub converged: bool,
}

/// Drive `kind` over `topology` through `schedule`, then to convergence,
/// at whatever granularity `K` names (`()` for one object per node) on
/// `threads` workers.
///
/// `workload(node, round)` keeps producing keyed operations for every
/// **live** node during the whole schedule (crashed nodes execute
/// nothing); after the last round, boundary events fire and the runner
/// synchronizes idle rounds until all live replicas agree, up to a slack
/// budget derived from the topology diameter.
pub fn run_scenario<K, C>(
    kind: ProtocolKind,
    topology: Topology,
    schedule: &ScenarioSchedule,
    net_cfg: NetworkConfig,
    model: SizeModel,
    threads: usize,
    workload: &mut impl FnMut(ReplicaId, usize) -> Vec<KeyedOp<K, C>>,
) -> ScenarioOutcome
where
    K: Ord
        + Clone
        + core::fmt::Debug
        + Sizeable
        + std::hash::Hash
        + WireEncode
        + Send
        + Sync
        + 'static,
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + Sync + 'static,
{
    let mut runner: ShardedEngineRunner<K, C> =
        ShardedEngineRunner::new(kind, topology, net_cfg, model, threads);

    let mut staleness_rounds = 0usize;
    let mut window = 0usize;
    let mut max_window = 0usize;
    for round in 0..schedule.rounds() {
        for event in schedule.events_at(round) {
            runner.apply_event(event);
        }
        runner.step_with(workload);
        if runner.converged() {
            window = 0;
        } else {
            staleness_rounds += 1;
            window += 1;
            max_window = max_window.max(window);
        }
    }
    for event in schedule.events_from(schedule.rounds()) {
        runner.apply_event(event);
    }

    let bytes_before = runner.metrics().total_bytes();
    let slack = runner.topology().diameter() * 6 + 32;
    // The staleness window keeps counting through the convergence tail —
    // including the case where it never closes within the slack budget.
    let convergence_rounds = runner.run_to_convergence(slack);
    max_window = max_window.max(window + convergence_rounds.unwrap_or(slack));

    let repair = runner.repair_stats();
    let metrics = runner.metrics();
    ScenarioOutcome {
        scenario: schedule.name().to_string(),
        protocol: kind,
        workload_rounds: schedule.rounds(),
        convergence_rounds,
        total_bytes: metrics.total_bytes() + repair.payload_bytes + repair.metadata_bytes,
        total_elements: metrics.total_elements() + repair.payload_elements,
        total_messages: metrics.total_messages() + u64::from(repair.messages),
        bytes_to_reconverge: metrics.total_bytes() - bytes_before,
        repair_messages: u64::from(repair.messages),
        repair_elements: repair.payload_elements,
        repair_bytes: repair.payload_bytes + repair.metadata_bytes,
        undeliverable: runner.undeliverable(),
        staleness_rounds,
        max_staleness_window: max_window,
        final_nodes: runner.membership().len(),
        converged: convergence_rounds.is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdt_types::{GSet, GSetOp};

    /// Each live node adds one globally unique element per round to the
    /// single object.
    fn unique_adds(stride: usize) -> impl FnMut(ReplicaId, usize) -> Vec<((), GSetOp<u64>)> {
        move |node: ReplicaId, round: usize| {
            vec![((), GSetOp::Add((round * stride + node.index()) as u64))]
        }
    }

    fn run(kind: ProtocolKind, name: &str) -> ScenarioOutcome {
        let n = 6;
        let rounds = 12;
        let schedule = ScenarioSchedule::builtin(name, n, rounds).expect("known scenario");
        run_scenario::<(), GSet<u64>>(
            kind,
            Topology::partial_mesh(n, 4),
            &schedule,
            NetworkConfig::reliable(7),
            SizeModel::compact(),
            1,
            &mut unique_adds(64),
        )
    }

    #[test]
    fn every_kind_survives_every_builtin_scenario() {
        for name in ScenarioSchedule::BUILTIN_NAMES {
            for kind in ProtocolKind::ALL {
                let outcome = run(kind, name);
                assert!(
                    outcome.converged,
                    "{kind} did not re-converge under {name}: {outcome:?}"
                );
                assert!(outcome.total_messages > 0, "{kind}/{name} sent nothing");
            }
        }
    }

    #[test]
    fn partition_causes_staleness_then_heals() {
        let outcome = run(ProtocolKind::BpRr, "partition_heal");
        assert!(outcome.converged);
        assert!(
            outcome.staleness_rounds > 0,
            "the cut must show up as staleness: {outcome:?}"
        );
        assert!(
            outcome.repair_bytes > 0,
            "delta family needs repair traffic after a heal"
        );
        assert!(outcome.undeliverable > 0, "cross-cut traffic was dropped");
    }

    #[test]
    fn scuttlebutt_heals_partitions_without_repair() {
        let outcome = run(ProtocolKind::Scuttlebutt, "partition_heal");
        assert!(outcome.converged);
        assert_eq!(
            outcome.repair_bytes, 0,
            "anti-entropy recovers on its own: {outcome:?}"
        );
    }

    #[test]
    fn churn_grows_the_cluster() {
        let outcome = run(ProtocolKind::BpRr, "churn");
        assert!(outcome.converged);
        assert_eq!(outcome.final_nodes, 7, "the join added a node");
    }

    #[test]
    fn acked_flapping_link_recovers_without_repair() {
        let outcome = run(ProtocolKind::Acked, "flapping_link");
        assert!(outcome.converged);
        assert_eq!(outcome.repair_bytes, 0, "acked retransmits by itself");
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = run(ProtocolKind::BpRr, "rolling_restart");
        let b = run(ProtocolKind::BpRr, "rolling_restart");
        assert_eq!(a, b);
    }

    #[test]
    fn schedule_builders_place_events() {
        let s = ScenarioSchedule::new("custom", 10)
            .partition_during(2..6, vec![vec![0, 1]])
            .crash_during(4..8, 3, false);
        assert_eq!(s.events_at(2).len(), 1);
        assert!(matches!(s.events_at(6)[0], ScenarioEvent::Heal));
        assert!(matches!(
            s.events_at(4)[0],
            ScenarioEvent::Crash {
                node: 3,
                durable: false
            }
        ));
        assert_eq!(s.events_from(8).count(), 1, "restart at 8");
        assert!(ScenarioSchedule::builtin("bogus", 6, 12).is_none());
    }
}
