//! The [`Protocol`] abstraction shared by every synchronization algorithm.
//!
//! A protocol instance lives at one replica. The simulator (or a real
//! transport) drives it through three callbacks:
//!
//! * [`Protocol::on_op`] — a local update operation happened;
//! * [`Protocol::on_sync`] — a periodic synchronization step fired
//!   (the paper's "periodically // synchronize", Algorithm 1 line 9);
//! * [`Protocol::on_msg`] — a message arrived from a neighbor.
//!
//! Messages implement [`Measured`] so transmission is accounted exactly
//! like the paper's evaluation: *payload* in elements (join-irreducibles;
//! Table I's "number of elements/entries") and bytes, and *metadata*
//! (digests, vectors, dots, sequence numbers) in bytes (Fig. 9).

use core::fmt::Debug;

use crdt_lattice::{ReplicaId, SizeModel};
use crdt_types::Crdt;

/// Per-protocol construction parameters.
///
/// `Params` is `#[non_exhaustive]` and built through a chainable
/// constructor so future knobs never break `Protocol::new` call sites:
///
/// ```
/// use crdt_sync::Params;
///
/// let p = Params::new(16).fan_out(4).sync_interval(2);
/// assert_eq!(p.n_nodes, 16);
/// assert_eq!(p.fan_out, Some(4));
/// assert_eq!(p.sync_interval, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct Params {
    /// Total number of replicas in the system.
    ///
    /// Only vector-based protocols need this (e.g. Scuttlebutt-GC's
    /// knowledge matrix spans all nodes); delta-based protocols ignore it —
    /// that asymmetry *is* the paper's metadata argument (§V-B2).
    pub n_nodes: usize,

    /// Cap on how many neighbors one synchronization step addresses.
    ///
    /// `None` (the default) synchronizes with every neighbor, the paper's
    /// experiment loop. Drivers that support it (`crdt-sim`'s
    /// `ShardedEngineRunner`) rotate deterministically through the
    /// neighbor list so a capped replica still addresses everyone over
    /// successive rounds.
    ///
    /// Meant for anti-entropy protocols (Scuttlebutt keeps its key-delta
    /// store, so partial gossip loses nothing). The Algorithm-1 delta
    /// variants clear their δ-buffer after *every* sync step, so capping
    /// their fan-out silently drops deltas for the unaddressed neighbors —
    /// exactly the lossy-channel situation the acked variant exists for.
    pub fan_out: Option<usize>,

    /// Rounds between synchronization steps (`1` = every round, the
    /// paper's loop). Interval-aware drivers skip `on_sync` on off
    /// rounds; deltas keep accumulating in the buffers meanwhile.
    pub sync_interval: usize,

    /// Enable causal-stability-driven compaction (off by default).
    ///
    /// When set, protocols that otherwise grow without bound opt into
    /// the extra bookkeeping their [`Protocol::compact`] hook needs —
    /// plain Scuttlebutt starts tracking the peer clocks it already
    /// receives so stable store entries can be pruned on demand. Off,
    /// every protocol behaves (and accounts memory) exactly as the
    /// paper's evaluation measures it.
    pub compaction: bool,
}

impl Params {
    /// Parameters for an `n`-node system, with default knobs: unlimited
    /// fan-out, synchronization every round.
    pub const fn new(n_nodes: usize) -> Self {
        Params {
            n_nodes,
            fan_out: None,
            sync_interval: 1,
            compaction: false,
        }
    }

    /// Cap synchronization fan-out per step.
    pub const fn fan_out(mut self, fan_out: usize) -> Self {
        self.fan_out = Some(fan_out);
        self
    }

    /// Set the number of rounds between synchronization steps.
    pub const fn sync_interval(mut self, interval: usize) -> Self {
        self.sync_interval = interval;
        self
    }

    /// Enable causal-stability-driven compaction (see
    /// [`Params::compaction`]).
    pub const fn compaction(mut self) -> Self {
        self.compaction = true;
        self
    }
}

/// Transmission accounting for one message.
pub trait Measured {
    /// Number of lattice elements (join-irreducibles) of CRDT payload.
    fn payload_elements(&self) -> u64;

    /// Bytes of CRDT payload under `model`.
    fn payload_bytes(&self, model: &SizeModel) -> u64;

    /// Bytes of synchronization metadata (vectors, digests, dots, acks)
    /// under `model`.
    fn metadata_bytes(&self, model: &SizeModel) -> u64;

    /// Total wire size.
    fn total_bytes(&self, model: &SizeModel) -> u64 {
        self.payload_bytes(model) + self.metadata_bytes(model)
    }
}

/// Memory snapshot of one replica (paper, §V-B3: "the amount of state —
/// both CRDT state and metadata required for synchronization — stored in
/// memory for each node").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryUsage {
    /// Elements in the replica's CRDT lattice state.
    pub crdt_elements: u64,
    /// Bytes of the replica's CRDT lattice state.
    pub crdt_bytes: u64,
    /// Elements held in synchronization buffers (δ-buffer, key-delta
    /// store, transmission buffer).
    pub meta_elements: u64,
    /// Bytes of synchronization metadata and buffered state.
    pub meta_bytes: u64,
}

impl MemoryUsage {
    /// Total elements (CRDT + buffered).
    pub fn total_elements(&self) -> u64 {
        self.crdt_elements + self.meta_elements
    }

    /// Total bytes (CRDT + metadata).
    pub fn total_bytes(&self) -> u64 {
        self.crdt_bytes + self.meta_bytes
    }
}

/// A synchronization protocol instance at one replica.
pub trait Protocol<C: Crdt>: Debug {
    /// Wire message type.
    type Msg: Clone + Debug + Measured;

    /// Human-readable protocol name (used in experiment output).
    const NAME: &'static str;

    /// Create the replica `id` of an `params.n_nodes`-node system.
    fn new(id: ReplicaId, params: &Params) -> Self;

    /// Handle a local update operation.
    fn on_op(&mut self, op: &C::Op);

    /// Periodic synchronization step: emit messages to (a subset of)
    /// `neighbors`.
    fn on_sync(&mut self, neighbors: &[ReplicaId], out: &mut Vec<(ReplicaId, Self::Msg)>);

    /// Handle a message from `from`; may emit replies (push-pull
    /// protocols) into `out`.
    fn on_msg(&mut self, from: ReplicaId, msg: Self::Msg, out: &mut Vec<(ReplicaId, Self::Msg)>);

    /// The replica's current lattice state.
    fn state(&self) -> &C;

    /// Memory snapshot under `model`.
    fn memory(&self, model: &SizeModel) -> MemoryUsage;

    /// The system parameters changed mid-run (a replica joined). The
    /// default is a no-op; protocols whose *safety* depends on the
    /// system size must react — Scuttlebutt-GC's safe-delete rule prunes
    /// once "every node" has seen a delta, and an under-counted
    /// membership prunes deltas a joiner has not seen yet, with no
    /// recovery path (plain Scuttlebutt never re-ships pruned entries).
    fn on_params_change(&mut self, _params: &Params) {}

    /// Discard synchronization metadata that is **causally stable** —
    /// entries every replica is known to have seen, which therefore can
    /// never be needed again. Returns the number of pruned entries.
    ///
    /// The default prunes nothing: the Algorithm-1 delta variants clear
    /// their δ-buffer every sync step and the state baseline holds no
    /// metadata, so only the history-keeping protocols (Scuttlebutt,
    /// op-based, acked) override it. Compaction never changes the
    /// replica's lattice state, only bounded-liveness metadata, so
    /// convergence is unaffected — the invariant the repair-parity
    /// proptests pin.
    fn compact(&mut self) -> u64 {
        0
    }

    /// Absorb an out-of-band state transfer from `source` — the bootstrap
    /// half of crash-recovery and join-with-bootstrap.
    ///
    /// After the call this replica's lattice state covers `source`'s, and
    /// any protocol metadata needed for the snapshot to keep flowing
    /// (δ-buffers, version vectors, delivery clocks, …) is consistent with
    /// it: a replica restarted from scratch can be pointed at a live peer
    /// and rejoin synchronization without replaying history.
    ///
    /// Implementations route the snapshot through their ordinary receive
    /// machinery where possible, so for buffering protocols the absorbed
    /// novelty is re-buffered and propagates onward to other neighbors.
    fn bootstrap(&mut self, source: &Self)
    where
        Self: Sized;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_usage_totals() {
        let m = MemoryUsage {
            crdt_elements: 3,
            crdt_bytes: 24,
            meta_elements: 2,
            meta_bytes: 100,
        };
        assert_eq!(m.total_elements(), 5);
        assert_eq!(m.total_bytes(), 124);
    }

    #[test]
    fn params_carry_system_size() {
        assert_eq!(Params::new(15).n_nodes, 15);
        assert_eq!(Params::new(15).fan_out(3).fan_out, Some(3));
        assert_eq!(Params::new(15).sync_interval(4).sync_interval, 4);
        assert!(!Params::new(15).compaction);
        assert!(Params::new(15).compaction().compaction);
    }
}
