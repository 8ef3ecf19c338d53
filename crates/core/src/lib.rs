//! # crdt-sync
//!
//! Synchronization algorithms for state-based CRDTs — the contribution of
//! *"Efficient Synchronization of State-based CRDTs"* (Enes, Almeida,
//! Baquero, Leitão — ICDE 2019) plus every baseline its evaluation
//! compares against:
//!
//! | Protocol | Paper role |
//! |---|---|
//! | [`ClassicDelta`] | classic delta-based synchronization \[13\], \[14\] |
//! | [`BpDelta`] | + avoid **b**ack-**p**ropagation of δ-groups (§IV) |
//! | [`RrDelta`] | + **r**emove **r**edundant received state via `Δ` (§IV) |
//! | [`BpRrDelta`] | both optimizations — the paper's proposal |
//! | [`StateSync`] | full-state baseline (§II) |
//! | [`Scuttlebutt`] / [`ScuttlebuttGc`] | anti-entropy baselines (§V-B) |
//! | [`OpBased`] | op-based causal middleware baseline (§V-B) |
//! | [`AckedDeltaSync`] | the sequence-number/ack variant for lossy channels (§IV footnote) |
//! | [`digest`] | state-driven / digest-driven pairwise repair (§VI, \[30\]) |
//!
//! All protocols implement [`Protocol`] and account transmission through
//! [`Measured`], so the simulator in `crdt-sim` reproduces the paper's
//! element/byte/memory/CPU measurements uniformly.
//!
//! ## The engine layer: runtime protocol selection
//!
//! [`Protocol`] is generic (associated `Msg` type, `const NAME`) and
//! therefore not object-safe; the [`engine`] module adds the type-erased
//! twin for deployments that pick the protocol at runtime:
//!
//! | Engine item | Role |
//! |---|---|
//! | [`SyncEngine`] | object-safe mirror of [`Protocol`] (`Box<dyn SyncEngine>`) |
//! | [`WireEnvelope`] | the one concrete message: encoded payload + [`WireAccounting`] |
//! | [`EngineAdapter`] | blanket bridge wrapping any wire-encodable `P: Protocol<C>` |
//! | [`ProtocolKind`] | the suite as a value — `"bp_rr".parse()`, `kind.name()` |
//! | [`build_engine`] | factory: `ProtocolKind` → boxed engine over any CRDT |
//!
//! Generic and erased paths are behaviorally identical (pinned by the
//! `engine_parity` property tests); the erased path additionally runs
//! every payload through [`crdt_lattice::codec`], so its
//! `WireAccounting::encoded_bytes` is a measurement of real bytes, not a
//! model. Use [`Protocol`] directly for monomorphized experiments, the
//! engine layer for runtime-configurable systems (`crdt-sim`'s
//! `ShardedEngineRunner`, `delta-store`); ARCHITECTURE.md has the full
//! decision guide.
//!
//! ```
//! use crdt_lattice::ReplicaId;
//! use crdt_sync::{build_engine, OpBytes, Params, ProtocolKind};
//! use crdt_types::{GSet, GSetOp};
//!
//! // Protocol chosen from a string — e.g. a `--protocol` CLI flag.
//! let kind: ProtocolKind = "scuttlebutt".parse().unwrap();
//! let mut engine = build_engine::<GSet<u64>>(kind, ReplicaId(0), &Params::new(3));
//! engine.on_op(&OpBytes::encode(&GSetOp::Add(1u64))).unwrap();
//! let digests = engine.on_sync(&[ReplicaId(1), ReplicaId(2)]);
//! assert_eq!(digests.len(), 2);
//! ```
//!
//! ## Example: the Fig. 4 anomaly in eight lines
//!
//! ```
//! use crdt_lattice::ReplicaId;
//! use crdt_sync::{ClassicDelta, BpRrDelta, Params, Protocol, Measured};
//! use crdt_types::{GSet, GSetOp};
//!
//! let p = Params::new(2);
//! let (a, b) = (ReplicaId(0), ReplicaId(1));
//! let mut classic: ClassicDelta<GSet<&str>> = Protocol::new(a, &p);
//! // B's delta arrives, then A synchronizes back towards B.
//! classic.on_op(&GSetOp::Add("a"));
//! let mut out = Vec::new();
//! classic.on_msg(b, crdt_sync::DeltaMsg(GSet::from_iter(["b"])), &mut out);
//! classic.on_sync(&[b], &mut out);
//! // Classic sends {a, b} back to B — the redundancy BP removes.
//! assert_eq!(out[0].1.payload_elements(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod acked;
mod buffer;
mod delta;
mod deltacrdt;
pub mod digest;
pub mod engine;
pub mod merkle;
mod opbased;
mod proto;
mod scuttlebutt;
mod stability;
mod state;
mod wire;

pub use acked::{AckedDeltaSync, AckedMsg};
pub use buffer::{DeltaBuffer, Entry, Origin};
pub use crdt_lattice::{BufferPool, Bytes};
pub use delta::{BpDelta, BpRrDelta, ClassicDelta, DeltaConfig, DeltaMsg, DeltaSync, RrDelta};
pub use deltacrdt::{
    DeltaCrdt, DeltaCrdtMsg, DeltaCrdtSmallLog, DeltaCrdtSync, DEFAULT_LOG_CAPACITY,
};
pub use engine::{
    build_engine, build_engine_send, build_engine_send_with_model, build_engine_with_model,
    state_hash_of, BatchEntries, BatchEnvelope, EngineAdapter, EngineError, EngineMetrics, OpBytes,
    ProtocolKind, SyncEngine, UnknownProtocol, WireAccounting, WireEnvelope, WireEnvelopeRef,
};
pub use merkle::{
    diff_keys, diverged_from_leaves, divergent_children, ChildList, DescentStats,
    DivergentChildren, LeafRepair, MerkleRepairMetrics, MerkleTree, RootDigest,
    DEFAULT_MERKLE_DEPTH, MAX_MERKLE_DEPTH, MERKLE_FANOUT, MERKLE_REPAIR_THRESHOLD,
};
pub use opbased::{OpBased, OpMsg, TaggedOp};
pub use proto::{Measured, MemoryUsage, Params, Protocol};
pub use scuttlebutt::{Knowledge, SbMsg, Scuttlebutt, ScuttlebuttCore, ScuttlebuttGc};
pub use stability::StabilityTracker;
pub use state::StateSync;
