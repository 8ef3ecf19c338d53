//! The type-erased engine layer: runtime-selectable synchronization over
//! a unified wire envelope.
//!
//! [`Protocol`] is deliberately *not* object-safe — it has an associated
//! `Msg` type and a `const NAME` — so every consumer must be
//! monomorphized per protocol. That is the right shape for experiments
//! (zero dispatch overhead, exact message types), but a production system
//! wants one replica/network substrate serving *any* of the paper's
//! protocols, chosen at deploy time. This module provides that shape:
//!
//! * [`SyncEngine`] — an object-safe mirror of [`Protocol`] whose
//!   messages are one concrete type, [`WireEnvelope`]: real encoded bytes
//!   (via [`crdt_lattice::WireEncode`]) plus a [`WireAccounting`] block
//!   carrying both the paper's [`SizeModel`]-based numbers and the true
//!   encoded length;
//! * [`EngineAdapter`] — the blanket bridge wrapping any
//!   `P: Protocol<C>` whose messages and operations are wire-encodable;
//! * [`ProtocolKind`] — the closed set of the paper's protocols, parsed
//!   from strings (`"bp_rr"`, `"scuttlebutt-gc"`, …) for CLI/runtime
//!   selection;
//! * [`build_engine`] — the factory producing a `Box<dyn SyncEngine>`
//!   for any kind over any wire-encodable CRDT.
//!
//! Generic and erased paths are behaviorally identical — the parity
//! property test in `tests/engine_parity.rs` drives both through the same
//! schedule and asserts identical lattice states and element counts. See
//! `ARCHITECTURE.md` for when to use which.

use core::cell::Cell;
use core::fmt;
use std::any::Any;
use std::marker::PhantomData;
use std::str::FromStr;

use crdt_lattice::codec::{get_uvarint, put_uvarint};
use crdt_lattice::{BufferPool, Bytes, CodecError, ReplicaId, SizeModel, WireEncode};
use crdt_types::Crdt;

use crate::acked::AckedDeltaSync;
use crate::delta::{BpDelta, BpRrDelta, ClassicDelta, RrDelta};
use crate::opbased::OpBased;
use crate::proto::{Measured, MemoryUsage, Params, Protocol};
use crate::scuttlebutt::{Scuttlebutt, ScuttlebuttGc};
use crate::state::StateSync;

/// Deterministic 64-bit hash of a lattice state: `DefaultHasher` over
/// the `Debug` rendering — the same convention the §VI digest uses for
/// join-irreducibles. `Debug` for the workspace's lattice types is a
/// faithful canonical form (ordered containers), and `DefaultHasher`'s
/// keys are constants, so the hash agrees across replicas, threads, and
/// processes — the property Merkle anti-entropy and the net probe
/// reports both rely on.
pub fn state_hash_of<C: fmt::Debug>(state: &C) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{state:?}").hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------------
// ProtocolKind
// ---------------------------------------------------------------------------

/// The paper's protocol suite as a runtime value.
///
/// Parsed from strings for CLI selection; [`ProtocolKind::name`] matches
/// the `Protocol::NAME` labels used in experiment output, so figures keyed
/// by either agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtocolKind {
    /// Classic delta-based synchronization (`"delta"`).
    Classic,
    /// Delta + avoid back-propagation (`"delta+BP"`).
    Bp,
    /// Delta + remove redundant received state (`"delta+RR"`).
    Rr,
    /// Both optimizations — the paper's proposal (`"delta+BP+RR"`).
    BpRr,
    /// Full-state gossip baseline (`"state"`).
    State,
    /// Scuttlebutt anti-entropy (`"scuttlebutt"`).
    Scuttlebutt,
    /// Scuttlebutt with safe delta deletion (`"scuttlebutt-gc"`).
    ScuttlebuttGc,
    /// Op-based causal middleware baseline (`"op-based"`).
    OpBased,
    /// Acked delta variant for lossy channels (`"delta+BP+RR (acked)"`).
    Acked,
}

impl ProtocolKind {
    /// Every kind, in the order the paper's figures list them.
    pub const ALL: [ProtocolKind; 9] = [
        ProtocolKind::State,
        ProtocolKind::Classic,
        ProtocolKind::Bp,
        ProtocolKind::Rr,
        ProtocolKind::BpRr,
        ProtocolKind::Scuttlebutt,
        ProtocolKind::ScuttlebuttGc,
        ProtocolKind::OpBased,
        ProtocolKind::Acked,
    ];

    /// Display label, identical to the wrapped `Protocol::NAME`.
    pub const fn name(self) -> &'static str {
        match self {
            ProtocolKind::Classic => "delta",
            ProtocolKind::Bp => "delta+BP",
            ProtocolKind::Rr => "delta+RR",
            ProtocolKind::BpRr => "delta+BP+RR",
            ProtocolKind::State => "state",
            ProtocolKind::Scuttlebutt => "scuttlebutt",
            ProtocolKind::ScuttlebuttGc => "scuttlebutt-gc",
            ProtocolKind::OpBased => "op-based",
            ProtocolKind::Acked => "delta+BP+RR (acked)",
        }
    }

    /// CLI-friendly identifier (`snake_case`, accepted by [`FromStr`]).
    pub const fn id(self) -> &'static str {
        match self {
            ProtocolKind::Classic => "classic",
            ProtocolKind::Bp => "bp",
            ProtocolKind::Rr => "rr",
            ProtocolKind::BpRr => "bp_rr",
            ProtocolKind::State => "state",
            ProtocolKind::Scuttlebutt => "scuttlebutt",
            ProtocolKind::ScuttlebuttGc => "scuttlebutt_gc",
            ProtocolKind::OpBased => "op_based",
            ProtocolKind::Acked => "acked",
        }
    }

    /// Is this one of the four Algorithm-1 delta variants (whose wire
    /// message is a bare δ-group)? `state` shares that message shape.
    pub const fn is_delta_family(self) -> bool {
        matches!(
            self,
            ProtocolKind::Classic | ProtocolKind::Bp | ProtocolKind::Rr | ProtocolKind::BpRr
        )
    }

    /// Does the engine's wire message decode as a bare δ-group
    /// ([`crate::DeltaMsg`])? True for the delta family and `state`, the
    /// kinds eligible for digest-driven repair injection.
    pub const fn accepts_raw_delta(self) -> bool {
        self.is_delta_family() || matches!(self, ProtocolKind::State)
    }

    /// Does the protocol *detect and recover* lost messages on its own?
    ///
    /// True for the kinds that carry recovery metadata: Scuttlebutt's
    /// summary vectors re-request anything a dropped message carried, and
    /// the acked variant retransmits until acknowledged. Everything else
    /// assumes reliable channels — the Algorithm-1 delta family clears
    /// its δ-buffer after sending, `state` relies on a dirty flag that a
    /// lost send can strand, and the op-based middleware prunes its
    /// transmission buffer on sync — so after a partition, crash, or
    /// lossy-link episode those kinds need out-of-band repair
    /// (digest-driven or bootstrap; see `crdt-sim`'s scenario layer).
    pub const fn recovers_from_loss(self) -> bool {
        matches!(
            self,
            ProtocolKind::Scuttlebutt | ProtocolKind::ScuttlebuttGc | ProtocolKind::Acked
        )
    }

    const fn wire_tag(self) -> u8 {
        match self {
            ProtocolKind::Classic => 0,
            ProtocolKind::Bp => 1,
            ProtocolKind::Rr => 2,
            ProtocolKind::BpRr => 3,
            ProtocolKind::State => 4,
            ProtocolKind::Scuttlebutt => 5,
            ProtocolKind::ScuttlebuttGc => 6,
            ProtocolKind::OpBased => 7,
            ProtocolKind::Acked => 8,
        }
    }

    const fn from_wire_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => ProtocolKind::Classic,
            1 => ProtocolKind::Bp,
            2 => ProtocolKind::Rr,
            3 => ProtocolKind::BpRr,
            4 => ProtocolKind::State,
            5 => ProtocolKind::Scuttlebutt,
            6 => ProtocolKind::ScuttlebuttGc,
            7 => ProtocolKind::OpBased,
            8 => ProtocolKind::Acked,
            _ => return None,
        })
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl WireEncode for ProtocolKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.wire_tag());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (&tag, rest) = input.split_first().ok_or(CodecError::UnexpectedEnd)?;
        *input = rest;
        ProtocolKind::from_wire_tag(tag).ok_or(CodecError::BadDiscriminant(tag))
    }
}

/// Failure to parse a [`ProtocolKind`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownProtocol(pub String);

impl fmt::Display for UnknownProtocol {
    /// Lists every accepted spelling — both the CLI ids and the paper's
    /// figure labels — so a typoed `--protocol` flag teaches its own fix.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown protocol {:?} (expected one of: ", self.0)?;
        for (i, k) in ProtocolKind::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{} [{}]", k.id(), k.name())?;
        }
        f.write_str("; matching is case-insensitive)")
    }
}

impl std::error::Error for UnknownProtocol {}

impl FromStr for ProtocolKind {
    type Err = UnknownProtocol;

    /// Accepts the CLI ids (`bp_rr`), the figure labels (`delta+BP+RR`),
    /// and common separators/case variants (`BP-RR`, `bprr`).
    fn from_str(s: &str) -> Result<Self, UnknownProtocol> {
        let norm: String = s
            .chars()
            .filter(|c| !matches!(c, '_' | '-' | '+' | ' ' | '(' | ')'))
            .collect::<String>()
            .to_ascii_lowercase();
        Ok(match norm.as_str() {
            "classic" | "delta" | "classicdelta" => ProtocolKind::Classic,
            "bp" | "deltabp" | "bpdelta" => ProtocolKind::Bp,
            "rr" | "deltarr" | "rrdelta" => ProtocolKind::Rr,
            "bprr" | "deltabprr" | "bprrdelta" => ProtocolKind::BpRr,
            "state" | "statesync" | "statebased" => ProtocolKind::State,
            "scuttlebutt" | "sb" => ProtocolKind::Scuttlebutt,
            "scuttlebuttgc" | "sbgc" => ProtocolKind::ScuttlebuttGc,
            "opbased" | "op" => ProtocolKind::OpBased,
            "acked" | "deltabprracked" | "ackeddelta" => ProtocolKind::Acked,
            _ => return Err(UnknownProtocol(s.to_string())),
        })
    }
}

// ---------------------------------------------------------------------------
// Wire envelope
// ---------------------------------------------------------------------------

/// Transmission accounting attached to a [`WireEnvelope`].
///
/// Carries *both* cost views: the paper's analytic [`SizeModel`] numbers
/// (`payload_bytes`/`metadata_bytes`, for reproducing the figures'
/// shapes) and the honest length of the encoded payload as it would cross
/// a socket (`encoded_bytes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireAccounting {
    /// Lattice elements (join-irreducibles) of CRDT payload.
    pub payload_elements: u64,
    /// Bytes of CRDT payload under the engine's [`SizeModel`].
    pub payload_bytes: u64,
    /// Bytes of synchronization metadata under the engine's [`SizeModel`].
    pub metadata_bytes: u64,
    /// Actual length of [`WireEnvelope::payload`] — what a byte transport
    /// really ships.
    pub encoded_bytes: u64,
}

impl WireAccounting {
    /// Model-view total (payload + metadata), the paper's transmission
    /// metric.
    pub fn total_bytes(&self) -> u64 {
        self.payload_bytes + self.metadata_bytes
    }
}

/// The single concrete message type of the engine layer.
///
/// `payload` is the wrapped protocol's message, truly encoded through
/// [`WireEncode`] — not a boxed value — so a deployment can hand
/// envelopes to any byte transport, and `accounting.encoded_bytes` is a
/// measurement, not a model.
///
/// The payload is a shared [`Bytes`] slice: cloning an envelope (or
/// fanning a batch out into per-object envelopes) bumps a reference
/// count instead of copying the encoded message, and engines produced by
/// [`EngineAdapter`] encode a whole sync step into **one** pooled buffer
/// that every resulting envelope slices (see [`BufferPool`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEnvelope {
    /// Sending replica.
    pub from: ReplicaId,
    /// Destination replica.
    pub to: ReplicaId,
    /// Which protocol's message the payload encodes.
    pub kind: ProtocolKind,
    /// The encoded protocol message (shared, zero-copy slice).
    pub payload: Bytes,
    /// Cost accounting (model view + encoded view).
    pub accounting: WireAccounting,
}

/// A borrowed view of a [`WireEnvelope`], decoded straight off a
/// received byte frame without copying the payload out.
///
/// This is the receive-path mirror of the shared-[`Bytes`] payload: a
/// transport that holds an incoming frame can [`WireEnvelopeRef::decode`]
/// views whose `payload` borrows the frame, hand them to
/// [`SyncEngine::on_msg_ref`] (which decodes the protocol message
/// directly from the borrow), and never materialize an owned envelope at
/// all. When an owned envelope *is* needed, [`WireEnvelopeRef::shared`]
/// produces one whose payload is a zero-copy slice of the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEnvelopeRef<'a> {
    /// Sending replica.
    pub from: ReplicaId,
    /// Destination replica.
    pub to: ReplicaId,
    /// Which protocol's message the payload encodes.
    pub kind: ProtocolKind,
    /// The encoded protocol message, borrowed from the frame.
    pub payload: &'a [u8],
    /// Cost accounting (model view + encoded view).
    pub accounting: WireAccounting,
}

impl<'a> WireEnvelopeRef<'a> {
    /// Decode one envelope view from the front of `input`, advancing it.
    /// The payload is borrowed, not copied; corrupt length fields error
    /// out before any allocation.
    pub fn decode(input: &mut &'a [u8]) -> Result<Self, CodecError> {
        let from = ReplicaId::decode(input)?;
        let to = ReplicaId::decode(input)?;
        let kind = ProtocolKind::decode(input)?;
        let len = usize::decode(input)?;
        if input.len() < len {
            return Err(CodecError::UnexpectedEnd);
        }
        let (payload, rest) = input.split_at(len);
        *input = rest;
        Ok(WireEnvelopeRef {
            from,
            to,
            kind,
            payload,
            accounting: WireAccounting::decode(input)?,
        })
    }

    /// An owned envelope, copying the payload into a fresh buffer.
    pub fn to_envelope(self) -> WireEnvelope {
        WireEnvelope {
            from: self.from,
            to: self.to,
            kind: self.kind,
            payload: Bytes::copy_from_slice(self.payload),
            accounting: self.accounting,
        }
    }

    /// An owned envelope whose payload **shares** `frame`'s allocation
    /// when this view borrows from it (the zero-copy path); falls back to
    /// a copy for foreign borrows.
    pub fn shared(self, frame: &Bytes) -> WireEnvelope {
        let payload = match frame.offset_of(self.payload) {
            Some(off) => frame.slice(off..off + self.payload.len()),
            None => Bytes::copy_from_slice(self.payload),
        };
        WireEnvelope {
            from: self.from,
            to: self.to,
            kind: self.kind,
            payload,
            accounting: self.accounting,
        }
    }
}

impl WireEnvelope {
    /// A borrowed view of this envelope.
    pub fn view(&self) -> WireEnvelopeRef<'_> {
        WireEnvelopeRef {
            from: self.from,
            to: self.to,
            kind: self.kind,
            payload: &self.payload,
            accounting: self.accounting,
        }
    }

    /// Decode one envelope from a cursor into `frame`, advancing the
    /// cursor; the payload is a zero-copy slice of `frame`. `input` must
    /// be a sub-slice of `frame` (as produced by iterating over
    /// `&frame[..]`); cursors into other buffers degrade to a copy.
    pub fn decode_shared(frame: &Bytes, input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(WireEnvelopeRef::decode(input)?.shared(frame))
    }
}

impl WireEncode for WireAccounting {
    fn encode(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.payload_elements);
        put_uvarint(out, self.payload_bytes);
        put_uvarint(out, self.metadata_bytes);
        put_uvarint(out, self.encoded_bytes);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(WireAccounting {
            payload_elements: get_uvarint(input)?,
            payload_bytes: get_uvarint(input)?,
            metadata_bytes: get_uvarint(input)?,
            encoded_bytes: get_uvarint(input)?,
        })
    }
}

impl WireEncode for WireEnvelope {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.encode(out);
        self.to.encode(out);
        out.push(self.kind.wire_tag());
        self.payload.len().encode(out);
        out.extend_from_slice(&self.payload);
        self.accounting.encode(out);
    }

    /// Streaming decode; the payload is copied out of `input` (the
    /// cursor's backing buffer is unknown here). Transports holding the
    /// frame as [`Bytes`] should use [`WireEnvelope::decode_shared`]
    /// (zero-copy) or [`WireEnvelopeRef::decode`] (borrowed) instead.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(WireEnvelopeRef::decode(input)?.to_envelope())
    }
}

impl Measured for WireEnvelope {
    fn payload_elements(&self) -> u64 {
        self.accounting.payload_elements
    }

    /// Model-view bytes (the accounting was computed by the producing
    /// engine under *its* model; the `model` argument is ignored).
    fn payload_bytes(&self, _model: &SizeModel) -> u64 {
        self.accounting.payload_bytes
    }

    fn metadata_bytes(&self, _model: &SizeModel) -> u64 {
        self.accounting.metadata_bytes
    }
}

// ---------------------------------------------------------------------------
// Batch envelope
// ---------------------------------------------------------------------------

/// A per-destination synchronization batch: every object's
/// [`WireEnvelope`] bound for one recipient, coalesced into a single wire
/// frame.
///
/// Sharded deployments (the paper's Retwis setup replicates 30 K
/// *independent* objects) would otherwise put one message per object on
/// the fabric every round. A batch is one replica talking to one
/// neighbor under one configured protocol, so `from`/`to`/`kind` are
/// identical across its envelopes and the frame encodes them **once**
/// (after the count, when non-empty), then `(key, payload, accounting)`
/// per entry — ~10 B per object saved at 30 K-object granularity versus
/// re-encoding the full envelope each time, and message count drops to
/// O(links), independent of object count.
///
/// Consumers: `delta-store`'s `StoreMsg` (its `Transport` moves these
/// between replicas) and `crdt-sim`'s `ShardedEngineRunner` (one frame
/// per (src, dst) pair per round).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEnvelope<K> {
    /// `(object key, envelope)` pairs. Objects with nothing new are
    /// simply absent.
    pub entries: Vec<(K, WireEnvelope)>,
}

impl<K> BatchEnvelope<K> {
    /// An empty batch.
    pub fn new() -> Self {
        BatchEnvelope {
            entries: Vec::new(),
        }
    }

    /// Number of objects in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Does the batch carry nothing?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append one object's envelope.
    pub fn push(&mut self, key: K, env: WireEnvelope) {
        debug_assert!(
            self.route()
                .is_none_or(|(from, to, kind)| (from, to, kind) == (env.from, env.to, env.kind)),
            "a batch spans one (from, to, kind) route"
        );
        self.entries.push((key, env));
    }

    /// The batch's `(from, to, kind)` route; `None` when empty.
    pub fn route(&self) -> Option<(ReplicaId, ReplicaId, ProtocolKind)> {
        self.entries.first().map(|(_, e)| (e.from, e.to, e.kind))
    }
}

impl<K> Default for BatchEnvelope<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: crdt_lattice::Sizeable> Measured for BatchEnvelope<K> {
    fn payload_elements(&self) -> u64 {
        self.entries
            .iter()
            .map(|(_, e)| e.accounting.payload_elements)
            .sum()
    }

    fn payload_bytes(&self, _model: &SizeModel) -> u64 {
        self.entries
            .iter()
            .map(|(_, e)| e.accounting.payload_bytes)
            .sum()
    }

    /// Object keys are addressing metadata (exactly like the per-object
    /// identifiers of the paper's Retwis measurements), on top of
    /// whatever protocol metadata the envelopes carry.
    fn metadata_bytes(&self, model: &SizeModel) -> u64 {
        self.entries
            .iter()
            .map(|(k, e)| k.payload_bytes(model) + e.accounting.metadata_bytes)
            .sum()
    }
}

impl<K: WireEncode> WireEncode for BatchEnvelope<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.entries.len() as u64);
        let Some((_, first)) = self.entries.first() else {
            return;
        };
        debug_assert!(
            self.entries
                .iter()
                .all(|(_, e)| (e.from, e.to, e.kind) == (first.from, first.to, first.kind)),
            "a batch spans one (from, to, kind) route"
        );
        first.from.encode(out);
        first.to.encode(out);
        first.kind.encode(out);
        for (k, e) in &self.entries {
            k.encode(out);
            e.payload.len().encode(out);
            out.extend_from_slice(&e.payload);
            e.accounting.encode(out);
        }
    }

    /// Streaming decode; entry payloads are copied out of `input`.
    /// Transports holding the frame as [`Bytes`] should use
    /// [`BatchEnvelope::decode_shared`] (every entry payload a zero-copy
    /// slice of the frame) or iterate [`BatchEntries`] (fully borrowed).
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let mut iter = BatchEntries::<K>::parse(input)?;
        // lint: allow(capacity) — entry count validated against the input length in BatchEntries::parse
        let mut entries = Vec::with_capacity(iter.remaining());
        for item in &mut iter {
            let (k, env) = item?;
            entries.push((k, env.to_envelope()));
        }
        *input = iter.rest();
        Ok(BatchEnvelope { entries })
    }
}

impl<K: WireEncode> BatchEnvelope<K> {
    /// Decode one received batch frame, zero-copy: every entry's payload
    /// is a shared slice of `frame`, so fanning a 30 K-object batch out
    /// to its per-object engines re-vectors nothing. The frame must
    /// contain exactly one batch ([`CodecError::TrailingBytes`]
    /// otherwise — a transport frame is the unit of transmission).
    pub fn decode_shared(frame: &Bytes) -> Result<Self, CodecError> {
        let mut input: &[u8] = frame;
        let mut iter = BatchEntries::<K>::parse(&mut input)?;
        // lint: allow(capacity) — entry count validated against the input length in BatchEntries::parse
        let mut entries = Vec::with_capacity(iter.remaining());
        for item in &mut iter {
            let (k, env) = item?;
            entries.push((k, env.shared(frame)));
        }
        if !iter.rest().is_empty() {
            return Err(CodecError::TrailingBytes);
        }
        Ok(BatchEnvelope { entries })
    }
}

/// A borrowed, lazily-decoded iterator over a batch frame's entries:
/// yields `(key, envelope view)` pairs whose payloads borrow the frame —
/// no per-entry copy, no up-front `Vec` of entries.
///
/// Obtained from [`BatchEntries::parse`]. Decoding errors surface as the
/// iterator's `Err` item (after which iteration stops); corrupt length
/// fields are rejected before any proportional allocation.
#[derive(Debug)]
pub struct BatchEntries<'a, K> {
    remaining: usize,
    route: Option<(ReplicaId, ReplicaId, ProtocolKind)>,
    cursor: &'a [u8],
    _key: PhantomData<fn() -> K>,
}

impl<'a, K: WireEncode> BatchEntries<'a, K> {
    /// Parse the batch header from the front of `input`, advancing it
    /// past the header; the returned iterator consumes the entries.
    pub fn parse(input: &mut &'a [u8]) -> Result<Self, CodecError> {
        let len = usize::decode(input)?;
        // Hostile count guard: every entry costs ≥ 1 byte, so a count
        // beyond the remaining input cannot be honest — reject before
        // anyone trusts it for a preallocation.
        if len > input.len() {
            return Err(CodecError::UnexpectedEnd);
        }
        let route = if len == 0 {
            None
        } else {
            let from = ReplicaId::decode(input)?;
            let to = ReplicaId::decode(input)?;
            let kind = ProtocolKind::decode(input)?;
            Some((from, to, kind))
        };
        let iter = BatchEntries {
            remaining: len,
            route,
            cursor: input,
            _key: PhantomData,
        };
        Ok(iter)
    }

    /// The batch's shared `(from, to, kind)` header; `None` when empty.
    pub fn route(&self) -> Option<(ReplicaId, ReplicaId, ProtocolKind)> {
        self.route
    }

    /// Entries not yet yielded.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The unconsumed input after the last yielded entry. Only the whole
    /// batch's worth once the iterator is exhausted.
    pub fn rest(&self) -> &'a [u8] {
        self.cursor
    }

    fn next_entry(&mut self) -> Result<(K, WireEnvelopeRef<'a>), CodecError> {
        let (from, to, kind) = self.route.expect("non-empty batch has a route");
        let input = &mut self.cursor;
        let k = K::decode(input)?;
        let payload_len = usize::decode(input)?;
        if input.len() < payload_len {
            return Err(CodecError::UnexpectedEnd);
        }
        let (payload, rest) = input.split_at(payload_len);
        *input = rest;
        let accounting = WireAccounting::decode(input)?;
        Ok((
            k,
            WireEnvelopeRef {
                from,
                to,
                kind,
                payload,
                accounting,
            },
        ))
    }
}

impl<'a, K: WireEncode> Iterator for BatchEntries<'a, K> {
    type Item = Result<(K, WireEnvelopeRef<'a>), CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let item = self.next_entry();
        if item.is_err() {
            // A corrupt entry poisons the rest of the frame.
            self.remaining = 0;
        }
        Some(item)
    }
}

/// An operation, encoded for the type-erased boundary.
///
/// Produced by [`OpBytes::encode`] from any wire-encodable `C::Op`; the
/// engine's adapter decodes it back to the concrete type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpBytes(pub Vec<u8>);

impl OpBytes {
    /// Encode a typed operation.
    pub fn encode<O: WireEncode>(op: &O) -> Self {
        OpBytes(op.to_bytes())
    }

    /// Decode back to a typed operation.
    pub fn decode<O: WireEncode>(&self) -> Result<O, CodecError> {
        O::from_bytes(&self.0)
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Failure at the type-erased boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A payload failed to decode.
    Codec(CodecError),
    /// An envelope of one protocol was handed to an engine of another.
    ProtocolMismatch {
        /// The receiving engine's protocol.
        expected: ProtocolKind,
        /// The envelope's protocol.
        got: ProtocolKind,
    },
    /// A bootstrap source is not an engine of the same concrete protocol
    /// and CRDT, so its snapshot (state **and** protocol metadata) cannot
    /// be adopted.
    BootstrapMismatch,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Codec(e) => write!(f, "payload decode failed: {e}"),
            EngineError::ProtocolMismatch { expected, got } => {
                write!(
                    f,
                    "protocol mismatch: engine runs {expected}, envelope carries {got}"
                )
            }
            EngineError::BootstrapMismatch => {
                f.write_str("bootstrap source is not the same protocol/CRDT as this engine")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CodecError> for EngineError {
    fn from(e: CodecError) -> Self {
        EngineError::Codec(e)
    }
}

// ---------------------------------------------------------------------------
// SyncEngine
// ---------------------------------------------------------------------------

/// Registry-backed counters an engine bumps as it synchronizes. One
/// set per node/replica (register against that node's
/// [`crdt_obs::Registry`]); cheap to clone, cells are shared.
#[derive(Clone, Debug)]
pub struct EngineMetrics {
    /// `engine.sync.frames` — envelopes produced by sync steps and
    /// push-pull replies.
    pub sync_frames: crdt_obs::Counter,
    /// `engine.sync.bytes` — encoded payload bytes of those envelopes.
    pub sync_bytes: crdt_obs::Counter,
    /// `engine.absorb.frames` — incoming envelopes absorbed.
    pub absorb_frames: crdt_obs::Counter,
    /// `engine.ops` — local update operations applied.
    pub ops: crdt_obs::Counter,
    /// `engine.compact.pruned` — causally-stable metadata entries
    /// pruned by compaction.
    pub compact_pruned: crdt_obs::Counter,
}

impl EngineMetrics {
    /// Register (or look up) the engine cells in `reg`.
    pub fn register(reg: &crdt_obs::Registry) -> Self {
        EngineMetrics {
            sync_frames: crdt_obs::register_counter!(
                reg,
                "engine.sync.frames",
                "envelopes produced by sync steps and push-pull replies"
            ),
            sync_bytes: crdt_obs::register_counter!(
                reg,
                "engine.sync.bytes",
                "encoded payload bytes of produced envelopes"
            ),
            absorb_frames: crdt_obs::register_counter!(
                reg,
                "engine.absorb.frames",
                "incoming envelopes absorbed"
            ),
            ops: crdt_obs::register_counter!(reg, "engine.ops", "local update operations applied"),
            compact_pruned: crdt_obs::register_counter!(
                reg,
                "engine.compact.pruned",
                "causally-stable metadata entries pruned by compaction"
            ),
        }
    }
}

/// Object-safe synchronization engine: one replica of one protocol over
/// the unified [`WireEnvelope`] wire format.
///
/// The mirror of [`Protocol`] with every associated item erased, so
/// `Box<dyn SyncEngine>` instances of *different* protocols (or over
/// different CRDTs) share one runner, store, or transport. Obtain one
/// from [`build_engine`] (runtime selection) or wrap a concrete protocol
/// with [`EngineAdapter`].
pub trait SyncEngine: fmt::Debug {
    /// The replica this engine lives at.
    fn id(&self) -> ReplicaId;

    /// Which protocol this engine runs.
    fn kind(&self) -> ProtocolKind;

    /// Human-readable protocol name (matches `Protocol::NAME`).
    fn protocol_name(&self) -> &'static str {
        self.kind().name()
    }

    /// Handle a local update operation (encoded; see [`OpBytes`]).
    fn on_op(&mut self, op: &OpBytes) -> Result<(), EngineError>;

    /// Periodic synchronization step towards `neighbors`, encoding
    /// through `pool`'s recycled scratch: the whole step's messages land
    /// in **one** shared payload allocation (zero when nothing is sent),
    /// and the scratch buffer returns to the pool for the next round.
    /// This is the hot-path primitive every runner calls.
    fn on_sync_pooled(
        &mut self,
        neighbors: &[ReplicaId],
        pool: &mut BufferPool,
    ) -> Vec<WireEnvelope>;

    /// Handle an incoming envelope *view* — the payload is decoded
    /// straight from the borrowed frame slice, never copied into an
    /// owned buffer first. Replies (push-pull protocols) encode through
    /// `pool` like [`SyncEngine::on_sync_pooled`].
    fn on_msg_ref(
        &mut self,
        env: WireEnvelopeRef<'_>,
        pool: &mut BufferPool,
    ) -> Result<Vec<WireEnvelope>, EngineError>;

    /// Periodic synchronization step towards `neighbors` (convenience:
    /// throwaway scratch; prefer [`SyncEngine::on_sync_pooled`] in
    /// per-round loops).
    fn on_sync(&mut self, neighbors: &[ReplicaId]) -> Vec<WireEnvelope> {
        self.on_sync_pooled(neighbors, &mut BufferPool::new())
    }

    /// Handle an incoming envelope with pooled reply encoding. The
    /// envelope's payload is already a shared [`Bytes`] slice, so
    /// passing it by value is reference-count cheap.
    fn on_msg_pooled(
        &mut self,
        env: WireEnvelope,
        pool: &mut BufferPool,
    ) -> Result<Vec<WireEnvelope>, EngineError> {
        self.on_msg_ref(env.view(), pool)
    }

    /// Handle an incoming envelope; may return replies (push-pull
    /// protocols). Convenience with throwaway scratch; prefer
    /// [`SyncEngine::on_msg_pooled`] or [`SyncEngine::on_msg_ref`] in
    /// per-round loops.
    fn on_msg(&mut self, env: WireEnvelope) -> Result<Vec<WireEnvelope>, EngineError> {
        self.on_msg_pooled(env, &mut BufferPool::new())
    }

    /// Memory snapshot under the engine's size model.
    fn memory(&self) -> MemoryUsage;

    /// Elements in the replica's CRDT lattice state.
    fn state_elements(&self) -> u64;

    /// Deterministic 64-bit hash of the lattice state (same across
    /// replicas and processes) — the per-object summary a keyspace
    /// Merkle tree aggregates. Equal states hash equal; protocol
    /// metadata (buffers, clocks) is deliberately excluded, so two
    /// replicas agreeing on every state hash agree on every value.
    fn state_hash(&self) -> u64;

    /// Prune causally stable synchronization metadata (see
    /// [`Protocol::compact`]); returns the number of pruned entries.
    /// Never changes the lattice state.
    fn compact(&mut self) -> u64 {
        0
    }

    /// The lattice state as `Any`, for typed access by callers that know
    /// the CRDT (`engine.state_any().downcast_ref::<C>()`).
    fn state_any(&self) -> &dyn Any;

    /// Do two engines hold the same lattice state? `false` when the
    /// underlying CRDT types differ.
    fn state_eq(&self, other: &dyn SyncEngine) -> bool;

    /// The engine itself as `Any` — lets [`SyncEngine::bootstrap_from`]
    /// recover a same-typed peer and adopt protocol metadata, not just
    /// lattice state.
    fn as_any(&self) -> &dyn Any;

    /// Discard all protocol state, returning the engine to the freshly
    /// constructed `⊥` replica — the semantics of a **non-durable crash**.
    /// Pair with [`SyncEngine::bootstrap_from`] to rejoin from a live
    /// peer.
    fn reset(&mut self);

    /// The cluster grew (or shrank) to `n_nodes` replicas. Drivers call
    /// this on every existing engine when a replica joins; protocols
    /// whose safety depends on the system size react through
    /// [`Protocol::on_params_change`] (Scuttlebutt-GC must not prune
    /// deltas the joiner has not seen).
    fn set_system_size(&mut self, n_nodes: usize);

    /// Out-of-band state transfer from a peer engine (crash recovery and
    /// join-with-bootstrap): adopt `source`'s lattice state plus whatever
    /// protocol metadata the wrapped [`Protocol::bootstrap`] carries over
    /// (δ-buffers, version vectors, delivery clocks, …).
    ///
    /// Returns the accounting of the shipped snapshot — a full-state
    /// transfer under this engine's size model — so fault-scenario
    /// drivers can charge recovery traffic honestly.
    ///
    /// # Errors
    ///
    /// [`EngineError::BootstrapMismatch`] when `source` is not an engine
    /// of the same concrete protocol and CRDT.
    fn bootstrap_from(&mut self, source: &dyn SyncEngine) -> Result<WireAccounting, EngineError>;

    /// Attach registry-backed counters; the engine bumps them from the
    /// next step onward. Default is a no-op so hand-rolled engines and
    /// test doubles stay source-compatible.
    fn set_metrics(&mut self, _metrics: &EngineMetrics) {}
}

// ---------------------------------------------------------------------------
// EngineAdapter
// ---------------------------------------------------------------------------

/// Blanket bridge from the generic world to the erased one: wraps any
/// `P: Protocol<C>` whose messages and operations are wire-encodable.
///
/// Construction derives the [`ProtocolKind`] from `P::NAME`, so adapters
/// for the paper's suite need no extra annotation:
///
/// ```
/// use crdt_lattice::ReplicaId;
/// use crdt_sync::{BpRrDelta, EngineAdapter, OpBytes, Params, SyncEngine};
/// use crdt_types::{GSet, GSetOp};
///
/// let params = Params::new(2);
/// let mut engine: Box<dyn SyncEngine> = Box::new(
///     EngineAdapter::<GSet<u64>, BpRrDelta<GSet<u64>>>::new(ReplicaId(0), &params),
/// );
/// engine.on_op(&OpBytes::encode(&GSetOp::Add(7u64))).unwrap();
/// let out = engine.on_sync(&[ReplicaId(1)]);
/// assert_eq!(out[0].accounting.payload_elements, 1);
/// ```
pub struct EngineAdapter<C: Crdt, P: Protocol<C>> {
    id: ReplicaId,
    kind: ProtocolKind,
    inner: P,
    model: SizeModel,
    /// Construction parameters, retained so [`SyncEngine::reset`] can
    /// rebuild the wrapped protocol from scratch.
    params: Params,
    /// `(mutation_epoch, hash)` memo for [`SyncEngine::state_hash`], valid
    /// only for CRDTs reporting a [`Crdt::mutation_epoch`]: equal epochs
    /// imply equal state, so the `Debug`-walk hash can be reused until the
    /// state actually changes (convergence checks poll the hash far more
    /// often than states mutate).
    hash_cache: Cell<Option<(u64, u64)>>,
    /// Registry-backed counters, attached via [`SyncEngine::set_metrics`];
    /// `None` (the default) costs one branch per step.
    metrics: Option<EngineMetrics>,
    _crdt: PhantomData<fn() -> C>,
}

impl<C: Crdt, P: Protocol<C>> fmt::Debug for EngineAdapter<C, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineAdapter")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .field("inner", &self.inner)
            .finish()
    }
}

impl<C: Crdt, P: Protocol<C>> EngineAdapter<C, P> {
    /// Wrap a fresh `P` replica; the kind is derived from `P::NAME`.
    ///
    /// # Panics
    ///
    /// If `P::NAME` is not one of the paper suite's labels — wrap custom
    /// protocols with [`EngineAdapter::with_kind`] instead.
    pub fn new(id: ReplicaId, params: &Params) -> Self {
        let kind = P::NAME
            .parse()
            .unwrap_or_else(|_| panic!("protocol {:?} is not a built-in kind", P::NAME));
        Self::with_kind(kind, id, params, SizeModel::default())
    }

    /// Wrap a fresh `P` replica under an explicit kind and size model.
    pub fn with_kind(kind: ProtocolKind, id: ReplicaId, params: &Params, model: SizeModel) -> Self {
        EngineAdapter {
            id,
            kind,
            inner: P::new(id, params),
            model,
            params: *params,
            hash_cache: Cell::new(None),
            metrics: None,
            _crdt: PhantomData,
        }
    }

    /// The wrapped protocol instance.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Charge produced envelopes to the attached counters, if any.
    fn charge_outgoing(&self, envs: &[WireEnvelope]) {
        if let Some(m) = &self.metrics {
            m.sync_frames.add(envs.len() as u64);
            m.sync_bytes
                .add(envs.iter().map(|e| e.accounting.encoded_bytes).sum());
        }
    }

    /// Encode a step's `(to, msg)` output through the pool's scratch:
    /// one shared frame allocation for the whole step, each envelope's
    /// payload a zero-copy slice of it.
    fn seal(&self, msgs: &[(ReplicaId, P::Msg)], pool: &mut BufferPool) -> Vec<WireEnvelope>
    where
        P::Msg: WireEncode,
    {
        if msgs.is_empty() {
            return Vec::new();
        }
        let mut scratch = pool.take();
        let mut pending = Vec::with_capacity(msgs.len());
        for (to, msg) in msgs {
            let start = scratch.len();
            msg.encode(&mut scratch);
            let accounting = WireAccounting {
                payload_elements: msg.payload_elements(),
                payload_bytes: msg.payload_bytes(&self.model),
                metadata_bytes: msg.metadata_bytes(&self.model),
                encoded_bytes: (scratch.len() - start) as u64,
            };
            pending.push((*to, start..scratch.len(), accounting));
        }
        let frame = pool.freeze(scratch);
        pending
            .into_iter()
            .map(|(to, range, accounting)| WireEnvelope {
                from: self.id,
                to,
                kind: self.kind,
                payload: frame.slice(range),
                accounting,
            })
            .collect()
    }
}

impl<C, P> SyncEngine for EngineAdapter<C, P>
where
    C: Crdt + 'static,
    C::Op: WireEncode,
    P: Protocol<C> + 'static,
    P::Msg: WireEncode,
{
    fn id(&self) -> ReplicaId {
        self.id
    }

    fn kind(&self) -> ProtocolKind {
        self.kind
    }

    fn protocol_name(&self) -> &'static str {
        P::NAME
    }

    fn on_op(&mut self, op: &OpBytes) -> Result<(), EngineError> {
        let op: C::Op = op.decode()?;
        self.inner.on_op(&op);
        if let Some(m) = &self.metrics {
            m.ops.inc();
        }
        Ok(())
    }

    fn on_sync_pooled(
        &mut self,
        neighbors: &[ReplicaId],
        pool: &mut BufferPool,
    ) -> Vec<WireEnvelope> {
        let mut out = Vec::new();
        self.inner.on_sync(neighbors, &mut out);
        let sealed = self.seal(&out, pool);
        self.charge_outgoing(&sealed);
        sealed
    }

    fn on_msg_ref(
        &mut self,
        env: WireEnvelopeRef<'_>,
        pool: &mut BufferPool,
    ) -> Result<Vec<WireEnvelope>, EngineError> {
        if env.kind != self.kind {
            return Err(EngineError::ProtocolMismatch {
                expected: self.kind,
                got: env.kind,
            });
        }
        let msg = P::Msg::from_bytes(env.payload)?;
        if let Some(m) = &self.metrics {
            m.absorb_frames.inc();
        }
        let mut out = Vec::new();
        self.inner.on_msg(env.from, msg, &mut out);
        let sealed = self.seal(&out, pool);
        self.charge_outgoing(&sealed);
        Ok(sealed)
    }

    fn memory(&self) -> MemoryUsage {
        self.inner.memory(&self.model)
    }

    fn state_elements(&self) -> u64 {
        self.inner.state().count_elements()
    }

    fn state_hash(&self) -> u64 {
        let state = self.inner.state();
        match state.mutation_epoch() {
            Some(epoch) => {
                if let Some((cached_epoch, hash)) = self.hash_cache.get() {
                    if cached_epoch == epoch {
                        return hash;
                    }
                }
                let hash = state_hash_of(state);
                self.hash_cache.set(Some((epoch, hash)));
                hash
            }
            None => state_hash_of(state),
        }
    }

    fn compact(&mut self) -> u64 {
        let pruned = self.inner.compact();
        if let Some(m) = &self.metrics {
            m.compact_pruned.add(pruned);
        }
        pruned
    }

    fn state_any(&self) -> &dyn Any {
        self.inner.state()
    }

    fn state_eq(&self, other: &dyn SyncEngine) -> bool {
        other
            .state_any()
            .downcast_ref::<C>()
            .is_some_and(|s| s == self.inner.state())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn reset(&mut self) {
        self.inner = P::new(self.id, &self.params);
    }

    fn set_system_size(&mut self, n_nodes: usize) {
        self.params.n_nodes = n_nodes;
        self.inner.on_params_change(&self.params);
    }

    fn bootstrap_from(&mut self, source: &dyn SyncEngine) -> Result<WireAccounting, EngineError> {
        let peer = source
            .as_any()
            .downcast_ref::<Self>()
            .ok_or(EngineError::BootstrapMismatch)?;
        let snapshot = peer.inner.state();
        let accounting = WireAccounting {
            payload_elements: snapshot.count_elements(),
            payload_bytes: snapshot.size_bytes(&self.model),
            metadata_bytes: 0,
            encoded_bytes: 0,
        };
        self.inner.bootstrap(&peer.inner);
        Ok(accounting)
    }

    fn set_metrics(&mut self, metrics: &EngineMetrics) {
        self.metrics = Some(metrics.clone());
    }
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

/// Build a type-erased engine for `kind` at replica `id`, using the
/// default (compact) size model.
///
/// ```
/// use crdt_lattice::ReplicaId;
/// use crdt_sync::{build_engine, OpBytes, Params, ProtocolKind};
/// use crdt_types::{GSet, GSetOp};
///
/// let params = Params::new(3);
/// let kind: ProtocolKind = "bp_rr".parse().unwrap();
/// let mut engine = build_engine::<GSet<u64>>(kind, ReplicaId(0), &params);
/// engine.on_op(&OpBytes::encode(&GSetOp::Add(1u64))).unwrap();
/// assert_eq!(engine.protocol_name(), "delta+BP+RR");
/// assert_eq!(engine.state_elements(), 1);
/// ```
pub fn build_engine<C>(kind: ProtocolKind, id: ReplicaId, params: &Params) -> Box<dyn SyncEngine>
where
    C: Crdt + WireEncode + 'static,
    C::Op: WireEncode + 'static,
{
    build_engine_with_model::<C>(kind, id, params, SizeModel::default())
}

/// One match arm per kind; the produced `Box<EngineAdapter<..>>` coerces
/// to whichever trait-object box the calling function returns
/// (`dyn SyncEngine` or `dyn SyncEngine + Send`).
macro_rules! engine_for_kind {
    ($C:ty, $kind:expr, $id:expr, $params:expr, $model:expr) => {
        match $kind {
            ProtocolKind::Classic => Box::new(EngineAdapter::<$C, ClassicDelta<$C>>::with_kind(
                $kind, $id, $params, $model,
            )),
            ProtocolKind::Bp => Box::new(EngineAdapter::<$C, BpDelta<$C>>::with_kind(
                $kind, $id, $params, $model,
            )),
            ProtocolKind::Rr => Box::new(EngineAdapter::<$C, RrDelta<$C>>::with_kind(
                $kind, $id, $params, $model,
            )),
            ProtocolKind::BpRr => Box::new(EngineAdapter::<$C, BpRrDelta<$C>>::with_kind(
                $kind, $id, $params, $model,
            )),
            ProtocolKind::State => Box::new(EngineAdapter::<$C, StateSync<$C>>::with_kind(
                $kind, $id, $params, $model,
            )),
            ProtocolKind::Scuttlebutt => Box::new(EngineAdapter::<$C, Scuttlebutt<$C>>::with_kind(
                $kind, $id, $params, $model,
            )),
            ProtocolKind::ScuttlebuttGc => Box::new(
                EngineAdapter::<$C, ScuttlebuttGc<$C>>::with_kind($kind, $id, $params, $model),
            ),
            ProtocolKind::OpBased => Box::new(EngineAdapter::<$C, OpBased<$C>>::with_kind(
                $kind, $id, $params, $model,
            )),
            ProtocolKind::Acked => Box::new(EngineAdapter::<$C, AckedDeltaSync<$C>>::with_kind(
                $kind, $id, $params, $model,
            )),
        }
    };
}

/// [`build_engine`] with an explicit size model (the model feeds the
/// envelopes' [`WireAccounting`] and [`SyncEngine::memory`]).
pub fn build_engine_with_model<C>(
    kind: ProtocolKind,
    id: ReplicaId,
    params: &Params,
    model: SizeModel,
) -> Box<dyn SyncEngine>
where
    C: Crdt + WireEncode + 'static,
    C::Op: WireEncode + 'static,
{
    engine_for_kind!(C, kind, id, params, model)
}

/// [`build_engine`] for thread-parallel drivers: the same engines, boxed
/// as `dyn SyncEngine + Send` so shard maps can move across scoped
/// threads (`crdt-sim`'s `ShardedEngineRunner` phase model). Requires the
/// CRDT and its operations to be `Send` — true for every in-tree type.
pub fn build_engine_send<C>(
    kind: ProtocolKind,
    id: ReplicaId,
    params: &Params,
) -> Box<dyn SyncEngine + Send>
where
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + 'static,
{
    build_engine_send_with_model::<C>(kind, id, params, SizeModel::default())
}

/// [`build_engine_send`] with an explicit size model.
pub fn build_engine_send_with_model<C>(
    kind: ProtocolKind,
    id: ReplicaId,
    params: &Params,
    model: SizeModel,
) -> Box<dyn SyncEngine + Send>
where
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + 'static,
{
    engine_for_kind!(C, kind, id, params, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaMsg;
    use crdt_types::{GCounter, GSet, GSetOp};

    const A: ReplicaId = ReplicaId(0);
    const B: ReplicaId = ReplicaId(1);

    #[test]
    fn kind_parsing_accepts_ids_and_labels() {
        for kind in ProtocolKind::ALL {
            assert_eq!(kind.id().parse::<ProtocolKind>().unwrap(), kind);
            assert_eq!(kind.name().parse::<ProtocolKind>().unwrap(), kind);
        }
        assert_eq!("BP-RR".parse::<ProtocolKind>().unwrap(), ProtocolKind::BpRr);
        assert_eq!(
            "Scuttlebutt-GC".parse::<ProtocolKind>().unwrap(),
            ProtocolKind::ScuttlebuttGc
        );
        assert!("bogus".parse::<ProtocolKind>().is_err());
    }

    /// Parsing ignores case entirely: every id and label round-trips in
    /// UPPER and MiXeD case (a shell-happy `--protocol CLASSIC` works).
    #[test]
    fn kind_parsing_is_case_insensitive() {
        for kind in ProtocolKind::ALL {
            assert_eq!(
                kind.id().to_ascii_uppercase().parse::<ProtocolKind>(),
                Ok(kind),
                "uppercase id for {kind}"
            );
            assert_eq!(
                kind.name().to_ascii_uppercase().parse::<ProtocolKind>(),
                Ok(kind),
                "uppercase label for {kind}"
            );
        }
        assert_eq!(
            "Op_Based".parse::<ProtocolKind>(),
            Ok(ProtocolKind::OpBased)
        );
        assert_eq!("STATE".parse::<ProtocolKind>(), Ok(ProtocolKind::State));
    }

    /// The parse error names every accepted kind, ids and labels both —
    /// the `--protocol` flag's UX depends on it.
    #[test]
    fn unknown_protocol_error_lists_all_kinds() {
        let err = "bogus".parse::<ProtocolKind>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("\"bogus\""), "{msg}");
        for kind in ProtocolKind::ALL {
            assert!(msg.contains(kind.id()), "missing id {} in {msg}", kind.id());
            assert!(
                msg.contains(kind.name()),
                "missing label {} in {msg}",
                kind.name()
            );
        }
        assert!(msg.contains("case-insensitive"), "{msg}");
    }

    #[test]
    fn envelope_roundtrips_through_bytes() {
        let env = WireEnvelope {
            from: A,
            to: B,
            kind: ProtocolKind::BpRr,
            payload: Bytes::from(vec![1, 2, 3]),
            accounting: WireAccounting {
                payload_elements: 3,
                payload_bytes: 24,
                metadata_bytes: 0,
                encoded_bytes: 3,
            },
        };
        let back = WireEnvelope::from_bytes(&env.to_bytes()).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn factory_builds_every_kind() {
        let params = Params::new(4);
        for kind in ProtocolKind::ALL {
            let engine = build_engine::<GSet<u64>>(kind, A, &params);
            assert_eq!(engine.kind(), kind);
            assert_eq!(engine.protocol_name(), kind.name());
            assert_eq!(engine.id(), A);
        }
    }

    /// Two engines of any kind, driven through envelopes, converge — and
    /// the envelope payloads are genuine bytes (decode checks).
    #[test]
    fn two_engines_converge_over_envelopes() {
        let params = Params::new(2);
        for kind in ProtocolKind::ALL {
            let mut a = build_engine::<GSet<u64>>(kind, A, &params);
            let mut b = build_engine::<GSet<u64>>(kind, B, &params);
            a.on_op(&OpBytes::encode(&GSetOp::Add(1u64))).unwrap();
            b.on_op(&OpBytes::encode(&GSetOp::Add(2u64))).unwrap();

            // Drive rounds until quiescence (push-pull kinds reply).
            for _ in 0..4 {
                let mut in_flight: Vec<WireEnvelope> = Vec::new();
                in_flight.extend(a.on_sync(&[B]));
                in_flight.extend(b.on_sync(&[A]));
                while let Some(env) = in_flight.pop() {
                    let target = if env.to == A { &mut a } else { &mut b };
                    in_flight.extend(target.on_msg(env).unwrap());
                }
            }
            assert!(a.state_eq(b.as_ref()), "{kind} diverged");
            assert_eq!(a.state_elements(), 2, "{kind} lost elements");
        }
    }

    #[test]
    fn mismatched_envelope_is_rejected() {
        let params = Params::new(2);
        let mut bp_rr = build_engine::<GSet<u64>>(ProtocolKind::BpRr, A, &params);
        let env = WireEnvelope {
            from: B,
            to: A,
            kind: ProtocolKind::Scuttlebutt,
            payload: Bytes::new(),
            accounting: WireAccounting::default(),
        };
        assert_eq!(
            bp_rr.on_msg(env),
            Err(EngineError::ProtocolMismatch {
                expected: ProtocolKind::BpRr,
                got: ProtocolKind::Scuttlebutt,
            })
        );
    }

    #[test]
    fn accounting_matches_measured_and_encoding() {
        let params = Params::new(2);
        let model = SizeModel::compact();
        let mut a = build_engine_with_model::<GSet<u64>>(ProtocolKind::BpRr, A, &params, model);
        for e in 0..5u64 {
            a.on_op(&OpBytes::encode(&GSetOp::Add(e))).unwrap();
        }
        let out = a.on_sync(&[B]);
        assert_eq!(out.len(), 1);
        let env = &out[0];
        // Model view agrees with the generic Measured path…
        let msg = DeltaMsg::<GSet<u64>>::from_bytes(&env.payload).unwrap();
        assert_eq!(env.accounting.payload_elements, msg.payload_elements());
        assert_eq!(env.accounting.payload_bytes, msg.payload_bytes(&model));
        // …and the encoded view is the literal payload length.
        assert_eq!(env.accounting.encoded_bytes, env.payload.len() as u64);
        assert!(env.accounting.encoded_bytes > 0);
    }

    /// Drive envelopes between two engines to quiescence for `rounds`
    /// sync rounds.
    fn pump(a: &mut Box<dyn SyncEngine>, b: &mut Box<dyn SyncEngine>, rounds: usize) {
        for _ in 0..rounds {
            let mut in_flight: Vec<WireEnvelope> = Vec::new();
            in_flight.extend(a.on_sync(&[B]));
            in_flight.extend(b.on_sync(&[A]));
            while let Some(env) = in_flight.pop() {
                let target = if env.to == A { &mut *a } else { &mut *b };
                in_flight.extend(target.on_msg(env).unwrap());
            }
        }
    }

    /// A join must raise Scuttlebutt-GC's safe-delete bar on *existing*
    /// engines before the joiner is heard from — otherwise deltas the
    /// joiner has not seen are pruned beyond recovery (Scuttlebutt never
    /// re-ships pruned entries).
    #[test]
    fn set_system_size_blocks_premature_gc_prune() {
        let params = Params::new(2);
        let mut a = build_engine::<GSet<u64>>(ProtocolKind::ScuttlebuttGc, A, &params);
        let mut b = build_engine::<GSet<u64>>(ProtocolKind::ScuttlebuttGc, B, &params);
        a.on_op(&OpBytes::encode(&GSetOp::Add(1u64))).unwrap();
        pump(&mut a, &mut b, 3);
        // Two-node membership complete: the delta was safely pruned.
        assert_eq!(a.memory().meta_elements, 0, "2-node GC prunes");

        // A third replica is joining; existing engines learn first.
        a.set_system_size(3);
        b.set_system_size(3);
        a.on_op(&OpBytes::encode(&GSetOp::Add(2u64))).unwrap();
        pump(&mut a, &mut b, 3);
        assert!(a.state_eq(b.as_ref()));
        // The new delta must be *retained*: the joiner has not seen it.
        assert!(
            a.memory().meta_elements >= 1 && b.memory().meta_elements >= 1,
            "3-node bar keeps the delta for the joiner"
        );
    }

    #[test]
    fn state_eq_is_type_aware() {
        let params = Params::new(2);
        let set = build_engine::<GSet<u64>>(ProtocolKind::BpRr, A, &params);
        let counter = build_engine::<GCounter>(ProtocolKind::BpRr, A, &params);
        assert!(
            !set.state_eq(counter.as_ref()),
            "different CRDTs never compare equal"
        );
    }

    #[test]
    fn bad_payload_reports_codec_error() {
        let params = Params::new(2);
        let mut engine = build_engine::<GSet<String>>(ProtocolKind::BpRr, A, &params);
        let env = WireEnvelope {
            from: B,
            to: A,
            kind: ProtocolKind::BpRr,
            // Claims 2^40 set elements with no bytes behind them.
            payload: Bytes::from(vec![0x80, 0x80, 0x80, 0x80, 0x80, 0x01]),
            accounting: WireAccounting::default(),
        };
        assert!(matches!(engine.on_msg(env), Err(EngineError::Codec(_))));
    }
}
