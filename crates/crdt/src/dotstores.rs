//! The dot-store framework of the delta-state literature: the one
//! causal lattice every causal CRDT in this crate is a newtype over.
//!
//! The delta-state papers the paper builds on (\[13\]/\[14\],
//! Almeida–Shoker–Baquero) define causal CRDTs over a small *algebra* of
//! dot stores, closed under nesting:
//!
//! * [`DotSet`] — `P(Dot)`: bare event identifiers (flags, per-element
//!   presence);
//! * [`DotFun`]`<V>` — `Dot ↪ V`: events carrying a payload value
//!   (registers, counters);
//! * [`DotMap`]`<K, S>` — `K ↪ S` for a nested store `S`: *keyed* causal
//!   state (observed-remove maps, maps of sets, maps of maps, …).
//!
//! A causal CRDT is then [`Causal`]`<S>` — a store `S` paired with a
//! [`CausalContext`] — and the framework join is defined once, by
//! recursion on the store shape: a dot survives the join iff it is live
//! on both sides, or live on one side and *unseen* by the other.
//!
//! ## Flat representation
//!
//! Every store in the algebra is flat: [`DotSet`] is sorted, coalesced
//! dot runs in one buffer ([`crate::flat::DotRuns`]), [`DotFun`] a
//! dot-sorted `Vec<(Dot, V)>`, [`DotMap`] a key-sorted `Vec<(K, S)>`.
//! Joins are linear two-pointer merges preceded by a no-allocation
//! change-detection scan ([`DotStore::join_would_change`]) — joining an
//! already-covered delta touches no heap memory. [`Causal`] carries a
//! mutation epoch + cached wire frame ([`crate::flat::StateTag`]): any
//! data-changing mutation invalidates the frame, and encoding an
//! unmutated state reuses it. Wire bytes are unchanged from the nested
//! `BTreeMap`/`BTreeSet` representation this replaced.
//!
//! ## Join decompositions (this paper's contribution, extended)
//!
//! The decomposition theory of §III extends to every store shape:
//!
//! * join-irreducibles are **live parts** — the minimal causal state
//!   holding one store dot (for a `DotMap` that is the full key path down
//!   to one dot) — and **dead parts** `(∅, {d})` for context-only dots;
//! * `⇓x` is one live part per store dot plus one dead part per
//!   context-only dot — unique and irredundant (the causal lattice is
//!   distributive and satisfies DCC, Appendix A);
//! * the optimal delta `Δ(a,b)` follows from the generic fold, and is
//!   specialized here without materializing parts: the store half is one
//!   [`DotStore::outside`] pass, the context half a context difference plus
//!   the dots the peer still holds live. Mutators are built the same
//!   way: [`Causal::retire`] (one [`DotStore::retain_outside`] pass)
//!   followed, for a new event, by [`Causal::record`].
//!
//! Every type in this module therefore runs unchanged under every
//! synchronization protocol in `crdt-sync`, including delta-based BP+RR.
//!
//! Defined here: [`ORMap`] (observed-remove map with
//! multi-value-register leaves), [`ORSetMap`] (observed-remove map of
//! add-wins sets — one level of nesting), [`RWSet`] (remove-wins set) and
//! [`DWFlag`] (disable-wins flag); the add-wins/enable-wins types over a
//! bare [`DotFun`] live in [`crate::causal`].

use core::fmt::Debug;
use std::collections::{BTreeMap, BTreeSet};

use crdt_lattice::{
    Bottom, Bytes, CodecError, Decompose, Dot, Lattice, ReplicaId, SizeModel, Sizeable, StateSize,
    WireEncode,
};

use crate::causal::CausalContext;
use crate::flat::{DotRuns, StateTag};
use crate::Crdt;

// ---------------------------------------------------------------------------
// The store algebra
// ---------------------------------------------------------------------------

/// A dot store: the payload half of a causal CRDT state.
///
/// Implementations must maintain the framework invariant that a dot in the
/// store uniquely identifies its payload for the lifetime of the system
/// (dots are never reused with different data).
///
/// Besides the join, a store offers two linear context filters —
/// [`DotStore::retain_outside`] (in place) and [`DotStore::outside`] (a
/// filtered copy) — from which [`Causal`] builds every mutator and the
/// optimal delta without materializing parts.
pub trait DotStore: Clone + Debug + Eq + Default {
    /// Visit every dot in the store (for a [`DotMap`], every dot of every
    /// nested store).
    fn for_each_dot(&self, f: &mut dyn FnMut(Dot));

    /// Does the store hold no dots?
    fn is_empty(&self) -> bool;

    /// Would [`DotStore::join`] with the same arguments change `self`?
    /// A read-only, allocation-free linear scan, *precise* (never
    /// conservative): implementations use it as the fast path that makes
    /// joining an already-covered delta free, and [`DotMap`] recurses
    /// through it to detect change under nesting.
    fn join_would_change(
        &self,
        self_ctx: &CausalContext,
        other: &Self,
        other_ctx: &CausalContext,
    ) -> bool;

    /// The framework join `(self, self_ctx) ⊔ (other, other_ctx)`,
    /// mutating `self` in place. Returns `true` if `self` changed.
    ///
    /// A dot survives iff it is live on both sides, or live on one side
    /// and absent from the other's *context* (unseen news beats observed
    /// death; observed death beats liveness). When nothing would change,
    /// the join returns `false` without allocating; otherwise adopted
    /// payload moves out of `other` uncloned.
    fn join(&mut self, self_ctx: &CausalContext, other: Self, other_ctx: &CausalContext) -> bool;

    /// Drop every dot `ctx` covers, in place and in one pass (a
    /// [`DotMap`] recurses and prunes the keys it empties).
    fn retain_outside(&mut self, ctx: &CausalContext);

    /// The sub-store of the dots `ctx` does *not* cover, built in one
    /// pass: the store half of `⊔{ live part p ∈ ⇓(self, _) | dot(p) ∉ ctx }`.
    fn outside(&self, ctx: &CausalContext) -> Self;

    /// Visit every dot live in `self` but not in `other`, pairing the two
    /// stores structurally (key by key, then dot by dot).
    fn for_each_dot_not_in(&self, other: &Self, f: &mut dyn FnMut(Dot));

    /// Visit `(dot, minimal sub-store holding exactly that dot)` for every
    /// live dot — the store half of the live parts of `⇓(self, ctx)`.
    fn for_each_part(&self, f: &mut dyn FnMut(Dot, Self));

    /// The live dots, as a context.
    fn dots(&self) -> CausalContext {
        let mut dots = CausalContext::new();
        self.for_each_dot(&mut |d| {
            dots.insert(d);
        });
        dots
    }
}

/// `P(Dot)` — bare event identifiers, as sorted coalesced runs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DotSet(DotRuns);

impl DotSet {
    /// The empty dot set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A set holding exactly `d`.
    pub fn singleton(d: Dot) -> Self {
        let mut s = Self::new();
        s.insert(d);
        s
    }

    /// Insert a dot.
    pub fn insert(&mut self, d: Dot) -> bool {
        self.0.insert(d)
    }

    /// Number of dots.
    pub fn len(&self) -> usize {
        self.0.len() as usize
    }

    /// Does the set hold no dots?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl DotStore for DotSet {
    fn for_each_dot(&self, f: &mut dyn FnMut(Dot)) {
        for d in self.0.dots() {
            f(d);
        }
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn join_would_change(
        &self,
        self_ctx: &CausalContext,
        other: &Self,
        other_ctx: &CausalContext,
    ) -> bool {
        // A drop: one of my dots the peer has seen die. An add: a peer
        // dot I have not heard of.
        self.0
            .dots()
            .any(|d| !other.0.contains(&d) && other_ctx.contains(&d))
            || other
                .0
                .dots()
                .any(|d| !self.0.contains(&d) && !self_ctx.contains(&d))
    }

    fn join(&mut self, self_ctx: &CausalContext, other: Self, other_ctx: &CausalContext) -> bool {
        if !self.join_would_change(self_ctx, &other, other_ctx) {
            return false;
        }
        // Linear two-pointer merge over both sorted dot streams.
        let old = std::mem::take(&mut self.0);
        let mut merged = DotRuns::new();
        let mut mine = old.dots().peekable();
        let mut theirs = other.0.dots().peekable();
        loop {
            match (mine.peek(), theirs.peek()) {
                (Some(m), Some(t)) => match m.cmp(t) {
                    core::cmp::Ordering::Less => {
                        let d = mine.next().expect("peeked"); // lint: allow(panic) — peek() just returned Some
                        if !other_ctx.contains(&d) {
                            merged.push_dot_sorted(d);
                        }
                    }
                    core::cmp::Ordering::Greater => {
                        let d = theirs.next().expect("peeked"); // lint: allow(panic) — peek() just returned Some
                        if !self_ctx.contains(&d) {
                            merged.push_dot_sorted(d);
                        }
                    }
                    core::cmp::Ordering::Equal => {
                        merged.push_dot_sorted(mine.next().expect("peeked")); // lint: allow(panic) — peek() just returned Some
                        theirs.next();
                    }
                },
                (Some(_), None) => {
                    let d = mine.next().expect("peeked"); // lint: allow(panic) — peek() just returned Some
                    if !other_ctx.contains(&d) {
                        merged.push_dot_sorted(d);
                    }
                }
                (None, Some(_)) => {
                    let d = theirs.next().expect("peeked"); // lint: allow(panic) — peek() just returned Some
                    if !self_ctx.contains(&d) {
                        merged.push_dot_sorted(d);
                    }
                }
                (None, None) => break,
            }
        }
        self.0 = merged;
        true
    }

    fn retain_outside(&mut self, ctx: &CausalContext) {
        if self.0.dots().any(|d| ctx.contains(&d)) {
            *self = self.outside(ctx);
        }
    }

    fn outside(&self, ctx: &CausalContext) -> Self {
        DotSet(DotRuns::from_sorted(
            self.0.dots().filter(|d| !ctx.contains(d)),
        ))
    }

    fn for_each_dot_not_in(&self, other: &Self, f: &mut dyn FnMut(Dot)) {
        for d in self.0.dots().filter(|d| !other.0.contains(d)) {
            f(d);
        }
    }

    fn for_each_part(&self, f: &mut dyn FnMut(Dot, Self)) {
        for d in self.0.dots() {
            f(d, DotSet::singleton(d));
        }
    }
}

impl Sizeable for DotSet {
    fn payload_bytes(&self, model: &SizeModel) -> u64 {
        self.0.len() * model.vector_entry_bytes()
    }
}

/// `Dot ↪ V` — events carrying a payload value, as a dot-sorted vector.
///
/// `V` is plain (not a lattice): a dot uniquely determines its value, so
/// two stores never hold the same dot with different payloads and the
/// join never needs to merge values.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DotFun<V>(Vec<(Dot, V)>);

impl<V> Default for DotFun<V> {
    fn default() -> Self {
        DotFun(Vec::new())
    }
}

impl<V> DotFun<V> {
    /// Dot-sorted membership test.
    fn has_dot(&self, d: &Dot) -> bool {
        self.0.binary_search_by(|(sd, _)| sd.cmp(d)).is_ok()
    }

    /// Insert an entry, preserving dot order (replacing a duplicate — only
    /// hostile decoded input produces one).
    pub fn insert(&mut self, d: Dot, v: V) {
        match self.0.binary_search_by(|(sd, _)| sd.cmp(&d)) {
            Ok(i) => self.0[i].1 = v,
            Err(i) => self.0.insert(i, (d, v)),
        }
    }
}

impl<V: Clone> DotFun<V> {
    /// The empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// A map holding exactly `d ↦ v`.
    pub fn singleton(d: Dot, v: V) -> Self {
        DotFun(vec![(d, v)])
    }

    /// Iterate entries in dot order.
    pub fn iter(&self) -> impl Iterator<Item = (&Dot, &V)> {
        self.0.iter().map(|(d, v)| (d, v))
    }

    /// The values, in dot order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Does the map hold no entries?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<V: Clone + Debug + Eq> DotStore for DotFun<V> {
    fn for_each_dot(&self, f: &mut dyn FnMut(Dot)) {
        for (d, _) in &self.0 {
            f(*d);
        }
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn join_would_change(
        &self,
        self_ctx: &CausalContext,
        other: &Self,
        other_ctx: &CausalContext,
    ) -> bool {
        self.0
            .iter()
            .any(|(d, _)| !other.has_dot(d) && other_ctx.contains(d))
            || other
                .0
                .iter()
                .any(|(d, _)| !self.has_dot(d) && !self_ctx.contains(d))
    }

    fn join(&mut self, self_ctx: &CausalContext, other: Self, other_ctx: &CausalContext) -> bool {
        // Pass 1 — no-allocation change detection. Joining an
        // already-covered delta (the steady state of every sync
        // protocol) ends here without touching the heap.
        if !self.join_would_change(self_ctx, &other, other_ctx) {
            return false;
        }
        // Pass 2 — linear two-pointer merge into one pre-sized buffer.
        let mut merged = Vec::with_capacity(self.0.len() + other.0.len());
        let mut mine = std::mem::take(&mut self.0).into_iter().peekable();
        let mut theirs = other.0.into_iter().peekable();
        loop {
            let take_mine = match (mine.peek(), theirs.peek()) {
                (Some((md, _)), Some((td, _))) => match md.cmp(td) {
                    core::cmp::Ordering::Less => Some(true),
                    core::cmp::Ordering::Greater => Some(false),
                    core::cmp::Ordering::Equal => {
                        // Live on both sides: survives the join.
                        merged.push(mine.next().expect("peeked")); // lint: allow(panic) — peek() just returned Some
                        theirs.next();
                        continue;
                    }
                },
                (Some(_), None) => Some(true),
                (None, Some(_)) => Some(false),
                (None, None) => None,
            };
            match take_mine {
                // Only I hold it live: keep unless the peer saw it die.
                Some(true) => {
                    let (d, v) = mine.next().expect("peeked"); // lint: allow(panic) — peek() just returned Some
                    if !other_ctx.contains(&d) {
                        merged.push((d, v));
                    }
                }
                // Only the peer holds it live: adopt unless I saw it die.
                Some(false) => {
                    let (d, v) = theirs.next().expect("peeked"); // lint: allow(panic) — peek() just returned Some
                    if !self_ctx.contains(&d) {
                        merged.push((d, v));
                    }
                }
                None => break,
            }
        }
        self.0 = merged;
        true
    }

    fn retain_outside(&mut self, ctx: &CausalContext) {
        self.0.retain(|(d, _)| !ctx.contains(d));
    }

    fn outside(&self, ctx: &CausalContext) -> Self {
        DotFun(
            self.0
                .iter()
                .filter(|(d, _)| !ctx.contains(d))
                .cloned()
                .collect(),
        )
    }

    fn for_each_dot_not_in(&self, other: &Self, f: &mut dyn FnMut(Dot)) {
        for (d, _) in self.0.iter().filter(|(d, _)| !other.has_dot(d)) {
            f(*d);
        }
    }

    fn for_each_part(&self, f: &mut dyn FnMut(Dot, Self)) {
        for (d, v) in &self.0 {
            f(*d, DotFun::singleton(*d, v.clone()));
        }
    }
}

impl<V: Sizeable> Sizeable for DotFun<V> {
    fn payload_bytes(&self, model: &SizeModel) -> u64 {
        self.0
            .iter()
            .map(|(_, v)| model.vector_entry_bytes() + v.payload_bytes(model))
            .sum()
    }
}

/// `K ↪ S` — keyed causal state, for a nested store `S`, as a key-sorted
/// vector.
///
/// Keys with an empty nested store are never kept (`⊥` entries are
/// represented by absence), so key removal needs no tombstones: joining
/// with a peer whose context covers a key's dots removes the key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DotMap<K: Ord, S>(Vec<(K, S)>);

impl<K: Ord, S> Default for DotMap<K, S> {
    fn default() -> Self {
        DotMap(Vec::new())
    }
}

impl<K: Ord, S> DotMap<K, S> {
    /// Key-sorted insert (replacing a duplicate — only hostile decoded
    /// input produces one).
    fn insert_sorted(&mut self, k: K, s: S) {
        match self.0.binary_search_by(|(sk, _)| sk.cmp(&k)) {
            Ok(i) => self.0[i].1 = s,
            Err(i) => self.0.insert(i, (k, s)),
        }
    }
}

impl<K: Ord + Clone, S: DotStore> DotMap<K, S> {
    /// The empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// A map holding exactly `k ↦ s` (no entry if `s` is empty).
    pub fn singleton(k: K, s: S) -> Self {
        let mut m = Self::new();
        if !s.is_empty() {
            m.0.push((k, s));
        }
        m
    }

    /// The nested store at `k`, if present.
    pub fn get(&self, k: &K) -> Option<&S> {
        self.0
            .binary_search_by(|(sk, _)| sk.cmp(k))
            .ok()
            .map(|i| &self.0[i].1)
    }

    /// The live dots under `k` (none if the key is absent).
    pub fn dots_under(&self, k: &K) -> CausalContext {
        self.get(k).map(DotStore::dots).unwrap_or_default()
    }

    /// The nested store at `k`, for writing — inserted empty if absent.
    /// The caller must leave it non-empty (`⊥` entries are represented
    /// by absence).
    pub fn entry(&mut self, k: K) -> &mut S {
        let i = match self.0.binary_search_by(|(sk, _)| sk.cmp(&k)) {
            Ok(i) => i,
            Err(i) => {
                self.0.insert(i, (k, S::default()));
                i
            }
        };
        &mut self.0[i].1
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &S)> {
        self.0.iter().map(|(k, s)| (k, s))
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Does the map hold no keys?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<K: Ord + Clone + Debug, S: DotStore> DotStore for DotMap<K, S> {
    fn for_each_dot(&self, f: &mut dyn FnMut(Dot)) {
        for (_, s) in &self.0 {
            s.for_each_dot(f);
        }
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn join_would_change(
        &self,
        self_ctx: &CausalContext,
        other: &Self,
        other_ctx: &CausalContext,
    ) -> bool {
        // Two-pointer scan over both key-sorted entry lists, recursing
        // into nested stores (against ⊥ for one-sided keys).
        let empty = S::default();
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() || j < other.0.len() {
            let changed = match (self.0.get(i), other.0.get(j)) {
                (Some((mk, ms)), Some((tk, ts))) => match mk.cmp(tk) {
                    core::cmp::Ordering::Less => {
                        i += 1;
                        ms.join_would_change(self_ctx, &empty, other_ctx)
                    }
                    core::cmp::Ordering::Greater => {
                        j += 1;
                        empty.join_would_change(self_ctx, ts, other_ctx)
                    }
                    core::cmp::Ordering::Equal => {
                        i += 1;
                        j += 1;
                        ms.join_would_change(self_ctx, ts, other_ctx)
                    }
                },
                (Some((_, ms)), None) => {
                    i += 1;
                    ms.join_would_change(self_ctx, &empty, other_ctx)
                }
                (None, Some((_, ts))) => {
                    j += 1;
                    empty.join_would_change(self_ctx, ts, other_ctx)
                }
                (None, None) => break,
            };
            if changed {
                return true;
            }
        }
        false
    }

    fn join(&mut self, self_ctx: &CausalContext, other: Self, other_ctx: &CausalContext) -> bool {
        if !self.join_would_change(self_ctx, &other, other_ctx) {
            return false;
        }
        // Linear two-pointer merge by key; emptied nested stores are
        // pruned as we go (⊥ entries are represented by absence).
        let mut merged = Vec::with_capacity(self.0.len() + other.0.len());
        let mut mine = std::mem::take(&mut self.0).into_iter().peekable();
        let mut theirs = other.0.into_iter().peekable();
        loop {
            let take_mine = match (mine.peek(), theirs.peek()) {
                (Some((mk, _)), Some((tk, _))) => match mk.cmp(tk) {
                    core::cmp::Ordering::Less => Some(true),
                    core::cmp::Ordering::Greater => Some(false),
                    core::cmp::Ordering::Equal => {
                        let (k, mut s) = mine.next().expect("peeked"); // lint: allow(panic) — peek() just returned Some
                        let (_, ts) = theirs.next().expect("peeked"); // lint: allow(panic) — peek() just returned Some
                        s.join(self_ctx, ts, other_ctx);
                        if !s.is_empty() {
                            merged.push((k, s));
                        }
                        continue;
                    }
                },
                (Some(_), None) => Some(true),
                (None, Some(_)) => Some(false),
                (None, None) => None,
            };
            // A one-sided key keeps the dots the other side has not seen.
            let (k, mut s, seen) = match take_mine {
                Some(true) => {
                    let (k, s) = mine.next().expect("peeked"); // lint: allow(panic) — peek() just returned Some
                    (k, s, other_ctx)
                }
                Some(false) => {
                    let (k, s) = theirs.next().expect("peeked"); // lint: allow(panic) — peek() just returned Some
                    (k, s, self_ctx)
                }
                None => break,
            };
            s.retain_outside(seen);
            if !s.is_empty() {
                merged.push((k, s));
            }
        }
        self.0 = merged;
        true
    }

    fn retain_outside(&mut self, ctx: &CausalContext) {
        self.0.retain_mut(|(_, s)| {
            s.retain_outside(ctx);
            !s.is_empty()
        });
    }

    fn outside(&self, ctx: &CausalContext) -> Self {
        let kept = self.0.iter().filter_map(|(k, s)| {
            let s = s.outside(ctx);
            (!s.is_empty()).then(|| (k.clone(), s))
        });
        DotMap(kept.collect())
    }

    fn for_each_dot_not_in(&self, other: &Self, f: &mut dyn FnMut(Dot)) {
        for (k, s) in &self.0 {
            match other.get(k) {
                Some(os) => s.for_each_dot_not_in(os, f),
                None => s.for_each_dot(f),
            }
        }
    }

    fn for_each_part(&self, f: &mut dyn FnMut(Dot, Self)) {
        for (k, s) in &self.0 {
            s.for_each_part(&mut |d, part| f(d, DotMap::singleton(k.clone(), part)));
        }
    }
}

impl<K: Ord + Sizeable, S: Sizeable> Sizeable for DotMap<K, S> {
    fn payload_bytes(&self, model: &SizeModel) -> u64 {
        self.0
            .iter()
            .map(|(k, s)| k.payload_bytes(model) + s.payload_bytes(model))
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Causal<S>: the lattice
// ---------------------------------------------------------------------------

/// A causal CRDT state: a dot store paired with a causal context.
///
/// Carries a mutation epoch and cached encoded frame (excluded from
/// equality, ordering, hashing and `Debug`): any data-changing mutation
/// invalidates the frame, and encoding an unmutated state reuses it.
#[derive(Clone, Default)]
pub struct Causal<S> {
    store: S,
    ctx: CausalContext,
    tag: StateTag,
}

impl<S: Debug> Debug for Causal<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The tag is process-local bookkeeping: keeping it out of `Debug`
        // keeps `Debug`-derived state hashes equal across converged
        // replicas.
        f.debug_struct("Causal")
            .field("store", &self.store)
            .field("ctx", &self.ctx)
            .finish()
    }
}

impl<S: PartialEq> PartialEq for Causal<S> {
    fn eq(&self, other: &Self) -> bool {
        self.store == other.store && self.ctx == other.ctx
    }
}

impl<S: Eq> Eq for Causal<S> {}

impl<S: PartialOrd> PartialOrd for Causal<S> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        match self.store.partial_cmp(&other.store) {
            Some(core::cmp::Ordering::Equal) => self.ctx.partial_cmp(&other.ctx),
            o => o,
        }
    }
}

impl<S: Ord> Ord for Causal<S> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (&self.store, &self.ctx).cmp(&(&other.store, &other.ctx))
    }
}

impl<S: core::hash::Hash> core::hash::Hash for Causal<S> {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.store.hash(state);
        self.ctx.hash(state);
    }
}

impl<S> Causal<S> {
    /// The state's process-local mutation epoch. Any data-changing
    /// mutation bumps it to a process-unique value; clones share their
    /// original's epoch (equal epochs imply equal data). Used to key
    /// external caches (encoded frames, state hashes).
    pub fn mutation_epoch(&self) -> u64 {
        self.tag.epoch()
    }
}

impl<S: DotStore> Causal<S> {
    /// A fresh, empty causal state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The store half.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Removal primitive shared by every causal CRDT: retire the dots in
    /// `dead` — which must all be live in the store — and return the
    /// optimal delta `(∅, dead)`. Their death is published by covering
    /// them in the delta's context without storing them.
    pub fn retire(&mut self, dead: CausalContext) -> Self {
        if !dead.is_empty() {
            self.store.retain_outside(&dead);
        }
        self.retired(dead)
    }

    /// The delta `(∅, dead)` for dots already dropped from the store.
    fn retired(&mut self, dead: CausalContext) -> Self {
        let mut delta = Self::new();
        if !dead.is_empty() {
            self.tag.note_mutation();
            delta.ctx = dead;
            delta.tag.note_mutation();
        }
        delta
    }

    /// Write primitive shared by every causal CRDT: claim a fresh dot at
    /// `replica` and let `write` place the new event under it (e.g. as
    /// `{k ↦ {d ↦ v}}`) — it runs twice, on the state's store and on the
    /// delta's. `retired` is the delta of the retirement the event
    /// supersedes (`⊥` for none); the whole mutation's optimal delta is
    /// returned.
    pub fn record(
        &mut self,
        retired: Self,
        replica: ReplicaId,
        write: impl Fn(&mut S, Dot),
    ) -> Self {
        let mut delta = retired;
        let dot = self.ctx.next_dot(replica);
        write(&mut self.store, dot);
        write(&mut delta.store, dot);
        delta.ctx.insert(dot);
        self.tag.note_mutation();
        delta.tag.note_mutation();
        delta
    }
}

impl<V: Clone + Debug + Eq> Causal<DotFun<V>> {
    /// [`Causal::retire`] by payload: retire the entries `kill` selects,
    /// found and dropped in one pass.
    pub fn retire_where(&mut self, kill: impl Fn(&Dot, &V) -> bool) -> Self {
        let mut dead = CausalContext::new();
        self.store.0.retain(|(d, v)| {
            let kill = kill(d, v);
            if kill {
                dead.insert(*d);
            }
            !kill
        });
        self.retired(dead)
    }
}

impl<S: DotStore> Lattice for Causal<S> {
    fn join_assign(&mut self, other: Self) -> bool {
        // Both halves detect no-change without allocating, so joining an
        // already-covered delta is free and leaves the epoch (and any
        // cached frame) intact.
        let mut changed = self.store.join(&self.ctx, other.store, &other.ctx);
        changed |= self.ctx.union(&other.ctx);
        if changed {
            self.tag.note_mutation();
        }
        changed
    }

    fn leq(&self, other: &Self) -> bool {
        // a ⊑ b ⇔ a ⊔ b = b: my context is covered, and no dot live in b
        // is one I have seen die.
        let mut ok = self.ctx.subset_of(&other.ctx);
        if ok {
            other
                .store
                .for_each_dot_not_in(&self.store, &mut |d| ok &= !self.ctx.contains(&d));
        }
        ok
    }
}

impl<S: DotStore> Bottom for Causal<S> {
    fn bottom() -> Self {
        Self::new()
    }

    fn is_bottom(&self) -> bool {
        self.store.is_empty() && self.ctx.is_empty()
    }
}

impl<S: DotStore> Decompose for Causal<S> {
    fn for_each_irreducible(&self, f: &mut dyn FnMut(Self)) {
        // Live parts.
        self.store.for_each_part(&mut |d, part| {
            f(Causal {
                store: part,
                ctx: CausalContext::singleton(d),
                tag: StateTag::fresh(),
            });
        });
        // Dead parts.
        let live = self.store.dots();
        for d in self.ctx.iter().filter(|d| !live.contains(d)) {
            f(Causal {
                store: S::default(),
                ctx: CausalContext::singleton(d),
                tag: StateTag::fresh(),
            });
        }
    }

    fn irreducible_count(&self) -> u64 {
        // Every observed dot is exactly one part (live or dead).
        self.ctx.len()
    }

    /// Optimal delta, specialized (equivalent to the generic
    /// decomposition fold, without materializing any part): live parts
    /// the peer hasn't heard of, plus dead parts the peer either hasn't
    /// heard of or still believes live.
    fn delta(&self, other: &Self) -> Self {
        // A part of either kind is news iff its dot is outside the
        // peer's context ...
        let store = self.store.outside(&other.ctx);
        let mut ctx = self.ctx.difference(&other.ctx);
        // ... and a dead part is also news while the peer holds it live.
        other.store.for_each_dot_not_in(&self.store, &mut |d| {
            if self.ctx.contains(&d) {
                ctx.insert(d);
            }
        });
        Causal {
            store,
            ctx,
            tag: StateTag::fresh(),
        }
    }

    fn is_irreducible(&self) -> bool {
        self.ctx.len() == 1
    }
}

impl<S: DotStore + Sizeable> StateSize for Causal<S> {
    fn count_elements(&self) -> u64 {
        self.ctx.len()
    }

    fn size_bytes(&self, model: &SizeModel) -> u64 {
        self.store.payload_bytes(model) + self.ctx.size_bytes(model)
    }
}

// ---------------------------------------------------------------------------
// ORMap: observed-remove map with multi-value leaves
// ---------------------------------------------------------------------------

/// Operations on an [`ORMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ORMapOp<K, V> {
    /// Write `v` under `k` at a replica (supersedes the values of `k` it
    /// has observed; concurrent writes to `k` all survive, as in a
    /// multi-value register).
    Put(ReplicaId, K, V),
    /// Remove every observed value of `k` (concurrent puts win).
    Remove(K),
    /// Remove every observed entry.
    Clear,
}

/// An observed-remove map with multi-value-register leaves:
/// `Causal(K ↪ (Dot ↪ V))`.
///
/// `put` behaves per key like an [`crate::MVRegister`] write; `remove`
/// deletes only the writes it has observed, so a concurrent `put` to the
/// same key survives (add-wins at the key level). Re-inserting after a
/// removal works, unlike a map built on 2P semantics.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ORMap<K: Ord, V>(Causal<DotMap<K, DotFun<V>>>);

impl<K: Ord, V> Default for ORMap<K, V> {
    fn default() -> Self {
        ORMap(Causal::default())
    }
}

crate::macros::delegate_lattice!(ORMap<K, V> where
    [K: Ord + Clone + Debug + Sizeable, V: Clone + Debug + Eq + Sizeable]);

impl<K: Ord + Clone + Debug + Sizeable, V: Clone + Debug + Eq + Sizeable> ORMap<K, V> {
    /// A fresh, empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write `v` under `k` at `replica`, superseding observed values of
    /// `k`. Returns the optimal delta.
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn put(&mut self, replica: ReplicaId, k: K, v: V) -> Self {
        let retired = self.0.retire(self.0.store.dots_under(&k));
        ORMap(self.0.record(retired, replica, |store, dot| {
            store.entry(k.clone()).insert(dot, v.clone())
        }))
    }

    /// Remove every observed value of `k`. Returns the optimal delta
    /// (pure context — no tombstones).
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn remove(&mut self, k: &K) -> Self {
        let dead = self.0.store.dots_under(k);
        ORMap(self.0.retire(dead))
    }

    /// Remove every observed entry. Returns the optimal delta.
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn clear(&mut self) -> Self {
        let dead = self.0.store.dots();
        ORMap(self.0.retire(dead))
    }

    /// The concurrent values visible under `k` (empty if absent; more
    /// than one after concurrent puts).
    pub fn get(&self, k: &K) -> Vec<&V> {
        self.0
            .store
            .get(k)
            .map(|f| f.values().collect())
            .unwrap_or_default()
    }

    /// Is `k` present?
    pub fn contains_key(&self, k: &K) -> bool {
        self.0.store.get(k).is_some()
    }

    /// Live keys, in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.0.store.iter().map(|(k, _)| k)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.0.store.len()
    }

    /// Is the map observably empty?
    pub fn is_empty(&self) -> bool {
        self.0.store.is_empty()
    }
}

impl<K: Ord + Clone + Debug + Sizeable, V: Clone + Debug + Eq + Sizeable> Crdt for ORMap<K, V> {
    type Op = ORMapOp<K, V>;
    type Value = BTreeMap<K, Vec<V>>;

    fn apply(&mut self, op: &Self::Op) -> Self {
        match op {
            ORMapOp::Put(r, k, v) => self.put(*r, k.clone(), v.clone()),
            ORMapOp::Remove(k) => self.remove(k),
            ORMapOp::Clear => self.clear(),
        }
    }

    fn value(&self) -> Self::Value {
        self.0
            .store
            .iter()
            .map(|(k, f)| (k.clone(), f.values().cloned().collect()))
            .collect()
    }

    fn op_size_bytes(op: &Self::Op, model: &SizeModel) -> u64 {
        match op {
            ORMapOp::Put(_, k, v) => {
                model.id_bytes + k.payload_bytes(model) + v.payload_bytes(model)
            }
            ORMapOp::Remove(k) => k.payload_bytes(model),
            ORMapOp::Clear => 1,
        }
    }

    fn mutation_epoch(&self) -> Option<u64> {
        Some(self.0.mutation_epoch())
    }
}

// ---------------------------------------------------------------------------
// ORSetMap: observed-remove map of add-wins sets (one level of nesting)
// ---------------------------------------------------------------------------

/// Operations on an [`ORSetMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ORSetMapOp<K, E> {
    /// Add `e` to the set under `k`.
    Add(ReplicaId, K, E),
    /// Remove `e` from the set under `k` (observed copies only).
    RemoveElem(K, E),
    /// Remove the whole entry under `k` (observed state only; concurrent
    /// adds to `k` survive — and resurrect the key).
    RemoveKey(K),
}

/// An observed-remove map whose values are add-wins sets:
/// `Causal(K ↪ (E ↪ P(Dot)))` — a two-level [`DotMap`] nesting,
/// demonstrating the framework's compositionality.
///
/// Removing a key removes only the element-copies observed locally, so an
/// add racing with the key removal wins and keeps the key alive with that
/// element — exactly the add-wins semantics, lifted through the nesting.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ORSetMap<K: Ord, E: Ord>(Causal<DotMap<K, DotMap<E, DotSet>>>);

impl<K: Ord, E: Ord> Default for ORSetMap<K, E> {
    fn default() -> Self {
        ORSetMap(Causal::default())
    }
}

crate::macros::delegate_lattice!(ORSetMap<K, E> where
    [K: Ord + Clone + Debug + Sizeable, E: Ord + Clone + Debug + Sizeable]);

impl<K: Ord + Clone + Debug + Sizeable, E: Ord + Clone + Debug + Sizeable> ORSetMap<K, E> {
    /// A fresh, empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `e` to the set under `k` at `replica` (superseding observed
    /// copies of `e` there). Returns the optimal delta.
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn add(&mut self, replica: ReplicaId, k: K, e: E) -> Self {
        let retired = self.0.retire(self.elem_dots(&k, &e));
        ORSetMap(self.0.record(retired, replica, |store, dot| {
            store.entry(k.clone()).entry(e.clone()).insert(dot);
        }))
    }

    /// Remove the observed copies of `e` under `k`. Returns the optimal
    /// delta.
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn remove_elem(&mut self, k: &K, e: &E) -> Self {
        let dead = self.elem_dots(k, e);
        ORSetMap(self.0.retire(dead))
    }

    /// Remove the observed entry under `k`. Returns the optimal delta.
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn remove_key(&mut self, k: &K) -> Self {
        let dead = self.0.store.dots_under(k);
        ORSetMap(self.0.retire(dead))
    }

    /// The visible elements under `k`, in order.
    pub fn get(&self, k: &K) -> BTreeSet<&E> {
        self.0
            .store
            .get(k)
            .map(|sets| sets.iter().map(|(e, _)| e).collect())
            .unwrap_or_default()
    }

    /// Is `k` present (with at least one element)?
    pub fn contains_key(&self, k: &K) -> bool {
        self.0.store.get(k).is_some()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.0.store.len()
    }

    /// Is the map observably empty?
    pub fn is_empty(&self) -> bool {
        self.0.store.is_empty()
    }

    fn elem_dots(&self, k: &K, e: &E) -> CausalContext {
        let sets = self.0.store.get(k);
        sets.map(|sets| sets.dots_under(e)).unwrap_or_default()
    }
}

impl<K: Ord + Clone + Debug + Sizeable, E: Ord + Clone + Debug + Sizeable> Crdt for ORSetMap<K, E> {
    type Op = ORSetMapOp<K, E>;
    type Value = BTreeMap<K, BTreeSet<E>>;

    fn apply(&mut self, op: &Self::Op) -> Self {
        match op {
            ORSetMapOp::Add(r, k, e) => self.add(*r, k.clone(), e.clone()),
            ORSetMapOp::RemoveElem(k, e) => self.remove_elem(k, e),
            ORSetMapOp::RemoveKey(k) => self.remove_key(k),
        }
    }

    fn value(&self) -> Self::Value {
        self.0
            .store
            .iter()
            .map(|(k, sets)| (k.clone(), sets.iter().map(|(e, _)| e.clone()).collect()))
            .collect()
    }

    fn op_size_bytes(op: &Self::Op, model: &SizeModel) -> u64 {
        match op {
            ORSetMapOp::Add(_, k, e) => {
                model.id_bytes + k.payload_bytes(model) + e.payload_bytes(model)
            }
            ORSetMapOp::RemoveElem(k, e) => k.payload_bytes(model) + e.payload_bytes(model),
            ORSetMapOp::RemoveKey(k) => k.payload_bytes(model),
        }
    }

    fn mutation_epoch(&self) -> Option<u64> {
        Some(self.0.mutation_epoch())
    }
}

// ---------------------------------------------------------------------------
// RWSet: remove-wins set
// ---------------------------------------------------------------------------

/// Operations on an [`RWSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RWSetOp<E> {
    /// Add `e` (loses to a concurrent remove of `e`).
    Add(ReplicaId, E),
    /// Remove `e` (wins over concurrent adds of `e`).
    Remove(ReplicaId, E),
}

/// A remove-wins set: `Causal(E ↪ (Dot ↪ bool))`, where `true` dots vote
/// *present* and `false` dots vote *absent*.
///
/// Both `add` and `remove` supersede the votes they have observed and cast
/// a fresh vote; an element is in the set iff it has at least one live
/// `true` vote and **no** live `false` vote — so when an add races with a
/// remove, both votes survive the join and the remove wins. The dual of
/// [`crate::AWSet`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RWSet<E: Ord>(Causal<DotMap<E, DotFun<bool>>>);

impl<E: Ord> Default for RWSet<E> {
    fn default() -> Self {
        RWSet(Causal::default())
    }
}

crate::macros::delegate_lattice!(RWSet<E> where [E: Ord + Clone + Debug + Sizeable]);

impl<E: Ord + Clone + Debug + Sizeable> RWSet<E> {
    /// A fresh, empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cast a vote for `e` at `replica`.
    fn vote(&mut self, replica: ReplicaId, e: E, present: bool) -> Self {
        let retired = self.0.retire(self.0.store.dots_under(&e));
        RWSet(self.0.record(retired, replica, |store, dot| {
            store.entry(e.clone()).insert(dot, present)
        }))
    }

    /// Add `e`, returning the optimal delta.
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn add(&mut self, replica: ReplicaId, e: E) -> Self {
        self.vote(replica, e, true)
    }

    /// Remove `e`, returning the optimal delta. Remove-wins semantics
    /// require the removal itself to be a vote, so it carries a dot (and,
    /// unlike [`crate::AWSet::remove`], needs an acting replica).
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn remove(&mut self, replica: ReplicaId, e: E) -> Self {
        self.vote(replica, e, false)
    }

    /// Membership: at least one `true` vote and no `false` vote.
    pub fn contains(&self, e: &E) -> bool {
        self.0.store.get(e).is_some_and(|votes| {
            let mut any_true = false;
            let mut any_false = false;
            for v in votes.values() {
                any_true |= *v;
                any_false |= !*v;
            }
            any_true && !any_false
        })
    }

    /// The visible elements.
    pub fn elements(&self) -> BTreeSet<&E> {
        self.0
            .store
            .iter()
            .filter(|(e, _)| self.contains(e))
            .map(|(e, _)| e)
            .collect()
    }

    /// Number of visible elements.
    pub fn len(&self) -> usize {
        self.elements().len()
    }

    /// Is the set observably empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E: Ord + Clone + Debug + Sizeable> Crdt for RWSet<E> {
    type Op = RWSetOp<E>;
    type Value = BTreeSet<E>;

    fn apply(&mut self, op: &Self::Op) -> Self {
        match op {
            RWSetOp::Add(r, e) => self.add(*r, e.clone()),
            RWSetOp::Remove(r, e) => self.remove(*r, e.clone()),
        }
    }

    fn value(&self) -> BTreeSet<E> {
        self.elements().into_iter().cloned().collect()
    }

    fn op_size_bytes(op: &Self::Op, model: &SizeModel) -> u64 {
        match op {
            RWSetOp::Add(_, e) | RWSetOp::Remove(_, e) => {
                model.id_bytes + e.payload_bytes(model) + 1
            }
        }
    }

    fn mutation_epoch(&self) -> Option<u64> {
        Some(self.0.mutation_epoch())
    }
}

// ---------------------------------------------------------------------------
// DWFlag: disable-wins flag
// ---------------------------------------------------------------------------

/// Operations on a [`DWFlag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DWFlagOp {
    /// Set the flag (loses to a concurrent disable).
    Enable(ReplicaId),
    /// Clear the flag (wins over concurrent enables).
    Disable(ReplicaId),
}

/// A disable-wins flag: `Causal(Dot ↪ bool)` with `true` = enable votes
/// and `false` = disable votes; the flag reads enabled iff there is at
/// least one live enable vote and no live disable vote. The dual of
/// [`crate::EWFlag`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DWFlag(Causal<DotFun<bool>>);

crate::macros::delegate_lattice!(DWFlag where []);

impl DWFlag {
    /// A fresh, disabled flag.
    pub fn new() -> Self {
        Self::default()
    }

    fn vote(&mut self, replica: ReplicaId, enabled: bool) -> Self {
        let retired = self.0.retire_where(|_, _| true);
        DWFlag(
            self.0
                .record(retired, replica, |store, dot| store.insert(dot, enabled)),
        )
    }

    /// Enable at `replica`, returning the optimal delta.
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn enable(&mut self, replica: ReplicaId) -> Self {
        self.vote(replica, true)
    }

    /// Disable at `replica`, returning the optimal delta. Unlike
    /// [`crate::EWFlag::disable`], the disable is itself a vote (it must
    /// beat concurrent enables), so it carries a dot.
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn disable(&mut self, replica: ReplicaId) -> Self {
        self.vote(replica, false)
    }

    /// Is the flag set? At least one enable vote and no disable vote.
    pub fn is_enabled(&self) -> bool {
        let mut any_true = false;
        let mut any_false = false;
        for v in self.0.store.values() {
            any_true |= *v;
            any_false |= !*v;
        }
        any_true && !any_false
    }
}

impl Crdt for DWFlag {
    type Op = DWFlagOp;
    type Value = bool;

    fn apply(&mut self, op: &Self::Op) -> Self {
        match op {
            DWFlagOp::Enable(r) => self.enable(*r),
            DWFlagOp::Disable(r) => self.disable(*r),
        }
    }

    fn value(&self) -> bool {
        self.is_enabled()
    }

    fn op_size_bytes(_op: &Self::Op, model: &SizeModel) -> u64 {
        model.id_bytes + 1
    }

    fn mutation_epoch(&self) -> Option<u64> {
        Some(self.0.mutation_epoch())
    }
}

// ---------------------------------------------------------------------------
// Wire encodings — by structural recursion over the store algebra, so any
// causal composition built from DotSet/DotFun/DotMap encodes for free.
// The byte shapes are those of the BTreeSet/BTreeMap encodings the flat
// stores replaced: a varint count, then sorted elements.
// ---------------------------------------------------------------------------

impl WireEncode for DotSet {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.len().encode(out);
        for d in self.0.dots() {
            d.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = usize::decode(input)?;
        if len > input.len() {
            return Err(CodecError::UnexpectedEnd);
        }
        let mut s = DotSet::new();
        for _ in 0..len {
            s.insert(Dot::decode(input)?);
        }
        Ok(s)
    }
}

impl<V: WireEncode> WireEncode for DotFun<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.0.len() as u64).encode(out);
        for (d, v) in &self.0 {
            d.encode(out);
            v.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = usize::decode(input)?;
        if len > input.len() {
            return Err(CodecError::UnexpectedEnd);
        }
        let mut f = DotFun(Vec::with_capacity(len));
        for _ in 0..len {
            let d = Dot::decode(input)?;
            let v = V::decode(input)?;
            f.insert(d, v);
        }
        Ok(f)
    }
}

impl<K: Ord + WireEncode, S: WireEncode> WireEncode for DotMap<K, S> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.0.len() as u64).encode(out);
        for (k, s) in &self.0 {
            k.encode(out);
            s.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = usize::decode(input)?;
        if len > input.len() {
            return Err(CodecError::UnexpectedEnd);
        }
        let mut m = DotMap(Vec::with_capacity(len));
        for _ in 0..len {
            let k = K::decode(input)?;
            let s = S::decode(input)?;
            m.insert_sorted(k, s);
        }
        Ok(m)
    }
}

impl<S: WireEncode> Causal<S> {
    /// The structural (cache-bypassing) encoding: store, then context.
    pub(crate) fn encode_structural(&self, out: &mut Vec<u8>) {
        self.store.encode(out);
        self.ctx.encode(out);
    }
}

impl<S: WireEncode> WireEncode for Causal<S> {
    fn encode(&self, out: &mut Vec<u8>) {
        // Unmutated since the last encode: splice the cached frame in.
        if let Some(frame) = self.tag.cached() {
            out.extend_from_slice(&frame);
            return;
        }
        let start = out.len();
        self.encode_structural(out);
        self.tag.store(Bytes::copy_from_slice(&out[start..]));
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Causal {
            store: S::decode(input)?,
            ctx: CausalContext::decode(input)?,
            tag: StateTag::fresh(),
        })
    }

    fn encode_frame(&self) -> Bytes {
        if let Some(frame) = self.tag.cached() {
            return frame;
        }
        let mut out = Vec::new();
        self.encode_structural(&mut out);
        let frame = Bytes::from(out);
        self.tag.store(frame.clone());
        frame
    }
}

crate::macros::delegate_wire!(ORMap<K, V> where
    [K: Ord + Clone + Debug + Sizeable + WireEncode,
     V: Clone + Debug + Eq + Sizeable + WireEncode]);
crate::macros::delegate_wire!(ORSetMap<K, E> where
    [K: Ord + Clone + Debug + Sizeable + WireEncode,
     E: Ord + Clone + Debug + Sizeable + WireEncode]);
crate::macros::delegate_wire!(RWSet<E> where
    [E: Ord + Clone + Debug + Sizeable + WireEncode]);
crate::macros::delegate_wire!(DWFlag where []);

impl<K: WireEncode, V: WireEncode> WireEncode for ORMapOp<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ORMapOp::Put(r, k, v) => {
                out.push(0);
                r.encode(out);
                k.encode(out);
                v.encode(out);
            }
            ORMapOp::Remove(k) => {
                out.push(1);
                k.encode(out);
            }
            ORMapOp::Clear => out.push(2),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (&tag, rest) = input.split_first().ok_or(CodecError::UnexpectedEnd)?;
        *input = rest;
        match tag {
            0 => Ok(ORMapOp::Put(
                ReplicaId::decode(input)?,
                K::decode(input)?,
                V::decode(input)?,
            )),
            1 => Ok(ORMapOp::Remove(K::decode(input)?)),
            2 => Ok(ORMapOp::Clear),
            d => Err(CodecError::BadDiscriminant(d)),
        }
    }
}

impl<K: WireEncode, E: WireEncode> WireEncode for ORSetMapOp<K, E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ORSetMapOp::Add(r, k, e) => {
                out.push(0);
                r.encode(out);
                k.encode(out);
                e.encode(out);
            }
            ORSetMapOp::RemoveElem(k, e) => {
                out.push(1);
                k.encode(out);
                e.encode(out);
            }
            ORSetMapOp::RemoveKey(k) => {
                out.push(2);
                k.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (&tag, rest) = input.split_first().ok_or(CodecError::UnexpectedEnd)?;
        *input = rest;
        match tag {
            0 => Ok(ORSetMapOp::Add(
                ReplicaId::decode(input)?,
                K::decode(input)?,
                E::decode(input)?,
            )),
            1 => Ok(ORSetMapOp::RemoveElem(K::decode(input)?, E::decode(input)?)),
            2 => Ok(ORSetMapOp::RemoveKey(K::decode(input)?)),
            d => Err(CodecError::BadDiscriminant(d)),
        }
    }
}

impl<E: WireEncode> WireEncode for RWSetOp<E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RWSetOp::Add(r, e) => {
                out.push(0);
                r.encode(out);
                e.encode(out);
            }
            RWSetOp::Remove(r, e) => {
                out.push(1);
                r.encode(out);
                e.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (&tag, rest) = input.split_first().ok_or(CodecError::UnexpectedEnd)?;
        *input = rest;
        match tag {
            0 => Ok(RWSetOp::Add(ReplicaId::decode(input)?, E::decode(input)?)),
            1 => Ok(RWSetOp::Remove(
                ReplicaId::decode(input)?,
                E::decode(input)?,
            )),
            d => Err(CodecError::BadDiscriminant(d)),
        }
    }
}

impl WireEncode for DWFlagOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DWFlagOp::Enable(r) => {
                out.push(0);
                r.encode(out);
            }
            DWFlagOp::Disable(r) => {
                out.push(1);
                r.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (&tag, rest) = input.split_first().ok_or(CodecError::UnexpectedEnd)?;
        *input = rest;
        match tag {
            0 => Ok(DWFlagOp::Enable(ReplicaId::decode(input)?)),
            1 => Ok(DWFlagOp::Disable(ReplicaId::decode(input)?)),
            d => Err(CodecError::BadDiscriminant(d)),
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::testing::check_crdt_op;
    use crdt_lattice::testing::check_all_laws;

    const A: ReplicaId = ReplicaId(0);
    const B: ReplicaId = ReplicaId(1);
    const C: ReplicaId = ReplicaId(2);

    // -- store algebra -------------------------------------------------------

    #[test]
    fn dotset_join_respects_contexts() {
        // A has dot a1 live; B has seen a1 die.
        let mut a_store = DotSet::singleton(Dot::new(A, 1));
        let a_ctx = CausalContext::singleton(Dot::new(A, 1));
        let b_store = DotSet::new();
        let b_ctx = CausalContext::singleton(Dot::new(A, 1));
        assert!(a_store.join(&a_ctx, b_store, &b_ctx));
        assert!(a_store.is_empty(), "observed death wins");

        // Unseen news is adopted.
        let mut empty = DotSet::new();
        let fresh_ctx = CausalContext::new();
        let news = DotSet::singleton(Dot::new(B, 1));
        let news_ctx = CausalContext::singleton(Dot::new(B, 1));
        assert!(empty.join(&fresh_ctx, news, &news_ctx));
        assert_eq!(empty, DotSet::singleton(Dot::new(B, 1)));
    }

    #[test]
    fn dotfun_join_is_idempotent_and_commutes() {
        let d1 = Dot::new(A, 1);
        let d2 = Dot::new(B, 1);
        let mut x = DotFun::singleton(d1, 10u32);
        let x_ctx = CausalContext::singleton(d1);
        let y = DotFun::singleton(d2, 20u32);
        let y_ctx = CausalContext::singleton(d2);

        let mut xy = x.clone();
        assert!(xy.join(&x_ctx, y.clone(), &y_ctx));
        let mut yx = y.clone();
        assert!(yx.join(&y_ctx, x.clone(), &x_ctx));
        assert_eq!(xy, yx);
        assert!(!x.join(&x_ctx, x.clone(), &x_ctx), "idempotent");
    }

    #[test]
    fn dotmap_prunes_emptied_keys() {
        let d = Dot::new(A, 1);
        let mut m: DotMap<&str, DotSet> = DotMap::singleton("k", DotSet::singleton(d));
        let ctx = CausalContext::singleton(d);
        // Peer saw the dot die.
        let peer: DotMap<&str, DotSet> = DotMap::new();
        let peer_ctx = CausalContext::singleton(d);
        assert!(m.join(&ctx, peer, &peer_ctx));
        assert!(m.is_empty(), "key with no dots must disappear");
    }

    #[test]
    fn covered_join_detects_no_change_without_alloc() {
        // The no-change pre-scan must be precise: a join that adds and
        // drops nothing returns false at every nesting depth.
        let d = Dot::new(A, 1);
        let mut m: DotMap<&str, DotMap<u8, DotSet>> =
            DotMap::singleton("k", DotMap::singleton(7, DotSet::singleton(d)));
        let ctx = CausalContext::singleton(d);
        let snapshot = m.clone();
        assert!(!m.join_would_change(&ctx, &snapshot, &ctx));
        assert!(!m.join(&ctx, snapshot.clone(), &ctx));
        assert_eq!(m, snapshot);
    }

    #[test]
    fn nested_parts_carry_full_key_path() {
        let d = Dot::new(A, 1);
        let m: DotMap<&str, DotMap<u8, DotSet>> =
            DotMap::singleton("k", DotMap::singleton(7, DotSet::singleton(d)));
        let mut parts = Vec::new();
        m.for_each_part(&mut |dot, part| parts.push((dot, part)));
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, d);
        assert_eq!(parts[0].1.get(&"k").unwrap().get(&7).unwrap().len(), 1);
    }

    // -- ORMap ----------------------------------------------------------------

    #[test]
    fn ormap_put_get_remove() {
        let mut m = ORMap::new();
        let _ = m.put(A, "k1", 1u32);
        let _ = m.put(A, "k2", 2u32);
        assert_eq!(m.get(&"k1"), vec![&1]);
        assert_eq!(m.len(), 2);
        let _ = m.remove(&"k1");
        assert!(!m.contains_key(&"k1"));
        assert_eq!(m.len(), 1);
        // Re-insert after removal works.
        let _ = m.put(B, "k1", 3u32);
        assert_eq!(m.get(&"k1"), vec![&3]);
    }

    #[test]
    fn ormap_concurrent_puts_both_visible() {
        let mut a = ORMap::new();
        let mut b = ORMap::new();
        let da = a.put(A, "k", 1u32);
        let db = b.put(B, "k", 2u32);
        a.join_assign(db);
        b.join_assign(da);
        assert_eq!(a, b);
        assert_eq!(a.get(&"k"), vec![&1, &2], "multi-value leaf keeps both");
        // A sequential overwrite supersedes both.
        let d = a.put(A, "k", 9u32);
        b.join_assign(d);
        assert_eq!(b.get(&"k"), vec![&9]);
    }

    #[test]
    fn ormap_put_wins_concurrent_key_remove() {
        let mut a = ORMap::new();
        let mut b = ORMap::new();
        let d = a.put(A, "k", 1u32);
        b.join_assign(d);
        let d_rm = a.remove(&"k");
        let d_put = b.put(B, "k", 2u32);
        a.join_assign(d_put);
        b.join_assign(d_rm);
        assert_eq!(a, b);
        assert_eq!(a.get(&"k"), vec![&2], "concurrent put survives remove");
    }

    #[test]
    fn ormap_remove_delta_is_pure_context() {
        let model = SizeModel::compact();
        let mut m = ORMap::new();
        let _ = m.put(A, "key-with-a-long-name".to_string(), "x".repeat(100));
        let d = m.remove(&"key-with-a-long-name".to_string());
        assert_eq!(d.0.store.len(), 0, "no tombstone payload");
        assert!(d.size_bytes(&model) <= 2 * model.vector_entry_bytes());
    }

    #[test]
    fn ormap_op_contract_and_laws() {
        let mut m = ORMap::new();
        let _ = m.put(A, 1u8, 10u32);
        let _ = m.put(B, 2u8, 20u32);
        check_crdt_op(&m, &ORMapOp::Put(A, 1, 11));
        check_crdt_op(&m, &ORMapOp::Remove(2));
        check_crdt_op(&m, &ORMapOp::Clear);
        let mut m2 = m.clone();
        let _ = m2.remove(&1);
        let mut m3 = ORMap::new();
        let _ = m3.put(C, 3u8, 30u32);
        let j = m2.clone().join(m3.clone());
        check_all_laws(&[ORMap::bottom(), m, m2, m3, j]);
    }

    #[test]
    fn ormap_delta_ships_removals_to_stale_peers() {
        let mut fresh = ORMap::new();
        let d = fresh.put(A, "k", 1u32);
        let mut stale = ORMap::new();
        stale.join_assign(d);
        let _ = fresh.remove(&"k");
        let delta = fresh.delta(&stale);
        assert!(!delta.is_bottom());
        stale.join_assign(delta);
        assert_eq!(stale, fresh);
        assert!(!stale.contains_key(&"k"));
    }

    // -- ORSetMap (nested) ------------------------------------------------------

    #[test]
    fn orsetmap_basic_nesting() {
        let mut m = ORSetMap::new();
        let _ = m.add(A, "tags", 1u32);
        let _ = m.add(A, "tags", 2u32);
        let _ = m.add(A, "refs", 9u32);
        assert_eq!(m.get(&"tags"), BTreeSet::from([&1, &2]));
        let _ = m.remove_elem(&"tags", &1);
        assert_eq!(m.get(&"tags"), BTreeSet::from([&2]));
        let _ = m.remove_key(&"tags");
        assert!(!m.contains_key(&"tags"));
        assert!(m.contains_key(&"refs"));
    }

    #[test]
    fn orsetmap_add_survives_concurrent_key_remove() {
        let mut a = ORSetMap::new();
        let mut b = ORSetMap::new();
        let d = a.add(A, "k", 1u32);
        b.join_assign(d);
        let d_rm = a.remove_key(&"k");
        let d_add = b.add(B, "k", 2u32);
        a.join_assign(d_add);
        b.join_assign(d_rm);
        assert_eq!(a, b);
        assert_eq!(a.get(&"k"), BTreeSet::from([&2]), "add resurrects the key");
    }

    #[test]
    fn orsetmap_op_contract_and_laws() {
        let mut m = ORSetMap::new();
        let _ = m.add(A, 1u8, 10u32);
        let _ = m.add(B, 1u8, 20u32);
        check_crdt_op(&m, &ORSetMapOp::Add(C, 2, 30));
        check_crdt_op(&m, &ORSetMapOp::RemoveElem(1, 10));
        check_crdt_op(&m, &ORSetMapOp::RemoveKey(1));
        let mut m2 = m.clone();
        let _ = m2.remove_key(&1);
        check_all_laws(&[ORSetMap::bottom(), m, m2]);
    }

    // -- RWSet -------------------------------------------------------------------

    #[test]
    fn rwset_add_remove_sequential() {
        let mut s = RWSet::new();
        let _ = s.add(A, "x");
        assert!(s.contains(&"x"));
        let _ = s.remove(A, "x");
        assert!(!s.contains(&"x"));
        let _ = s.add(A, "x");
        assert!(s.contains(&"x"), "re-add after remove works");
    }

    #[test]
    fn rwset_remove_wins_concurrent_add() {
        let mut a = RWSet::new();
        let mut b = RWSet::new();
        // Shared history: both know "x" present.
        let d = a.add(A, "x");
        b.join_assign(d);
        // Concurrently: A removes, B re-adds.
        let da = a.remove(A, "x");
        let db = b.add(B, "x");
        a.join_assign(db);
        b.join_assign(da);
        assert_eq!(a, b);
        assert!(!a.contains(&"x"), "remove wins — dual of AWSet");
    }

    #[test]
    fn rwset_vs_awset_on_the_same_schedule() {
        use crate::AWSet;
        // The same concurrent add/remove race, on both set flavors.
        let (mut aw_a, mut aw_b) = (AWSet::new(), AWSet::new());
        let d = aw_a.add(A, 1u8);
        aw_b.join_assign(d);
        let d_rm = aw_a.remove(&1);
        let d_add = aw_b.add(B, 1u8);
        aw_a.join_assign(d_add);
        aw_b.join_assign(d_rm);
        assert!(aw_a.contains(&1), "AWSet: add wins");

        let (mut rw_a, mut rw_b) = (RWSet::new(), RWSet::new());
        let d = rw_a.add(A, 1u8);
        rw_b.join_assign(d);
        let d_rm = rw_a.remove(A, 1u8);
        let d_add = rw_b.add(B, 1u8);
        rw_a.join_assign(d_add);
        rw_b.join_assign(d_rm);
        assert!(!rw_a.contains(&1), "RWSet: remove wins");
    }

    #[test]
    fn rwset_op_contract_and_laws() {
        let mut s = RWSet::new();
        let _ = s.add(A, 1u8);
        let _ = s.add(B, 2u8);
        check_crdt_op(&s, &RWSetOp::Add(A, 3));
        check_crdt_op(&s, &RWSetOp::Remove(B, 1));
        let mut s2 = s.clone();
        let _ = s2.remove(A, 2);
        check_all_laws(&[RWSet::bottom(), s, s2]);
    }

    // -- DWFlag ---------------------------------------------------------------------

    #[test]
    fn dwflag_disable_wins() {
        let mut a = DWFlag::new();
        let mut b = DWFlag::new();
        let d = a.enable(A);
        b.join_assign(d);
        let da = a.disable(A);
        let db = b.enable(B);
        a.join_assign(db);
        b.join_assign(da);
        assert_eq!(a, b);
        assert!(!a.is_enabled(), "disable wins concurrent enable");
    }

    #[test]
    fn dwflag_vs_ewflag_on_the_same_schedule() {
        use crate::EWFlag;
        let (mut ew_a, mut ew_b) = (EWFlag::new(), EWFlag::new());
        let d = ew_a.enable(A);
        ew_b.join_assign(d);
        let d_dis = ew_a.disable();
        let d_en = ew_b.enable(B);
        ew_a.join_assign(d_en);
        ew_b.join_assign(d_dis);
        assert!(ew_a.is_enabled(), "EWFlag: enable wins");

        let (mut dw_a, mut dw_b) = (DWFlag::new(), DWFlag::new());
        let d = dw_a.enable(A);
        dw_b.join_assign(d);
        let d_dis = dw_a.disable(A);
        let d_en = dw_b.enable(B);
        dw_a.join_assign(d_en);
        dw_b.join_assign(d_dis);
        assert!(!dw_a.is_enabled(), "DWFlag: disable wins");
    }

    #[test]
    fn dwflag_sequential_enable_after_disable() {
        let mut f = DWFlag::new();
        assert!(!f.is_enabled());
        let _ = f.enable(A);
        assert!(f.is_enabled());
        let _ = f.disable(B);
        assert!(!f.is_enabled());
        let _ = f.enable(B);
        assert!(f.is_enabled());
    }

    #[test]
    fn dwflag_op_contract_and_laws() {
        let mut f = DWFlag::new();
        let _ = f.enable(A);
        check_crdt_op(&f, &DWFlagOp::Disable(B));
        check_crdt_op(&f, &DWFlagOp::Enable(B));
        let mut off = f.clone();
        let _ = off.disable(A);
        check_all_laws(&[DWFlag::bottom(), f, off]);
    }

    // -- generic decomposition over nesting ----------------------------------------

    #[test]
    fn nested_decomposition_counts_and_reconstructs() {
        let mut m = ORSetMap::new();
        let _ = m.add(A, 1u8, 10u32);
        let _ = m.add(B, 1u8, 20u32);
        let _ = m.add(A, 2u8, 30u32);
        let _ = m.remove_elem(&1, &10);
        // Dots: A1 (dead), B1 (live), A2 (live). Parts: 2 live + 1 dead.
        let parts = m.decompose();
        assert_eq!(parts.len(), 3);
        assert_eq!(m.irreducible_count(), 3);
        assert!(parts.iter().all(Decompose::is_irreducible));
        let rebuilt = parts
            .into_iter()
            .fold(ORSetMap::bottom(), |acc, p| acc.join(p));
        assert_eq!(rebuilt, m, "⊔⇓x = x through two map levels");
    }

    #[test]
    fn duplicated_reordered_deltas_converge_rwset() {
        let mut a = RWSet::new();
        let d1 = a.add(A, 1u8);
        let d2 = a.remove(A, 1u8);
        let d3 = a.add(A, 2u8);
        for order in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let deltas = [d1.clone(), d2.clone(), d3.clone()];
            let mut obs = RWSet::new();
            for &i in &order {
                obs.join_assign(deltas[i].clone());
                obs.join_assign(deltas[i].clone());
            }
            assert_eq!(obs, a, "order {order:?}");
        }
    }

    // -- epochs + cached frames -------------------------------------------------

    #[test]
    fn causal_epoch_and_frame_cache() {
        let mut m = ORMap::new();
        assert_eq!(m.0.mutation_epoch(), 0, "fresh bottom is epoch 0");
        let d = m.put(A, 1u8, 10u32);
        let e1 = m.0.mutation_epoch();
        assert_ne!(e1, 0);
        // Covered delta: no change, no epoch bump.
        m.join_assign(d.clone());
        assert_eq!(m.0.mutation_epoch(), e1);
        // The cached frame matches a from-scratch encode and survives
        // no-op joins.
        let frame = m.encode_frame();
        m.join_assign(d);
        assert_eq!(m.encode_frame(), frame);
        assert_eq!(m.to_bytes(), frame.as_ref());
        // A real mutation invalidates it.
        let _ = m.remove(&1);
        assert_ne!(m.0.mutation_epoch(), e1);
        assert_ne!(m.encode_frame(), frame);
        assert_eq!(m.encode_frame().as_ref(), m.to_bytes());
    }
}
