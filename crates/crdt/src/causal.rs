//! Causal (dot-store) CRDTs — removals without tombstone *values*.
//!
//! The paper's running examples are grow-only; its conclusion notes the
//! techniques "can be extended to more complex ones". This module carries
//! the extension out for the causal CRDTs of the delta-state literature
//! (Almeida, Shoker, Baquero — the paper's \[13\]/\[14\]): state is a **dot
//! store** (unique event identifiers mapped to payload) paired with a
//! **causal context** (the set of all event identifiers ever observed).
//! The join keeps an entry iff the peer also has it or has *not yet heard
//! of it* — so a dot present in a context but absent from a store acts as
//! a removal, with no per-element tombstone data.
//!
//! The decomposition theory extends cleanly:
//!
//! * join-irreducibles are **live parts** `({d ↦ v}, {d})` and **dead
//!   parts** `(∅, {d})`;
//! * `⇓x` = one live part per store entry + one dead part per
//!   context-only dot — unique and irredundant;
//! * a live part `⊑ y` iff `d ∈ ctx(y)`; a dead part `⊑ y` iff
//!   `d ∈ ctx(y) ∧ d ∉ store(y)` — so the *generic* optimal delta
//!   `Δ(a,b) = ⊔{ p ∈ ⇓a | p ⋢ b }` automatically ships exactly the new
//!   events plus the removals the peer hasn't applied yet.
//!
//! This module holds the [`CausalContext`] and the three types whose
//! store is a plain `Dot ↪ V` ([`DotFun`]): [`AWSet`] (add-wins set),
//! [`EWFlag`] (enable-wins flag) and [`CCounter`] (a resettable causal
//! counter). The lattice itself — join, decomposition, optimal delta,
//! wire encoding, cached frames — is [`Causal`], defined once for every
//! store shape in [`crate::dotstores`]; all three run unchanged under
//! every synchronization protocol in `crdt-sync`, including BP+RR.
//!
//! The context is stored *flat*: sorted, coalesced
//! `(replica, start, len)` runs in one contiguous buffer
//! ([`crate::flat::DotRuns`]). The wire format's clock/cloud split is
//! recomputed from the runs at encode time (a run starting at sequence 1
//! *is* a clock entry), byte for byte.

use std::collections::BTreeSet;

use crdt_lattice::{Dot, ReplicaId, SizeModel, Sizeable, VClock, WireEncode};

use crate::dotstores::{Causal, DotFun};
use crate::flat::DotRuns;
use crate::Crdt;

// ---------------------------------------------------------------------------
// Causal context
// ---------------------------------------------------------------------------

/// The set of all dots a replica has ever observed, stored compactly as
/// sorted, coalesced `(replica, start, len)` runs in one contiguous
/// buffer. The wire format's vector-clock prefix / dot-cloud split is
/// recomputed from the runs on encode (a run starting at sequence 1 is a
/// clock entry; every other run expands to cloud dots), so the encoding
/// is byte-identical to the nested representation this replaced.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CausalContext {
    runs: DotRuns,
}

impl CausalContext {
    /// The empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// A context holding exactly one dot.
    pub fn singleton(dot: Dot) -> Self {
        let mut c = Self::new();
        c.insert(dot);
        c
    }

    /// Has this dot been observed?
    pub fn contains(&self, dot: &Dot) -> bool {
        self.runs.contains(dot)
    }

    /// Observe a dot (coalescing runs opportunistically).
    pub fn insert(&mut self, dot: Dot) -> bool {
        self.runs.insert(dot)
    }

    /// The next fresh dot for `replica` (used by mutators at the owning
    /// replica, whose own history is always contiguous).
    pub fn next_dot(&mut self, replica: ReplicaId) -> Dot {
        let dot = Dot::new(replica, self.runs.prefix_end(replica) + 1);
        self.insert(dot);
        dot
    }

    /// Number of observed dots.
    pub fn len(&self) -> u64 {
        self.runs.len()
    }

    /// Is the context empty?
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Iterate every observed dot (clock prefixes then cloud dots — the
    /// historical nested-representation order).
    pub fn iter(&self) -> impl Iterator<Item = Dot> + '_ {
        let expand = |r: &crate::flat::DotRun| {
            let replica = r.replica;
            (r.start..=r.end()).map(move |s| Dot::new(replica, s))
        };
        self.runs
            .runs()
            .iter()
            .filter(|r| r.start == 1)
            .flat_map(expand)
            .chain(
                self.runs
                    .runs()
                    .iter()
                    .filter(|r| r.start != 1)
                    .flat_map(expand),
            )
    }

    /// Set inclusion. A linear two-pointer scan over both run lists;
    /// never allocates.
    pub fn subset_of(&self, other: &CausalContext) -> bool {
        self.runs.subset_of(&other.runs)
    }

    /// The dots of `self` that `other` has not observed.
    pub(crate) fn difference(&self, other: &CausalContext) -> CausalContext {
        let news = self.runs.dots().filter(|d| !other.contains(d));
        CausalContext {
            runs: DotRuns::from_sorted(news),
        }
    }

    /// Union with `other`; returns `true` if this context grew. The
    /// already-covered case is a no-allocation subset scan.
    // lint: allow(epoch) — CausalContext carries no tag; Causal<S> and the engines bump around every union
    pub fn union(&mut self, other: &CausalContext) -> bool {
        self.runs.union(&other.runs)
    }

    /// Wire size: clock entries + cloud dots (same model as the nested
    /// representation: one `(id, seq)` entry per contiguous prefix, one
    /// vector entry per out-of-band dot).
    pub fn size_bytes(&self, model: &SizeModel) -> u64 {
        self.runs
            .runs()
            .iter()
            .map(|r| {
                if r.start == 1 {
                    model.id_bytes + 8
                } else {
                    r.len * model.vector_entry_bytes()
                }
            })
            .sum()
    }
}

impl WireEncode for CausalContext {
    fn encode(&self, out: &mut Vec<u8>) {
        // Clock: one `(replica, end)` entry per prefix run, in replica
        // order — exactly the nested representation's `VClock` encoding.
        let runs = self.runs.runs();
        let clock_entries = runs.iter().filter(|r| r.start == 1).count() as u64;
        clock_entries.encode(out);
        for r in runs.iter().filter(|r| r.start == 1) {
            r.replica.encode(out);
            r.end().encode(out);
        }
        // Cloud: every non-prefix dot, in (replica, seq) order — exactly
        // the nested `BTreeSet<Dot>` encoding.
        let cloud_dots: u64 = runs.iter().filter(|r| r.start != 1).map(|r| r.len).sum();
        cloud_dots.encode(out);
        for r in runs.iter().filter(|r| r.start != 1) {
            for s in r.start..=r.end() {
                Dot::new(r.replica, s).encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, crdt_lattice::CodecError> {
        // The clock decodes through `VClock` (which drops zero entries,
        // like the nested representation's map join did), then becomes
        // prefix runs directly — its entries arrive replica-sorted.
        let clock = VClock::decode(input)?;
        let mut runs = DotRuns::new();
        for (r, s) in clock.iter() {
            if s >= 1 {
                runs.push_prefix_run(r, s);
            }
        }
        let mut ctx = CausalContext { runs };
        // Cloud: same hostile-length guard as `BTreeSet<Dot>` — a
        // claimed count can never exceed the remaining input.
        let len = usize::decode(input)?;
        if len > input.len() {
            return Err(crdt_lattice::CodecError::UnexpectedEnd);
        }
        for _ in 0..len {
            ctx.insert(Dot::decode(input)?);
        }
        Ok(ctx)
    }
}

// ---------------------------------------------------------------------------
// AWSet
// ---------------------------------------------------------------------------

/// Operations on an [`AWSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AWSetOp<E> {
    /// Add an element at a replica (add-wins over concurrent removes).
    Add(ReplicaId, E),
    /// Remove every visible copy of an element.
    Remove(E),
    /// Remove everything currently visible.
    Clear,
}

/// An add-wins observed-remove set: elements can be added and removed any
/// number of times; concurrent add/remove resolves to *add*.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AWSet<E: Ord>(Causal<DotFun<E>>);

impl<E: Ord> Default for AWSet<E> {
    fn default() -> Self {
        AWSet(Causal::default())
    }
}

crate::macros::delegate_join!(AWSet<E> where [E: Ord + Clone + core::fmt::Debug]);
crate::macros::delegate_decompose!(AWSet<E> where [E: Ord + Clone + core::fmt::Debug]);
crate::macros::delegate_size!(AWSet<E> where [E: Ord + Clone + core::fmt::Debug + Sizeable]);
crate::macros::delegate_wire!(AWSet<E> where
    [E: Ord + Clone + core::fmt::Debug + crdt_lattice::WireEncode]);

impl<E: Ord + Clone + core::fmt::Debug> AWSet<E> {
    /// A fresh, empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `e` at `replica`, superseding existing copies (so a later
    /// remove of an *older* copy cannot erase this add). Returns the
    /// optimal delta.
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn add(&mut self, replica: ReplicaId, e: E) -> Self {
        let retired = self.0.retire_where(|_, v| *v == e);
        AWSet(
            self.0
                .record(retired, replica, |store, dot| store.insert(dot, e.clone())),
        )
    }

    /// Remove all visible copies of `e`. Returns the optimal delta (pure
    /// context — no tombstone values).
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn remove(&mut self, e: &E) -> Self {
        AWSet(self.0.retire_where(|_, v| v == e))
    }

    /// Remove everything visible. Returns the optimal delta.
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn clear(&mut self) -> Self {
        AWSet(self.0.retire_where(|_, _| true))
    }

    /// Membership test.
    pub fn contains(&self, e: &E) -> bool {
        self.0.store().values().any(|v| v == e)
    }

    /// Distinct visible elements, in order.
    pub fn elements(&self) -> BTreeSet<&E> {
        self.0.store().values().collect()
    }

    /// Number of distinct visible elements.
    pub fn len(&self) -> usize {
        self.elements().len()
    }

    /// Is the set observably empty?
    pub fn is_empty(&self) -> bool {
        self.0.store().is_empty()
    }
}

impl<E: Ord + Clone + core::fmt::Debug + Sizeable> Crdt for AWSet<E> {
    type Op = AWSetOp<E>;
    type Value = BTreeSet<E>;

    fn apply(&mut self, op: &Self::Op) -> Self {
        match op {
            AWSetOp::Add(r, e) => self.add(*r, e.clone()),
            AWSetOp::Remove(e) => self.remove(e),
            AWSetOp::Clear => self.clear(),
        }
    }

    fn value(&self) -> BTreeSet<E> {
        self.0.store().values().cloned().collect()
    }

    fn op_size_bytes(op: &Self::Op, model: &SizeModel) -> u64 {
        match op {
            AWSetOp::Add(_, e) => model.id_bytes + e.payload_bytes(model),
            AWSetOp::Remove(e) => e.payload_bytes(model),
            AWSetOp::Clear => 1,
        }
    }

    fn mutation_epoch(&self) -> Option<u64> {
        Some(self.0.mutation_epoch())
    }
}

// ---------------------------------------------------------------------------
// EWFlag
// ---------------------------------------------------------------------------

/// Operations on an [`EWFlag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EWFlagOp {
    /// Set the flag (wins over concurrent disables).
    Enable(ReplicaId),
    /// Clear the flag.
    Disable,
}

/// An enable-wins flag: concurrent enable/disable resolves to *enabled*.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EWFlag(Causal<DotFun<()>>);

crate::macros::delegate_wire!(EWFlag where []);
crate::macros::delegate_join!(EWFlag where []);
crate::macros::delegate_decompose!(EWFlag where []);
crate::macros::delegate_size!(EWFlag where []);

impl EWFlag {
    /// A fresh, disabled flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable at `replica`, returning the optimal delta.
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn enable(&mut self, replica: ReplicaId) -> Self {
        let retired = self.0.retire_where(|_, _| true);
        EWFlag(
            self.0
                .record(retired, replica, |store, dot| store.insert(dot, ())),
        )
    }

    /// Disable, returning the optimal delta.
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn disable(&mut self) -> Self {
        EWFlag(self.0.retire_where(|_, _| true))
    }

    /// Is the flag set?
    pub fn is_enabled(&self) -> bool {
        !self.0.store().is_empty()
    }
}

impl Crdt for EWFlag {
    type Op = EWFlagOp;
    type Value = bool;

    fn apply(&mut self, op: &Self::Op) -> Self {
        match op {
            EWFlagOp::Enable(r) => self.enable(*r),
            EWFlagOp::Disable => self.disable(),
        }
    }

    fn value(&self) -> bool {
        self.is_enabled()
    }

    fn op_size_bytes(op: &Self::Op, model: &SizeModel) -> u64 {
        match op {
            EWFlagOp::Enable(_) => model.id_bytes,
            EWFlagOp::Disable => 1,
        }
    }

    fn mutation_epoch(&self) -> Option<u64> {
        Some(self.0.mutation_epoch())
    }
}

// ---------------------------------------------------------------------------
// CCounter
// ---------------------------------------------------------------------------

/// Operations on a [`CCounter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CCounterOp {
    /// Add `i64` (possibly negative) to the replica's contribution.
    Add(ReplicaId, i64),
    /// Reset the counter to zero (removes all visible contributions;
    /// concurrent `Add`s win).
    Reset,
}

/// A resettable causal counter: per-replica contributions live in dots,
/// so `Reset` is a pure-context removal and concurrent increments
/// survive it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CCounter(Causal<DotFun<i64>>);

crate::macros::delegate_wire!(CCounter where []);
crate::macros::delegate_join!(CCounter where []);
crate::macros::delegate_decompose!(CCounter where []);
crate::macros::delegate_size!(CCounter where []);

impl CCounter {
    /// A fresh, zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to `replica`'s contribution (superseding that replica's
    /// previous dot). Returns the optimal delta.
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn add(&mut self, replica: ReplicaId, by: i64) -> Self {
        let own = self.0.store().iter().filter(|(d, _)| d.replica == replica);
        let total = own.map(|(_, v)| *v).sum::<i64>() + by;
        let retired = self.0.retire_where(|d, _| d.replica == replica);
        CCounter(
            self.0
                .record(retired, replica, |store, dot| store.insert(dot, total)),
        )
    }

    /// Reset to zero, returning the optimal delta.
    #[must_use = "the returned delta must be buffered for synchronization"]
    pub fn reset(&mut self) -> Self {
        CCounter(self.0.retire_where(|_, _| true))
    }

    /// The counter value: the sum of visible contributions.
    pub fn total(&self) -> i64 {
        self.0.store().values().sum()
    }
}

impl Crdt for CCounter {
    type Op = CCounterOp;
    type Value = i64;

    fn apply(&mut self, op: &Self::Op) -> Self {
        match op {
            CCounterOp::Add(r, by) => self.add(*r, *by),
            CCounterOp::Reset => self.reset(),
        }
    }

    fn value(&self) -> i64 {
        self.total()
    }

    fn op_size_bytes(op: &Self::Op, model: &SizeModel) -> u64 {
        match op {
            CCounterOp::Add(_, _) => model.id_bytes + 8,
            CCounterOp::Reset => 1,
        }
    }

    fn mutation_epoch(&self) -> Option<u64> {
        Some(self.0.mutation_epoch())
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
    use crdt_lattice::{Bottom, Lattice};

    const A: ReplicaId = ReplicaId(0);
    const B: ReplicaId = ReplicaId(1);

    // -- causal context ----------------------------------------------------

    #[test]
    fn context_compacts_contiguous_dots() {
        let mut c = CausalContext::new();
        c.insert(Dot::new(A, 2)); // gap: its own run
        c.insert(Dot::new(A, 1)); // fills the gap: runs coalesce
        assert!(c.contains(&Dot::new(A, 1)));
        assert!(c.contains(&Dot::new(A, 2)));
        assert_eq!(c.len(), 2);
        assert_eq!(c.runs.runs().len(), 1, "runs coalesced into one prefix");
        assert_eq!(c.runs.prefix_end(A), 2);
    }

    #[test]
    fn context_union_and_subset() {
        let mut a = CausalContext::new();
        a.insert(Dot::new(A, 1));
        let mut b = a.clone();
        b.insert(Dot::new(B, 3)); // non-contiguous
        assert!(a.subset_of(&b));
        assert!(!b.subset_of(&a));
        assert!(a.union(&b));
        assert!(b.subset_of(&a) && a.subset_of(&b));
        assert!(!a.union(&b), "idempotent");
    }

    #[test]
    fn context_iter_covers_everything() {
        let mut c = CausalContext::new();
        c.insert(Dot::new(A, 1));
        c.insert(Dot::new(A, 2));
        c.insert(Dot::new(B, 5));
        let dots: BTreeSet<Dot> = c.iter().collect();
        assert_eq!(dots.len(), 3);
        assert!(dots.contains(&Dot::new(B, 5)));
    }

    #[test]
    fn context_encode_splits_clock_and_cloud() {
        // The wire format is the nested representation's: a vector clock
        // of contiguous prefixes, then the out-of-band dots as a sorted
        // set. Build the same context both ways and compare bytes.
        let mut c = CausalContext::new();
        c.insert(Dot::new(A, 1));
        c.insert(Dot::new(A, 2));
        c.insert(Dot::new(A, 4)); // cloud: gap at 3
        c.insert(Dot::new(B, 7)); // cloud: no prefix for B
        let mut expected = Vec::new();
        let clock: VClock = [(A, 2u64)].into_iter().collect();
        clock.encode(&mut expected);
        let cloud: BTreeSet<Dot> = [Dot::new(A, 4), Dot::new(B, 7)].into_iter().collect();
        cloud.encode(&mut expected);
        assert_eq!(c.to_bytes(), expected);
        let back = CausalContext::from_bytes(&c.to_bytes()).expect("roundtrip");
        assert_eq!(back, c);
    }

    // -- AWSet semantics ----------------------------------------------------

    #[test]
    fn add_remove_add_again() {
        let mut s = AWSet::new();
        let _ = s.add(A, "x");
        assert!(s.contains(&"x"));
        let _ = s.remove(&"x");
        assert!(!s.contains(&"x"));
        // Unlike 2P-sets, re-adding works.
        let _ = s.add(A, "x");
        assert!(s.contains(&"x"));
    }

    #[test]
    fn concurrent_add_wins_over_remove() {
        let mut a = AWSet::new();
        let mut b = AWSet::new();
        // Shared history: both know "x" added by A.
        let d = a.add(A, "x");
        b.join_assign(d);
        // Concurrently: A removes x, B re-adds x.
        let da = a.remove(&"x");
        let db = b.add(B, "x");
        a.join_assign(db);
        b.join_assign(da);
        assert_eq!(a, b);
        assert!(a.contains(&"x"), "add wins");
    }

    #[test]
    fn remove_needs_no_tombstone_values() {
        use crdt_lattice::StateSize;
        let model = SizeModel::compact();
        let mut s: AWSet<String> = AWSet::new();
        let _ = s.add(A, "a-large-element-payload".repeat(10));
        let d = s.remove(&"a-large-element-payload".repeat(10));
        // The removal delta carries only context (dots), no element data.
        assert_eq!(d.0.store().len(), 0);
        assert!(d.size_bytes(&model) <= 2 * model.vector_entry_bytes());
    }

    #[test]
    fn clear_then_concurrent_add_survives() {
        let mut a = AWSet::new();
        let mut b = AWSet::new();
        let d = a.add(A, 1u32);
        b.join_assign(d);
        let d_clear = a.clear();
        let d_add = b.add(B, 2u32);
        a.join_assign(d_add);
        b.join_assign(d_clear);
        assert_eq!(a, b);
        assert_eq!(a.value(), BTreeSet::from([2]));
    }

    #[test]
    fn duplicated_reordered_deltas_converge() {
        let mut a = AWSet::new();
        let d1 = a.add(A, 1u32);
        let d2 = a.remove(&1);
        let d3 = a.add(A, 2u32);
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let deltas = [d1.clone(), d2.clone(), d3.clone()];
            let mut obs = AWSet::new();
            for &i in &order {
                obs.join_assign(deltas[i].clone());
                obs.join_assign(deltas[i].clone()); // duplicate
            }
            assert_eq!(obs, a, "order {order:?}");
        }
    }

    #[test]
    fn awset_op_contract() {
        let mut s = AWSet::new();
        let _ = s.add(A, 1u32);
        let _ = s.add(B, 2u32);
        check_crdt_op(&s, &AWSetOp::Add(A, 3));
        check_crdt_op(&s, &AWSetOp::Add(A, 1)); // re-add superseding
        check_crdt_op(&s, &AWSetOp::Remove(2));
        check_crdt_op(&s, &AWSetOp::Clear);
    }

    #[test]
    fn awset_laws() {
        let mut s1 = AWSet::new();
        let _ = s1.add(A, 1u8);
        let mut s2 = s1.clone();
        let _ = s2.remove(&1);
        let mut s3 = AWSet::new();
        let _ = s3.add(B, 2u8);
        let _ = s3.add(B, 1u8);
        let merged = s2.clone().join(s3.clone());
        let samples = vec![AWSet::bottom(), s1, s2, s3, merged];
        check_all_laws(&samples);
    }

    #[test]
    fn awset_delta_ships_removals_to_stale_peers() {
        use crdt_lattice::Decompose;
        let mut fresh = AWSet::new();
        let d = fresh.add(A, 7u32);
        let mut stale = AWSet::new();
        stale.join_assign(d);
        let _ = fresh.remove(&7);
        // Δ must inform the stale peer of the removal even though the dot
        // is inside fresh's context (dead-part case d ∈ b.store).
        let delta = fresh.delta(&stale);
        assert!(!delta.is_bottom());
        stale.join_assign(delta);
        assert_eq!(stale, fresh);
        assert!(!stale.contains(&7));
    }

    // -- EWFlag --------------------------------------------------------------

    #[test]
    fn flag_enable_wins() {
        let mut a = EWFlag::new();
        let mut b = EWFlag::new();
        let d = a.enable(A);
        b.join_assign(d);
        let da = a.disable();
        let db = b.enable(B);
        a.join_assign(db);
        b.join_assign(da);
        assert_eq!(a, b);
        assert!(a.is_enabled(), "enable wins concurrent disable");
    }

    #[test]
    fn flag_op_contract_and_laws() {
        let mut f = EWFlag::new();
        let _ = f.enable(A);
        check_crdt_op(&f, &EWFlagOp::Enable(B));
        check_crdt_op(&f, &EWFlagOp::Disable);
        let mut off = f.clone();
        let _ = off.disable();
        check_all_laws(&[EWFlag::bottom(), f, off]);
    }

    // -- CCounter -------------------------------------------------------------

    #[test]
    fn ccounter_adds_and_resets() {
        let mut c = CCounter::new();
        let _ = c.add(A, 5);
        let _ = c.add(B, 3);
        let _ = c.add(A, -2);
        assert_eq!(c.total(), 6);
        let _ = c.reset();
        assert_eq!(c.total(), 0);
        let _ = c.add(A, 1);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn concurrent_add_survives_reset() {
        let mut a = CCounter::new();
        let mut b = CCounter::new();
        let d = a.add(A, 10);
        b.join_assign(d);
        let d_reset = a.reset();
        let d_add = b.add(B, 4);
        a.join_assign(d_add);
        b.join_assign(d_reset);
        assert_eq!(a, b);
        assert_eq!(a.total(), 4, "the reset only covers observed dots");
    }

    #[test]
    fn ccounter_compresses_own_contribution() {
        // Repeated adds at one replica keep a single live dot — the
        // compression GCounter gets from `max`, recovered causally.
        let mut c = CCounter::new();
        for _ in 0..10 {
            let _ = c.add(A, 1);
        }
        assert_eq!(c.0.store().len(), 1);
        assert_eq!(c.total(), 10);
    }

    #[test]
    fn ccounter_op_contract_and_laws() {
        let mut c = CCounter::new();
        let _ = c.add(A, 2);
        check_crdt_op(&c, &CCounterOp::Add(B, -7));
        check_crdt_op(&c, &CCounterOp::Add(A, 3));
        check_crdt_op(&c, &CCounterOp::Reset);
        let mut c2 = c.clone();
        let _ = c2.reset();
        check_all_laws(&[CCounter::bottom(), c, c2]);
    }

    // -- decomposition ---------------------------------------------------------

    #[test]
    fn decomposition_has_live_and_dead_parts() {
        use crdt_lattice::Decompose;
        let mut s = AWSet::new();
        let _ = s.add(A, 1u8);
        let _ = s.add(A, 2u8);
        let _ = s.remove(&1);
        // Dots: A1 (dead, superseded? add(1) → A1; add(2) → A2; remove(1)
        // kills A1). Parts: live A2, dead A1.
        let parts = s.decompose();
        assert_eq!(parts.len(), 2);
        assert_eq!(s.irreducible_count(), 2);
        let live = parts.iter().filter(|p| p.0.store().len() == 1).count();
        let dead = parts.iter().filter(|p| p.0.store().is_empty()).count();
        assert_eq!((live, dead), (1, 1));
        assert!(parts.iter().all(Decompose::is_irreducible));
    }

    // -- mutation epochs + cached frames ------------------------------------

    #[test]
    fn epoch_tracks_data_changes_only() {
        let mut s = AWSet::new();
        assert_eq!(s.0.mutation_epoch(), 0, "fresh bottom is epoch 0");
        let d = s.add(A, 1u32);
        let e1 = s.0.mutation_epoch();
        assert_ne!(e1, 0);
        assert_ne!(d.0.mutation_epoch(), 0, "deltas carry their own epoch");
        // Joining an already-covered delta changes nothing: same epoch.
        s.join_assign(d.clone());
        assert_eq!(s.0.mutation_epoch(), e1);
        // A real change bumps it.
        let _ = s.add(B, 2u32);
        assert_ne!(s.0.mutation_epoch(), e1);
        // Clones share the epoch (they hold the same data).
        let c = s.clone();
        assert_eq!(c.0.mutation_epoch(), s.0.mutation_epoch());
    }

    #[test]
    fn cached_frame_matches_structural_encode() {
        let mut s = AWSet::new();
        let _ = s.add(A, 1u32);
        let _ = s.add(B, 2u32);
        let frame = s.encode_frame();
        // Second encode hits the cache; bytes identical either way.
        assert_eq!(frame, s.encode_frame());
        assert_eq!(frame, s.to_bytes());
        let mut structural = Vec::new();
        s.0.encode_structural(&mut structural);
        assert_eq!(frame, structural);
        // Mutation invalidates: the new frame reflects the new state.
        let _ = s.remove(&1);
        let fresh = s.encode_frame();
        assert_ne!(fresh, frame);
        let mut structural = Vec::new();
        s.0.encode_structural(&mut structural);
        assert_eq!(fresh, structural);
    }
}
