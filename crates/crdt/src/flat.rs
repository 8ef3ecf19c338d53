//! Flat building blocks for the causal types: compact dot runs and the
//! mutation-epoch frame cache.
//!
//! The causal CRDTs used to keep their state in nested
//! `BTreeMap`/`BTreeSet` structures — every `join` was a walk of
//! pointer-chased tree nodes and every encode rebuilt the wire frame
//! from scratch. This module provides the two primitives the flat
//! representation is built from:
//!
//! * [`DotRuns`] — a causal dot set stored as sorted, coalesced
//!   `(replica, start, len)` runs in one contiguous buffer. Membership
//!   is a binary search, union is a linear two-pointer merge over runs
//!   (with a no-allocation subset fast path), and a run starting at
//!   sequence 1 *is* the vector-clock entry of the wire format — the
//!   clock/cloud split is recomputed from the runs, never stored.
//! * [`StateTag`] — a mutation epoch plus a cached encoded frame.
//!   Every data-changing mutation stamps the owning state with a fresh
//!   epoch drawn from one process-wide counter, which invalidates the
//!   cached [`Bytes`] frame; encoding an unmutated state is then a
//!   memcpy (or, via `encode_frame`, a reference-count bump).
//!
//! Epochs are process-unique per state *version*: two states carrying
//! the same non-zero epoch are clones of the same unmutated value, so
//! any epoch-keyed cache (the frame cache here, the engine's
//! `state_hash` cache) can never alias two different states. Epoch `0`
//! is reserved for freshly constructed bottom values. Epoch values
//! never appear on the wire or in `Debug` output — they are
//! per-process bookkeeping, not replicated data.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crdt_lattice::{Bytes, Dot, ReplicaId};

// ---------------------------------------------------------------------------
// Dot runs
// ---------------------------------------------------------------------------

/// One maximal run of contiguous sequence numbers
/// `start ..= start + len - 1` produced by `replica`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct DotRun {
    /// The replica whose dots these are.
    pub replica: ReplicaId,
    /// First sequence number of the run (≥ 1).
    pub start: u64,
    /// Number of contiguous dots (≥ 1).
    pub len: u64,
}

impl DotRun {
    /// Last sequence number of the run.
    pub fn end(&self) -> u64 {
        self.start + self.len - 1
    }
}

/// A set of dots as sorted, coalesced runs in one contiguous buffer.
///
/// Invariants: runs are sorted by `(replica, start)`, every run has
/// `len ≥ 1` and `start ≥ 1`, and same-replica runs are disjoint with a
/// gap of at least one sequence number between them (adjacent runs are
/// coalesced on insert/union).
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct DotRuns {
    runs: Vec<DotRun>,
}

/// Append `run` to a sorted run list under construction, coalescing it
/// into the previous run when they overlap or are adjacent. `run` must
/// not start before the last appended run.
fn push_coalesced(runs: &mut Vec<DotRun>, run: DotRun) {
    if let Some(last) = runs.last_mut() {
        if last.replica == run.replica && run.start <= last.end().saturating_add(1) {
            let end = last.end().max(run.end());
            last.len = end - last.start + 1;
            return;
        }
    }
    runs.push(run);
}

impl DotRuns {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from dots fed in ascending `(replica, seq)` order.
    pub fn from_sorted(dots: impl Iterator<Item = Dot>) -> Self {
        let mut runs = DotRuns::new();
        for d in dots {
            runs.push_dot_sorted(d);
        }
        runs
    }

    /// The runs, sorted by `(replica, start)`.
    pub fn runs(&self) -> &[DotRun] {
        &self.runs
    }

    /// Is `dot` in the set? Sequence `0` is treated as always contained
    /// (dots start at 1; this mirrors the vector-clock convention that
    /// entry 0 means "nothing", so hostile zero dots normalize away).
    pub fn contains(&self, dot: &Dot) -> bool {
        if dot.seq == 0 {
            return true;
        }
        let i = self
            .runs
            .partition_point(|r| (r.replica, r.start) <= (dot.replica, dot.seq));
        i > 0 && {
            let r = &self.runs[i - 1];
            r.replica == dot.replica && dot.seq <= r.end()
        }
    }

    /// Insert one dot, coalescing with neighbors. Returns `true` if the
    /// set grew.
    pub fn insert(&mut self, dot: Dot) -> bool {
        if self.contains(&dot) {
            return false;
        }
        let i = self
            .runs
            .partition_point(|r| (r.replica, r.start) <= (dot.replica, dot.seq));
        let merge_prev = i > 0 && {
            let p = &self.runs[i - 1];
            p.replica == dot.replica && p.end() + 1 == dot.seq
        };
        let merge_next = i < self.runs.len() && {
            let n = &self.runs[i];
            n.replica == dot.replica && dot.seq.checked_add(1) == Some(n.start)
        };
        match (merge_prev, merge_next) {
            (true, true) => {
                let next_len = self.runs[i].len;
                self.runs[i - 1].len += 1 + next_len;
                self.runs.remove(i);
            }
            (true, false) => self.runs[i - 1].len += 1,
            (false, true) => {
                self.runs[i].start = dot.seq;
                self.runs[i].len += 1;
            }
            (false, false) => self.runs.insert(
                i,
                DotRun {
                    replica: dot.replica,
                    start: dot.seq,
                    len: 1,
                },
            ),
        }
        true
    }

    /// Append the prefix run `1 ..= end_seq` for `replica` during decode.
    /// Callers must feed replicas in strictly increasing order (the wire
    /// clock is replica-sorted) and skip `end_seq == 0`.
    // lint: allow(epoch) — context primitive owns no tag; the tagged wrapper bumps on every mutating path
    pub fn push_prefix_run(&mut self, replica: ReplicaId, end_seq: u64) {
        debug_assert!(end_seq >= 1);
        debug_assert!(self.runs.last().is_none_or(|r| r.replica < replica));
        self.runs.push(DotRun {
            replica,
            start: 1,
            len: end_seq,
        });
    }

    /// Append one dot during an in-order rebuild (callers feed dots in
    /// ascending `(replica, seq)` order), coalescing with the last run.
    /// Never inserts mid-buffer.
    // lint: allow(epoch) — context primitive owns no tag; the tagged wrapper bumps on every mutating path
    pub fn push_dot_sorted(&mut self, d: Dot) {
        push_coalesced(
            &mut self.runs,
            DotRun {
                replica: d.replica,
                start: d.seq,
                len: 1,
            },
        );
    }

    /// Total number of dots.
    pub fn len(&self) -> u64 {
        self.runs.iter().map(|r| r.len).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// End of the contiguous prefix `1 ..= n` for `replica` (0 if the
    /// replica's first run does not start at 1).
    pub fn prefix_end(&self, replica: ReplicaId) -> u64 {
        let i = self.runs.partition_point(|r| r.replica < replica);
        match self.runs.get(i) {
            Some(r) if r.replica == replica && r.start == 1 => r.end(),
            _ => 0,
        }
    }

    /// Every dot, in `(replica, seq)` order.
    pub fn dots(&self) -> impl Iterator<Item = Dot> + '_ {
        self.runs
            .iter()
            .flat_map(|r| (r.start..=r.end()).map(move |s| Dot::new(r.replica, s)))
    }

    /// Is every dot of `self` also in `other`? Linear two-pointer scan;
    /// never allocates.
    pub fn subset_of(&self, other: &DotRuns) -> bool {
        let mut j = 0;
        for r in &self.runs {
            while j < other.runs.len() {
                let o = &other.runs[j];
                if o.replica < r.replica || (o.replica == r.replica && o.end() < r.start) {
                    j += 1;
                } else {
                    break;
                }
            }
            // A canonical run is covered iff one run of `other` contains
            // it whole (other's same-replica runs have gaps between them).
            match other.runs.get(j) {
                Some(o) if o.replica == r.replica && o.start <= r.start && r.end() <= o.end() => {}
                _ => return false,
            }
        }
        true
    }

    /// Union `other` into `self`; returns `true` if `self` grew. The
    /// subset fast path is a no-allocation scan, so re-unioning an
    /// already-covered context is free.
    // lint: allow(epoch) — context primitive owns no tag; the tagged wrapper bumps on every mutating path
    pub fn union(&mut self, other: &DotRuns) -> bool {
        if other.subset_of(self) {
            return false;
        }
        let mut merged = Vec::with_capacity(self.runs.len() + other.runs.len());
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() && j < other.runs.len() {
            let a = self.runs[i];
            let b = other.runs[j];
            if (a.replica, a.start) <= (b.replica, b.start) {
                push_coalesced(&mut merged, a);
                i += 1;
            } else {
                push_coalesced(&mut merged, b);
                j += 1;
            }
        }
        for &r in &self.runs[i..] {
            push_coalesced(&mut merged, r);
        }
        for &r in &other.runs[j..] {
            push_coalesced(&mut merged, r);
        }
        self.runs = merged;
        true
    }
}

// ---------------------------------------------------------------------------
// Mutation epoch + cached wire frame
// ---------------------------------------------------------------------------

/// Process-wide epoch source. Starts at 1: epoch 0 is reserved for
/// freshly constructed bottom states.
static EPOCH: AtomicU64 = AtomicU64::new(1);

/// Draw a fresh, process-unique mutation epoch.
pub(crate) fn fresh_epoch() -> u64 {
    EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Mutation epoch plus cached encoded frame for one causal state.
///
/// The tag is bookkeeping, not data: the owning state excludes it from
/// `Debug`/`Eq`/`Ord`/`Hash`, and it never touches the wire. `Clone`
/// copies both the epoch and the cached frame (a clone holds the same
/// data, so the frame stays valid; `Bytes` makes it a refcount bump).
pub(crate) struct StateTag {
    epoch: u64,
    frame: Mutex<Option<(u64, Bytes)>>,
}

impl StateTag {
    /// A tag for state that already carries data (deltas, decoded
    /// values, decomposition parts): unique epoch, no cached frame.
    pub fn fresh() -> Self {
        StateTag {
            epoch: fresh_epoch(),
            frame: Mutex::new(None),
        }
    }

    /// The state's current mutation epoch (0 ⇔ untouched bottom).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Record a data-changing mutation: stamp a fresh epoch and drop the
    /// now-stale cached frame. Never allocates.
    pub fn note_mutation(&mut self) {
        self.epoch = fresh_epoch();
        match self.frame.get_mut() {
            Ok(slot) => *slot = None,
            Err(poisoned) => *poisoned.into_inner() = None,
        }
    }

    /// The cached frame, if one was stored at the current epoch.
    pub fn cached(&self) -> Option<Bytes> {
        let guard = self.frame.lock().unwrap_or_else(|p| p.into_inner());
        match &*guard {
            Some((epoch, frame)) if *epoch == self.epoch => Some(frame.clone()),
            _ => None,
        }
    }

    /// Store the encoded frame for the current epoch.
    pub fn store(&self, frame: Bytes) {
        let mut guard = self.frame.lock().unwrap_or_else(|p| p.into_inner());
        *guard = Some((self.epoch, frame));
    }
}

impl Default for StateTag {
    fn default() -> Self {
        StateTag {
            epoch: 0,
            frame: Mutex::new(None),
        }
    }
}

impl Clone for StateTag {
    fn clone(&self) -> Self {
        let frame = self.frame.lock().unwrap_or_else(|p| p.into_inner()).clone();
        StateTag {
            epoch: self.epoch,
            frame: Mutex::new(frame),
        }
    }
}

impl core::fmt::Debug for StateTag {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Deliberately constant: epochs are per-process and must never
        // leak into `Debug`-derived state hashes.
        f.write_str("StateTag(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ReplicaId = ReplicaId(0);
    const B: ReplicaId = ReplicaId(1);

    fn dots_of(r: &DotRuns) -> Vec<Dot> {
        r.dots().collect()
    }

    #[test]
    fn insert_coalesces_gap_fill() {
        let mut r = DotRuns::new();
        assert!(r.insert(Dot::new(A, 2)));
        assert!(r.insert(Dot::new(A, 4)));
        assert_eq!(r.runs().len(), 2);
        assert!(r.insert(Dot::new(A, 3)), "gap fill");
        assert_eq!(r.runs().len(), 1, "three runs coalesce into one");
        assert_eq!(r.len(), 3);
        assert!(!r.insert(Dot::new(A, 3)), "idempotent");
        assert!(r.contains(&Dot::new(A, 2)));
        assert!(!r.contains(&Dot::new(A, 1)));
        assert!(!r.contains(&Dot::new(A, 5)));
    }

    #[test]
    fn runs_are_per_replica() {
        let mut r = DotRuns::new();
        r.insert(Dot::new(B, 1));
        r.insert(Dot::new(A, 1));
        r.insert(Dot::new(A, 2));
        assert_eq!(r.runs().len(), 2);
        assert_eq!(r.prefix_end(A), 2);
        assert_eq!(r.prefix_end(B), 1);
        assert_eq!(
            dots_of(&r),
            vec![Dot::new(A, 1), Dot::new(A, 2), Dot::new(B, 1)]
        );
        let mut gap = DotRuns::new();
        gap.insert(Dot::new(A, 5));
        assert_eq!(gap.prefix_end(A), 0, "no prefix without seq 1");
    }

    #[test]
    fn zero_seq_dots_normalize_away() {
        let mut r = DotRuns::new();
        assert!(r.contains(&Dot::new(A, 0)));
        assert!(!r.insert(Dot::new(A, 0)));
        assert!(r.is_empty());
    }

    #[test]
    fn union_and_subset() {
        let mut a = DotRuns::new();
        a.insert(Dot::new(A, 1));
        a.insert(Dot::new(A, 2));
        let mut b = DotRuns::new();
        b.insert(Dot::new(A, 2));
        b.insert(Dot::new(A, 3));
        b.insert(Dot::new(B, 7));
        assert!(!a.subset_of(&b));
        assert!(!b.subset_of(&a));
        assert!(a.union(&b));
        assert_eq!(a.runs().len(), 2, "overlapping runs coalesce");
        assert_eq!(a.len(), 4);
        assert!(b.subset_of(&a));
        assert!(
            !a.union(&b),
            "idempotent, and the fast path never allocates"
        );
    }

    #[test]
    fn union_interleaves_replicas() {
        let mut a = DotRuns::new();
        a.insert(Dot::new(B, 1));
        let mut b = DotRuns::new();
        b.insert(Dot::new(A, 1));
        b.insert(Dot::new(B, 2));
        a.union(&b);
        assert_eq!(
            dots_of(&a),
            vec![Dot::new(A, 1), Dot::new(B, 1), Dot::new(B, 2)]
        );
    }

    #[test]
    fn tag_mutation_invalidates_cache() {
        let mut t = StateTag::default();
        assert_eq!(t.epoch(), 0);
        assert!(t.cached().is_none());
        t.store(Bytes::from(vec![1u8, 2]));
        assert_eq!(t.cached().unwrap(), vec![1u8, 2]);
        t.note_mutation();
        assert_ne!(t.epoch(), 0);
        assert!(t.cached().is_none(), "mutation drops the cached frame");
        t.store(Bytes::from(vec![3u8]));
        let clone = t.clone();
        assert_eq!(clone.epoch(), t.epoch());
        assert_eq!(clone.cached().unwrap(), vec![3u8], "clones keep the frame");
    }

    #[test]
    fn epochs_are_process_unique() {
        let a = fresh_epoch();
        let b = fresh_epoch();
        assert!(b > a);
        assert_ne!(StateTag::fresh().epoch(), StateTag::fresh().epoch());
    }
}
