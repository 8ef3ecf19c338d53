//! The `merge` family: the allocation cost of the flat dot stores' hot
//! loops — join, delta-apply, digest build, Merkle leaf rehash.
//!
//! The flat representation's contract is that steady-state
//! synchronization stops allocating: joining an already-covered state
//! is an allocation-free pre-scan, and re-encoding an unmutated state
//! serves the cached frame (a reference-count bump). This family pins
//! both at **zero allocations** (`epsilon = 0`: any allocation fails
//! the gate) and tracks the allocation budgets of the mutating paths.
//! How *fast* these loops run is `benchmark/`'s
//! `lattice.join_ns_per_elem`, `core.digest_ns_per_elem` and
//! `core.merkle_flush_ns_per_dirty_key`.
//!
//! `BENCH_merge.json` is gated in CI against
//! `ci/bench-baseline/BENCH_merge.json`; rows whose producing binary
//! lacked the counting allocator carry `"measured": false` and are
//! dropped from both sides of the gate.

use crdt_lattice::{Lattice, ReplicaId, WireEncode};
use crdt_sync::digest::Digest;
use crdt_sync::MerkleTree;
use crdt_types::AWSet;

use crate::gate::{Args, Report};
use crate::json::Json;
use crate::Scale;

type Set = AWSet<u64>;

/// Replicas writing into the measured states.
const WRITERS: u32 = 4;
/// Elements in the small delta of the `delta_apply` case.
const DELTA_ELEMS: u64 = 16;
/// Keys rehashed by the `merkle_rehash` case.
const DIRTY_KEYS: u64 = 64;

/// One state size's measurements across every hot loop.
#[derive(Debug, Clone)]
pub struct MergeRow {
    /// Elements in each pre-built state.
    pub elements: usize,
    /// Allocations joining a disjoint same-sized state.
    pub join_fresh_allocs: u64,
    /// Allocations joining an already-covered state — the steady-state
    /// anti-entropy case. Must be **zero**.
    pub join_unchanged_allocs: u64,
    /// Allocations applying a small fresh delta into the big state.
    pub delta_apply_allocs: u64,
    /// Allocations of the first encode after a mutation.
    pub encode_fresh_allocs: u64,
    /// Allocations re-encoding the unmutated state — the cached-frame
    /// case. Must be **zero**.
    pub encode_cached_allocs: u64,
    /// Allocations building a §VI digest of the state.
    pub digest_allocs: u64,
    /// Allocations rehashing [`DIRTY_KEYS`] dirty Merkle leaves.
    pub merkle_rehash_allocs: u64,
    /// Were allocations actually counted (counting allocator installed
    /// in the producing binary)?
    pub measured: bool,
}

/// State sizes per scale.
fn sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => vec![1_024, 8_192, 65_536],
        Scale::Quick => vec![1_024],
    }
}

/// An `n`-element add-wins set written by [`WRITERS`] replicas starting
/// at `first_writer`, element values offset to match: disjoint writer
/// ranges give truly disjoint dot stores (same-replica states would
/// share dots and make the "fresh" join a covered no-op).
fn build_set(n: usize, first_writer: u32, offset: u64) -> Set {
    let mut s = Set::new();
    for i in 0..n as u64 {
        let writer = first_writer + (i % u64::from(WRITERS)) as u32;
        let _ = s.add(ReplicaId(writer), offset + i);
    }
    s
}

/// Measure every hot loop at one state size.
pub fn run_one(n: usize) -> MergeRow {
    let measured = testkit_alloc::is_installed();
    let base = build_set(n, 0, 0);

    // Fresh join: disjoint same-sized states.
    let mut target = base.clone();
    let other = build_set(n, WRITERS, 1 << 32);
    let (merged, join_stats) = testkit_alloc::measure(move || {
        assert!(
            target.join_assign(other),
            "disjoint join reported no change"
        );
        target
    });

    // Covered join: the steady-state anti-entropy case. The incoming
    // clone happens outside the window; the join itself must detect
    // no-change without allocating.
    let mut steady = merged.clone();
    let covered = base.clone();
    let (steady, unchanged_stats) = testkit_alloc::measure(move || {
        assert!(!steady.join_assign(covered), "covered join reported change");
        steady
    });
    let mut merged = steady;

    // Delta apply: a small fresh delta produced by a peer that shares
    // the state's causal history.
    let mut producer = merged.clone();
    let mut delta = producer.add(ReplicaId(0), (1 << 33) | 1);
    for j in 1..DELTA_ELEMS {
        delta.join_assign(producer.add(ReplicaId(0), (1 << 33) | (1 + j)));
    }
    let (merged_back, delta_stats) = testkit_alloc::measure(move || {
        assert!(merged.join_assign(delta), "fresh delta reported no change");
        merged
    });
    let merged = merged_back;

    // Encode: first build after the mutation above, then the cached
    // re-serve (a reference-count bump, not a re-encode).
    let (frame, encode_fresh_stats) = testkit_alloc::measure(|| merged.encode_frame());
    let (frame2, encode_cached_stats) = testkit_alloc::measure(|| merged.encode_frame());
    assert_eq!(frame.as_ref(), frame2.as_ref(), "cached frame diverged");

    // Digest build (§VI repair handshake's per-object summary).
    let (_, digest_stats) = testkit_alloc::measure(|| Digest::of(&merged));

    // Merkle leaf rehash: a keyspace-sized tree with DIRTY_KEYS touched
    // objects, flushed through a cheap hash closure (the per-object
    // state hashing is benched by the cases above; this isolates the
    // tree's own rebuild cost).
    let mut tree: MerkleTree<u64> =
        MerkleTree::build(4, (0..n as u64).map(|k| (k, k.wrapping_mul(0x9e37_79b9))));
    let stride = (n as u64 / DIRTY_KEYS).max(1);
    for i in 0..DIRTY_KEYS {
        tree.touch((i * stride) % n as u64);
    }
    let ((_root, tree), merkle_stats) = testkit_alloc::measure(move || {
        let root = tree.flush(|k| Some(k.wrapping_mul(0x9e37_79b9).rotate_left(17)));
        (root, tree)
    });
    assert!(!tree.has_dirty(), "flush must rehash every dirty leaf");

    MergeRow {
        elements: n,
        join_fresh_allocs: join_stats.allocations,
        join_unchanged_allocs: unchanged_stats.allocations,
        delta_apply_allocs: delta_stats.allocations,
        encode_fresh_allocs: encode_fresh_stats.allocations,
        encode_cached_allocs: encode_cached_stats.allocations,
        digest_allocs: digest_stats.allocations,
        merkle_rehash_allocs: merkle_stats.allocations,
        measured,
    }
}

/// Run the size ladder at `scale`.
pub fn run_suite(scale: Scale) -> Vec<MergeRow> {
    sizes(scale).into_iter().map(run_one).collect()
}

/// The in-binary acceptance bar: steady state must not allocate.
///
/// Joining an already-covered state and re-encoding an unmutated state
/// are the per-round hot loops of a converged cluster; the flat layout
/// exists so both cost zero allocations. Only enforced when the
/// counting allocator is installed. Returns every breach.
pub fn steady_state_failures(rows: &[MergeRow]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows.iter().filter(|r| r.measured) {
        for (what, allocs) in [
            ("covered join", r.join_unchanged_allocs),
            ("cached encode", r.encode_cached_allocs),
        ] {
            if allocs != 0 {
                failures.push(format!(
                    "{} elements: {what} allocated {allocs} times (must be 0)",
                    r.elements
                ));
            }
        }
    }
    failures
}

/// Render rows as the `BENCH_merge.json` rows.
pub fn rows_json(rows: &[MergeRow]) -> Vec<Json> {
    rows.iter()
        .map(|r| {
            Json::Obj(vec![
                ("elements".into(), Json::num(r.elements as u64)),
                ("join_fresh_allocs".into(), Json::num(r.join_fresh_allocs)),
                (
                    "join_unchanged_allocs".into(),
                    Json::num(r.join_unchanged_allocs),
                ),
                ("delta_apply_allocs".into(), Json::num(r.delta_apply_allocs)),
                (
                    "encode_fresh_allocs".into(),
                    Json::num(r.encode_fresh_allocs),
                ),
                (
                    "encode_cached_allocs".into(),
                    Json::num(r.encode_cached_allocs),
                ),
                ("digest_allocs".into(), Json::num(r.digest_allocs)),
                (
                    "merkle_rehash_allocs".into(),
                    Json::num(r.merkle_rehash_allocs),
                ),
                ("measured".into(), Json::Bool(r.measured)),
                ("converged".into(), Json::Bool(true)),
            ])
        })
        .collect()
}

/// `perf merge`: the size ladder plus the steady-state bar.
pub fn run(args: &Args) -> Report {
    let rows = run_suite(args.scale);
    Report {
        rows: rows_json(&rows),
        failures: steady_state_failures(&rows),
        metrics_artifact: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One quick-scale point: well-formed rows, steady-state bar
    /// holds, self-compared gate passes. (The library test binary has
    /// no counting allocator, so rows carry `measured: false` and the
    /// alloc bar is vacuous here — the bin enforces it for real.)
    #[test]
    fn quick_point_reports_and_gates() {
        let rows = vec![run_one(512)];
        assert!(steady_state_failures(&rows).is_empty());
        let json = rows_json(&rows);
        let violations = crate::gate::family("merge")
            .unwrap()
            .violations(&json, &json);
        assert!(violations.is_empty(), "{violations:?}");

        // The bar reports both breaches of a measured row, not the first.
        let mut bad = rows[0].clone();
        (
            bad.measured,
            bad.join_unchanged_allocs,
            bad.encode_cached_allocs,
        ) = (true, 3, 1);
        assert_eq!(steady_state_failures(&[bad]).len(), 2);
    }
}
