//! The `repair` family: how pairwise anti-entropy
//! cost scales with the **number of diverged objects**, not the
//! keyspace size.
//!
//! The paper's §VI digest repair exchanges one digest per object either
//! side holds — O(keyspace) metadata even when a single object
//! diverged. The Merkle-descent path (`crdt_sync::merkle`) localizes
//! the divergence first: O(fanout · depth · diverged) descent frames,
//! then the same §VI handshake scoped to the diverged keys.
//!
//! For each divergence size (1 object, 10 objects, 1%, 50% of the
//! keyspace) this family builds a freshly diverged 2-replica pair twice
//! and repairs one with each path, reporting both ledgers side by side:
//! descent frame/byte breakdown (control vs leaf), full repair stats,
//! and the per-object digest path's cost for the identical divergence.
//! The bin asserts the headline in-process: for small divergence the
//! descent must undercut the sweep by 4×, and its cost must grow
//! sublinearly in the keyspace (per-repair bytes bounded by the
//! divergence, not the object count). `BENCH_repair.json` is gated in
//! CI against `ci/bench-baseline/BENCH_repair.json`.

use crdt_sync::{diff_keys, ProtocolKind};
use crdt_types::{GSet, GSetOp};
use delta_store::{Cluster, StoreConfig};

use crate::gate::{Args, Report};
use crate::json::Json;
use crate::Scale;

type Key = u64;
type Val = GSet<u32>;

/// One divergence size's measurements, both repair paths.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// Synchronization protocol under repair.
    pub protocol: ProtocolKind,
    /// Objects in the keyspace (both replicas, pre-divergence).
    pub keyspace: usize,
    /// Objects diverged before repair.
    pub diverged: usize,
    /// Merkle descent: rounds of tree-walking frames.
    pub descent_rounds: u64,
    /// Merkle descent: frames exchanged (root + child + leaf).
    pub descent_frames: u64,
    /// Merkle descent: encoded bytes of root/child frames.
    pub control_bytes: u64,
    /// Merkle descent: encoded bytes of leaf-bucket frames.
    pub leaf_bytes: u64,
    /// Merkle path: total messages (descent + scoped handshake).
    pub merkle_messages: u64,
    /// Merkle path: metadata bytes (descent frames + scoped digests).
    pub merkle_metadata_bytes: u64,
    /// Merkle path: payload bytes (the shipped irreducibles).
    pub merkle_payload_bytes: u64,
    /// Per-object digest path: total messages.
    pub digest_messages: u64,
    /// Per-object digest path: metadata bytes (a digest per object).
    pub digest_metadata_bytes: u64,
    /// Per-object digest path: payload bytes.
    pub digest_payload_bytes: u64,
    /// Did both repaired pairs converge?
    pub converged: bool,
}

/// Keyspace size per scale. Quick stays past
/// `crdt_sync::MERKLE_REPAIR_THRESHOLD` but CI-fast; full is the
/// paper-adjacent 30K-object keyspace.
fn keyspace(scale: Scale) -> usize {
    match scale {
        Scale::Full => 30_000,
        Scale::Quick => 2_000,
    }
}

/// The divergence ladder: absolute (1, 10) then relative (1%, 50%).
fn divergence_ladder(n: usize) -> Vec<usize> {
    let mut d = vec![1, 10, n / 100, n / 2];
    d.retain(|&x| x >= 1 && x <= n);
    d.dedup();
    d
}

/// Build a converged 2-replica pair over `n` objects, then diverge
/// `d` of them (spread across the key range, both directions).
fn diverged_pair(n: usize, d: usize) -> Cluster<Key, Val> {
    let mut c: Cluster<Key, Val> = Cluster::full_mesh(2, StoreConfig::new(ProtocolKind::BpRr));
    for k in 0..n as u64 {
        c.update(0, k, &GSetOp::Add(k as u32));
    }
    c.run_until_converged(4).expect_converged("seed keyspace");
    c.partition(&[0]);
    let stride = (n / d).max(1) as u64;
    for i in 0..d as u64 {
        let key = (i * stride) % n as u64;
        c.update((i % 2) as usize, key, &GSetOp::Add(1_000_000 + i as u32));
    }
    c.sync_round(); // δ-buffers drain into the severed link
    c.heal();
    c
}

/// Measure one divergence size with both repair paths.
pub fn run_one(scale: Scale, d: usize) -> RepairOutcome {
    let n = keyspace(scale);

    // Per-object digest sweep on its own diverged pair.
    let mut digest = diverged_pair(n, d);
    let digest_stats = digest.digest_repair(0, 1);
    let digest_ok = digest.run_until_converged(4).converged;

    // Merkle path on an identically diverged pair. The descent is
    // measured standalone first (it is read-only), so the report can
    // break its cost into control vs leaf bytes.
    let mut merkle = diverged_pair(n, d);
    let tree0 = merkle.replica_mut(0).merkle().clone();
    let (diff, descent) = diff_keys(&tree0, merkle.replica_mut(1).merkle());
    assert_eq!(
        diff.len(),
        d,
        "descent must localize exactly the diverged objects"
    );
    let merkle_stats = merkle.merkle_repair(0, 1);
    let merkle_ok = merkle.run_until_converged(4).converged;

    RepairOutcome {
        protocol: ProtocolKind::BpRr,
        keyspace: n,
        diverged: d,
        descent_rounds: descent.rounds,
        descent_frames: descent.frames,
        control_bytes: descent.control_bytes,
        leaf_bytes: descent.leaf_bytes,
        merkle_messages: u64::from(merkle_stats.messages),
        merkle_metadata_bytes: merkle_stats.metadata_bytes,
        merkle_payload_bytes: merkle_stats.payload_bytes,
        digest_messages: u64::from(digest_stats.messages),
        digest_metadata_bytes: digest_stats.metadata_bytes,
        digest_payload_bytes: digest_stats.payload_bytes,
        converged: digest_ok && merkle_ok,
    }
}

/// Run the divergence ladder at `scale`.
pub fn run_suite(scale: Scale) -> Vec<RepairOutcome> {
    divergence_ladder(keyspace(scale))
        .into_iter()
        .map(|d| run_one(scale, d))
        .collect()
}

/// The in-binary acceptance bar: localization must actually pay off.
///
/// * Every pair converged under both paths.
/// * For divergence at or below 1% of the keyspace, the Merkle path's
///   metadata undercuts the per-object sweep at least 4×.
/// * Sublinearity in the keyspace: metadata per repair is bounded by
///   the divergence (descent frames + scoped digests), not the object
///   count — pinned as merkle metadata ≤ digest metadata / 4 even
///   though the digest cost is Θ(keyspace).
///
/// Returns every breach.
pub fn sublinear_failures(outcomes: &[RepairOutcome]) -> Vec<String> {
    let mut failures = Vec::new();
    for o in outcomes {
        if !o.converged {
            failures.push(format!(
                "{} diverged objects: repair did not converge",
                o.diverged
            ));
        }
        if o.diverged * 100 <= o.keyspace && o.merkle_metadata_bytes * 4 > o.digest_metadata_bytes {
            failures.push(format!(
                "{} of {} diverged: merkle metadata {} B not 4× under digest {} B",
                o.diverged, o.keyspace, o.merkle_metadata_bytes, o.digest_metadata_bytes
            ));
        }
    }
    failures
}

/// Render outcomes as the `BENCH_repair.json` rows.
pub fn rows_json(outcomes: &[RepairOutcome]) -> Vec<Json> {
    outcomes
        .iter()
        .map(|o| {
            Json::Obj(vec![
                ("protocol".into(), Json::str(o.protocol.id())),
                ("keyspace".into(), Json::num(o.keyspace as u64)),
                ("diverged".into(), Json::num(o.diverged as u64)),
                ("converged".into(), Json::Bool(o.converged)),
                ("descent_rounds".into(), Json::num(o.descent_rounds)),
                ("descent_frames".into(), Json::num(o.descent_frames)),
                ("control_bytes".into(), Json::num(o.control_bytes)),
                ("leaf_bytes".into(), Json::num(o.leaf_bytes)),
                ("merkle_messages".into(), Json::num(o.merkle_messages)),
                (
                    "merkle_metadata_bytes".into(),
                    Json::num(o.merkle_metadata_bytes),
                ),
                (
                    "merkle_payload_bytes".into(),
                    Json::num(o.merkle_payload_bytes),
                ),
                ("digest_messages".into(), Json::num(o.digest_messages)),
                (
                    "digest_metadata_bytes".into(),
                    Json::num(o.digest_metadata_bytes),
                ),
                (
                    "digest_payload_bytes".into(),
                    Json::num(o.digest_payload_bytes),
                ),
            ])
        })
        .collect()
}

/// `perf repair`: the divergence ladder plus the sublinearity bar.
pub fn run(args: &Args) -> Report {
    let outcomes = run_suite(args.scale);
    Report {
        rows: rows_json(&outcomes),
        failures: sublinear_failures(&outcomes),
        metrics_artifact: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One small quick-scale point: sublinearity bar holds,
    /// self-compared gate passes.
    #[test]
    fn quick_point_reports_and_gates() {
        let outcomes = vec![run_one(Scale::Quick, 1), run_one(Scale::Quick, 10)];
        assert_eq!(sublinear_failures(&outcomes), Vec::<String>::new());
        let rows = rows_json(&outcomes);
        let violations = crate::gate::family("repair")
            .unwrap()
            .violations(&rows, &rows);
        assert!(violations.is_empty(), "{violations:?}");

        // Both breaches of one outcome are reported, not the first.
        let mut bad = outcomes[0].clone();
        (bad.converged, bad.merkle_metadata_bytes) = (false, bad.digest_metadata_bytes);
        assert_eq!(sublinear_failures(&[bad]).len(), 2);
    }
}
