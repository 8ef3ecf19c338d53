//! The `netload` family: the event-driven `crdt-net` reactor under
//! deterministic load.
//!
//! Three stages, one JSON report (`BENCH_netload.json`):
//!
//! 1. **lockstep** (per protocol, *gated*) — a seeded Zipf update
//!    workload driven through a lockstep [`LoopbackCluster`]. The drain
//!    schedule makes every byte/frame metric a pure function of the
//!    seed, so model-view traffic and the socket ledger are gated
//!    against `ci/bench-baseline/BENCH_netload.json`.
//! 2. **coalesce** (*gated*) — a frozen link accumulates a backlog of
//!    same-destination batches; the thaw must fold them into a single
//!    `BatchEnvelope` frame. Frame counts and the coalescing ratio are
//!    deterministic.
//! 3. **c10k** (asserted in-binary, no row) — one node holding 1,000+
//!    concurrent client connections, every one of them served, with
//!    zero bad frames. `--require-c10k` turns a shortfall into a
//!    failure for CI.
//!
//! Latency and throughput under open-loop load are `benchmark/`'s
//! `visibility_p50_us`/`p99_us` and `update_ops_per_s` on the
//! `retwis30k-tcp` and `hot64-tcp` workloads.

use crdt_lattice::ReplicaId;
use crdt_net::framing::DEFAULT_MAX_FRAME_BYTES;
use crdt_net::{LoopbackCluster, NetClient, NodeConfig, NodeHandle};
use crdt_sync::ProtocolKind;
use crdt_types::{GSet, GSetOp};
use crdt_workloads::Zipf;
use delta_store::StoreConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gate::{or_default, Args, Report};
use crate::json::Json;
use crate::Scale;

type Key = u64;
type Val = GSet<u64>;
type Client = NetClient<Key, Val>;

/// Scale parameters for the family.
#[derive(Debug, Clone, Copy)]
pub struct LoadShape {
    /// Lockstep cluster size.
    pub nodes: usize,
    /// Zipf key-space size (ranks).
    pub keys: usize,
    /// Zipf exponent (the paper's contention knob).
    pub zipf_s: f64,
    /// Updates per node in the lockstep stage.
    pub ops_per_node: usize,
    /// Concurrent connections for the c10k stage.
    pub connections: usize,
}

impl LoadShape {
    /// The shape for `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => LoadShape {
                nodes: 3,
                keys: 32,
                zipf_s: 1.0,
                ops_per_node: 48,
                connections: 1_200,
            },
            Scale::Quick => LoadShape {
                nodes: 3,
                keys: 16,
                zipf_s: 1.0,
                ops_per_node: 24,
                connections: 1_100,
            },
        }
    }
}

/// The seeded Zipf update stream for the lockstep stage: deterministic
/// per `(seed, node)`, element values globally unique so every op grows
/// the lattice.
fn lockstep_ops(shape: &LoadShape) -> Vec<(usize, Key, GSetOp<u64>)> {
    let zipf = Zipf::new(shape.keys, shape.zipf_s);
    let mut ops = Vec::new();
    for node in 0..shape.nodes {
        let mut rng = StdRng::seed_from_u64(0xBEEF + node as u64);
        for i in 0..shape.ops_per_node {
            let key = zipf.sample(&mut rng) as u64;
            ops.push((node, key, GSetOp::Add((node as u64) << 32 | i as u64)));
        }
    }
    ops
}

/// One protocol's lockstep measurements (all deterministic, gated).
#[derive(Debug, Clone)]
pub struct LockstepOutcome {
    /// Which protocol ran.
    pub protocol: ProtocolKind,
    /// Did the cluster converge?
    pub converged: bool,
    /// Lockstep rounds to convergence.
    pub rounds: usize,
    /// Model view: batches shipped.
    pub messages: u64,
    /// Model view: payload bytes.
    pub payload_bytes: u64,
    /// Model view: metadata bytes.
    pub metadata_bytes: u64,
    /// Socket ledger: frames written.
    pub frames: u64,
    /// Socket ledger: wire bytes written.
    pub wire_bytes: u64,
    /// Backpressure stall transitions across the cluster.
    pub stalls: u64,
    /// Frames eliminated by write-side coalescing (0 in lockstep: the
    /// eager flush keeps queues empty — pinned by the baseline).
    pub coalesced: u64,
    /// Node 0's full metrics exposition at convergence (artifact only —
    /// written out by `--metrics-out`).
    pub metrics: String,
}

/// Run the lockstep stage for one protocol.
pub fn run_lockstep(kind: ProtocolKind, shape: &LoadShape) -> LockstepOutcome {
    let ops = lockstep_ops(shape);
    let cfg = NodeConfig::new(StoreConfig::new(kind), shape.nodes);
    let mut net: LoopbackCluster<Key, Val> =
        LoopbackCluster::full_mesh(shape.nodes, cfg).expect("spawn loopback cluster");
    for (node, key, op) in &ops {
        net.update(*node, *key, op);
    }
    let report = net.run_until_converged(48);
    let stats = net.stats();
    let wire = net.wire_totals();
    let probes = net.probes();
    let stalls: u64 = probes.iter().map(|p| p.stall_events).sum();
    let coalesced: u64 = probes.iter().map(|p| p.coalesced_frames).sum();
    let metrics = net.node(0).obs().registry.exposition();
    LockstepOutcome {
        protocol: kind,
        converged: report.converged,
        rounds: report.rounds,
        messages: stats.messages,
        payload_bytes: stats.payload_bytes,
        metadata_bytes: stats.metadata_bytes,
        frames: wire.frames,
        wire_bytes: wire.bytes,
        stalls,
        coalesced,
        metrics,
    }
}

/// Coalescing stage measurements (all deterministic, gated).
#[derive(Debug, Clone)]
pub struct CoalesceOutcome {
    /// Batches parked on the frozen link before the thaw.
    pub backlog: u64,
    /// Frames actually written at the thaw.
    pub frames_flushed: u64,
    /// Frames eliminated by folding (`backlog - frames_flushed`).
    pub coalesced: u64,
    /// Wire bytes written at the thaw.
    pub wire_bytes: u64,
    /// Did the receiver converge on the folded traffic?
    pub converged: bool,
}

/// Freeze a link, accumulate a same-destination backlog, thaw: the
/// write queue must fold the backlog into a single batch frame and the
/// receiver must still absorb everything.
pub fn run_coalesce() -> CoalesceOutcome {
    const BACKLOG: u64 = 6;
    let cfg = NodeConfig::new(StoreConfig::new(ProtocolKind::BpRr), 2);
    let mut net: LoopbackCluster<Key, Val> =
        LoopbackCluster::full_mesh(2, cfg).expect("spawn pair");
    // Quiesce the pair so the frozen-window traffic is the whole ledger
    // delta.
    net.sync_round();
    let before = net.node(0).probe_local();
    net.freeze_link(0, 1);
    for i in 0..BACKLOG {
        net.update(0, 7, &GSetOp::Add(1_000 + i));
        net.node(0).sync_now();
    }
    net.thaw_link(0, 1);
    let report = net.run_until_converged(8);
    let after = net.node(0).probe_local();
    let frames_flushed = after.frames_sent - before.frames_sent;
    CoalesceOutcome {
        backlog: BACKLOG,
        frames_flushed,
        coalesced: after.coalesced_frames - before.coalesced_frames,
        wire_bytes: after.wire_bytes_sent - before.wire_bytes_sent,
        converged: report.converged,
    }
}

/// C10K stage measurements.
#[derive(Debug, Clone)]
pub struct C10kOutcome {
    /// Connections requested.
    pub target: usize,
    /// Connections concurrently live at the node at the high-water
    /// check (all clients open).
    pub concurrent: u64,
    /// Requests served across all connections.
    pub served: u64,
    /// Client-side failures (connect or request).
    pub errors: u64,
    /// Undecodable frames at the node (must be 0).
    pub bad_frames: u64,
}

/// Hold `shape.connections` concurrent clients against one node, serve
/// a request on every one, and read back the node's high-water
/// connection count.
pub fn run_c10k(shape: &LoadShape) -> C10kOutcome {
    let node: NodeHandle<Key, Val> = NodeHandle::spawn(
        ReplicaId(0),
        NodeConfig::new(StoreConfig::new(ProtocolKind::BpRr), 1),
    )
    .expect("spawn node");
    node.update(1, &GSetOp::Add(42));
    let mut clients: Vec<Client> = Vec::with_capacity(shape.connections);
    let mut errors = 0u64;
    for _ in 0..shape.connections {
        match NetClient::connect(node.addr(), DEFAULT_MAX_FRAME_BYTES) {
            Ok(c) => clients.push(c),
            Err(_) => errors += 1,
        }
    }
    // Every connection proves liveness with one served request.
    let mut served = 0u64;
    for c in clients.iter_mut() {
        match c.get(1) {
            Ok(Some(_)) => served += 1,
            _ => errors += 1,
        }
    }
    // High-water mark while every client is still open.
    let concurrent = node.live_connections();
    let bad_frames = node.probe_local().bad_frames;
    drop(clients);
    node.shutdown_untyped();
    C10kOutcome {
        target: shape.connections,
        concurrent,
        served,
        errors,
        bad_frames,
    }
}

/// Everything one `netload` run produces.
#[derive(Debug, Clone)]
pub struct NetloadReport {
    /// Per-protocol lockstep outcomes (gated).
    pub lockstep: Vec<LockstepOutcome>,
    /// The coalescing outcome (gated).
    pub coalesce: CoalesceOutcome,
    /// The c10k outcome (in-binary assertion, no row).
    pub c10k: C10kOutcome,
}

/// Run the whole family; the c10k stage has no row, so its result is
/// printed here.
pub fn run_family(kinds: &[ProtocolKind], shape: &LoadShape) -> NetloadReport {
    let lockstep = kinds.iter().map(|&k| run_lockstep(k, shape)).collect();
    let coalesce = run_coalesce();
    let c10k = run_c10k(shape);
    println!(
        "c10k: {}/{} concurrent connections, {} served, {} errors, {} bad frames",
        c10k.concurrent, c10k.target, c10k.served, c10k.errors, c10k.bad_frames,
    );
    NetloadReport {
        lockstep,
        coalesce,
        c10k,
    }
}

/// Render the report as the `BENCH_netload.json` rows, keyed
/// `(protocol, stage)`: one `lockstep` row per protocol, then the
/// `coalesce` row.
pub fn rows_json(report: &NetloadReport) -> Vec<Json> {
    let mut rows: Vec<Json> = report
        .lockstep
        .iter()
        .map(|o| {
            Json::Obj(vec![
                ("protocol".into(), Json::str(o.protocol.id())),
                ("stage".into(), Json::str("lockstep")),
                ("converged".into(), Json::Bool(o.converged)),
                ("rounds".into(), Json::num(o.rounds as u64)),
                ("messages".into(), Json::num(o.messages)),
                ("payload_bytes".into(), Json::num(o.payload_bytes)),
                ("metadata_bytes".into(), Json::num(o.metadata_bytes)),
                (
                    "total_bytes".into(),
                    Json::num(o.payload_bytes + o.metadata_bytes),
                ),
                ("frames".into(), Json::num(o.frames)),
                ("wire_bytes".into(), Json::num(o.wire_bytes)),
                ("stalls".into(), Json::num(o.stalls)),
                ("coalesced_frames".into(), Json::num(o.coalesced)),
            ])
        })
        .collect();
    let c = &report.coalesce;
    rows.push(Json::Obj(vec![
        ("protocol".into(), Json::str("bp_rr")),
        ("stage".into(), Json::str("coalesce")),
        ("converged".into(), Json::Bool(c.converged)),
        ("backlog".into(), Json::num(c.backlog)),
        ("frames".into(), Json::num(c.frames_flushed)),
        ("coalesced_frames".into(), Json::num(c.coalesced)),
        ("wire_bytes".into(), Json::num(c.wire_bytes)),
        (
            "coalesce_ratio".into(),
            Json::Num(c.backlog as f64 / c.frames_flushed.max(1) as f64),
        ),
    ]));
    rows
}

/// The in-binary invariants: every lockstep protocol converges, the
/// coalesce stage folds its backlog, and — when `require_c10k` — the
/// c10k stage held ≥ 1,000 live connections with zero errors and zero
/// bad frames. Returns every breach.
pub fn invariant_failures(report: &NetloadReport, require_c10k: bool) -> Vec<String> {
    let mut failures: Vec<String> = report
        .lockstep
        .iter()
        .filter(|o| !o.converged)
        .map(|o| format!("{} lockstep stage did not converge", o.protocol))
        .collect();
    if report.coalesce.coalesced == 0 {
        failures.push(format!(
            "thawing a {}-frame backlog folded nothing",
            report.coalesce.backlog
        ));
    }
    let k = &report.c10k;
    if require_c10k && (k.concurrent < 1_000 || k.errors > 0 || k.bad_frames > 0) {
        failures.push(format!(
            "c10k bar not met — {} concurrent (need ≥ 1000), {} errors, {} bad frames",
            k.concurrent, k.errors, k.bad_frames
        ));
    }
    failures
}

/// `perf netload`: every selected kind (default all) through the three
/// stages.
pub fn run(args: &Args) -> Report {
    let kinds = or_default(&args.protocols, &ProtocolKind::ALL);
    let report = run_family(&kinds, &LoadShape::new(args.scale));
    Report {
        rows: rows_json(&report),
        failures: invariant_failures(&report, args.require_c10k),
        metrics_artifact: Some(crate::gate::metrics_artifact(
            report
                .lockstep
                .iter()
                .map(|o| (o.protocol, o.metrics.as_str())),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny end-to-end pass: deterministic stages produce the pinned
    /// numbers, the invariants hold, and a self-compared gate holds.
    #[test]
    fn deterministic_stages_pin_their_metrics() {
        let shape = LoadShape {
            nodes: 3,
            keys: 8,
            zipf_s: 1.0,
            ops_per_node: 12,
            connections: 64,
        };
        let a = run_lockstep(ProtocolKind::BpRr, &shape);
        let b = run_lockstep(ProtocolKind::BpRr, &shape);
        assert!(a.converged && b.converged);
        assert_eq!(
            (
                a.messages,
                a.payload_bytes,
                a.metadata_bytes,
                a.frames,
                a.wire_bytes
            ),
            (
                b.messages,
                b.payload_bytes,
                b.metadata_bytes,
                b.frames,
                b.wire_bytes
            ),
            "lockstep stage must be deterministic run to run"
        );
        assert_eq!(a.stalls, 0, "lockstep never fills the inbox");
        assert_eq!(a.coalesced, 0, "eager flush leaves nothing to fold");

        let c = run_coalesce();
        assert!(c.converged);
        assert_eq!(c.frames_flushed, 1, "backlog must fold into one frame");
        assert_eq!(c.coalesced, c.backlog - 1);

        let report = NetloadReport {
            lockstep: vec![a],
            coalesce: c,
            c10k: run_c10k(&shape),
        };
        assert_eq!(report.c10k.errors, 0);
        assert_eq!(report.c10k.concurrent, shape.connections as u64);
        assert!(invariant_failures(&report, false).is_empty());
        let c10k_miss = invariant_failures(&report, true);
        assert_eq!(c10k_miss.len(), 1, "64 connections miss the bar");
        assert!(c10k_miss[0].contains("c10k"), "{c10k_miss:?}");

        let rows = rows_json(&report);
        assert_eq!(rows.len(), 2, "one lockstep row and the coalesce row");
        let violations = crate::gate::family("netload")
            .unwrap()
            .violations(&rows, &rows);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
