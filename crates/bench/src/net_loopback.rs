//! The `net` family: real-socket clusters measured against the
//! simulator's accounting.
//!
//! For every selected [`ProtocolKind`] this family runs the **same
//! deterministic workload** twice:
//!
//! 1. in the in-process [`delta_store::Cluster`] (the simulator whose
//!    accounting reproduces the paper's transmission metrics), and
//! 2. in a lockstep [`crdt_net::LoopbackCluster`] — N real TCP nodes on
//!    ephemeral `127.0.0.1` ports, every batch crossing an actual
//!    socket;
//!
//! and reports both ledgers side by side: the model-view
//! [`delta_store::TrafficStats`] (which for the raw-δ kinds must come
//! out **byte-identical** between the two — `sim_parity` in the report)
//! plus the socket ledger (frames, wire bytes with length prefixes) that
//! only the real transport has. The lockstep drain makes both ledgers
//! reproducible run to run, so `BENCH_net.json` is gated against
//! `ci/bench-baseline/BENCH_net.json`. A free-running pass (scheduler
//! threads, no external driving) must converge within a deadline; how
//! long sockets take is `benchmark/`'s `visibility_p50_us`/`p99_us`.

// lint: allow(determinism) — timeouts handed to crdt-net (scheduler period, convergence deadline); nothing is measured
use std::time::Duration;

use crdt_net::{LoopbackCluster, NodeConfig};
use crdt_sync::ProtocolKind;
use crdt_types::{GSet, GSetOp};
use delta_store::{Cluster, StoreConfig};

use crate::gate::{or_default, Args, Report};
use crate::json::Json;
use crate::Scale;

type Key = String;
type Val = GSet<u64>;

/// One protocol's measurements over the loopback cluster.
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// Which protocol ran.
    pub protocol: ProtocolKind,
    /// Cluster size.
    pub nodes: usize,
    /// Did the lockstep socket cluster converge?
    pub converged: bool,
    /// Lockstep rounds to convergence.
    pub rounds: usize,
    /// Socket cluster: batches shipped (model view).
    pub messages: u64,
    /// Socket cluster: payload elements shipped.
    pub payload_elements: u64,
    /// Socket cluster: payload bytes (model view).
    pub payload_bytes: u64,
    /// Socket cluster: metadata bytes (model view).
    pub metadata_bytes: u64,
    /// Socket cluster: frames written to TCP.
    pub frames: u64,
    /// Socket cluster: wire bytes written (payloads + prefixes).
    pub wire_bytes: u64,
    /// Simulator total bytes for the identical workload/topology.
    pub sim_total_bytes: u64,
    /// Did the socket accounting equal the simulator's exactly?
    /// (Required for raw-δ kinds; informational otherwise.)
    pub sim_parity: bool,
    /// Did the free-running pass converge within its deadline?
    pub freerun_converged: bool,
    /// Node 0's full metrics exposition at the end of the lockstep
    /// stage (artifact only — written out by `--metrics-out`).
    pub metrics: String,
}

/// Scale parameters: `(nodes, max lockstep rounds, free-run deadline)`.
fn shape(scale: Scale) -> (usize, usize, Duration) {
    match scale {
        Scale::Full => (5, 32, Duration::from_secs(10)),
        Scale::Quick => (3, 24, Duration::from_secs(10)),
    }
}

/// The deterministic workload both transports replay: every node
/// updates every key with node-distinct elements.
fn workload(n: usize) -> Vec<(usize, Key, GSetOp<u64>)> {
    let keys = ["alpha", "beta", "gamma", "delta"];
    let mut ops = Vec::new();
    for node in 0..n {
        for (k, key) in keys.iter().enumerate() {
            for rep in 0..3u64 {
                ops.push((
                    node,
                    key.to_string(),
                    GSetOp::Add((node as u64) * 1000 + (k as u64) * 10 + rep),
                ));
            }
        }
    }
    ops
}

/// Run one protocol at `scale`, both transports.
pub fn run_one(kind: ProtocolKind, scale: Scale) -> NetOutcome {
    let (n, max_rounds, freerun_deadline) = shape(scale);
    let ops = workload(n);

    // Simulator reference.
    let mut sim: Cluster<Key, Val> = Cluster::full_mesh(n, StoreConfig::new(kind));
    for (node, key, op) in &ops {
        sim.update(*node, key.clone(), op);
    }
    sim.run_until_converged(max_rounds);
    let sim_stats = sim.stats();

    // Lockstep socket cluster.
    let cfg = NodeConfig::new(StoreConfig::new(kind), n);
    let mut net: LoopbackCluster<Key, Val> =
        LoopbackCluster::full_mesh(n, cfg).expect("spawn loopback cluster");
    for (node, key, op) in &ops {
        net.update(*node, key.clone(), op);
    }
    let report = net.run_until_converged(max_rounds);
    let stats = net.stats();
    let wire = net.wire_totals();
    let metrics = net.node(0).obs().registry.exposition();
    drop(net);

    // Free-running pass: scheduler threads, no external driving.
    let cfg = NodeConfig::new(StoreConfig::new(kind), n).with_scheduler(Duration::from_millis(2));
    let mut free: LoopbackCluster<Key, Val> =
        LoopbackCluster::full_mesh(n, cfg).expect("spawn free-running cluster");
    for (node, key, op) in &ops {
        free.update(*node, key.clone(), op);
    }
    let free_report = free.await_convergence(freerun_deadline);
    drop(free);

    NetOutcome {
        protocol: kind,
        nodes: n,
        converged: report.converged,
        rounds: report.rounds,
        messages: stats.messages,
        payload_elements: stats.payload_elements,
        payload_bytes: stats.payload_bytes,
        metadata_bytes: stats.metadata_bytes,
        frames: wire.frames,
        wire_bytes: wire.bytes,
        sim_total_bytes: sim_stats.total_bytes(),
        sim_parity: stats == sim_stats,
        freerun_converged: free_report.converged,
        metrics,
    }
}

/// Run the family for `kinds`.
pub fn run_suite(scale: Scale, kinds: &[ProtocolKind]) -> Vec<NetOutcome> {
    kinds.iter().map(|&kind| run_one(kind, scale)).collect()
}

/// Render outcomes as the `BENCH_net.json` rows.
pub fn rows_json(outcomes: &[NetOutcome]) -> Vec<Json> {
    outcomes
        .iter()
        .map(|o| {
            Json::Obj(vec![
                ("protocol".into(), Json::str(o.protocol.id())),
                ("protocol_name".into(), Json::str(o.protocol.name())),
                ("nodes".into(), Json::num(o.nodes as u64)),
                ("converged".into(), Json::Bool(o.converged)),
                ("rounds".into(), Json::num(o.rounds as u64)),
                ("messages".into(), Json::num(o.messages)),
                ("payload_elements".into(), Json::num(o.payload_elements)),
                ("payload_bytes".into(), Json::num(o.payload_bytes)),
                ("metadata_bytes".into(), Json::num(o.metadata_bytes)),
                (
                    "total_bytes".into(),
                    Json::num(o.payload_bytes + o.metadata_bytes),
                ),
                ("frames".into(), Json::num(o.frames)),
                ("wire_bytes".into(), Json::num(o.wire_bytes)),
                ("sim_total_bytes".into(), Json::num(o.sim_total_bytes)),
                ("sim_parity".into(), Json::Bool(o.sim_parity)),
                ("freerun_converged".into(), Json::Bool(o.freerun_converged)),
            ])
        })
        .collect()
}

/// The liveness bar: every kind converges — lockstep *and* free-running
/// within the deadline — and raw-δ kinds match the in-process
/// simulator's accounting exactly. Returns every breach.
pub fn liveness_failures(outcomes: &[NetOutcome]) -> Vec<String> {
    let mut failures = Vec::new();
    for o in outcomes {
        let p = o.protocol;
        if !o.converged {
            failures.push(format!("{p} did not converge over sockets (lockstep)"));
        }
        if !o.freerun_converged {
            failures.push(format!(
                "{p} did not converge free-running within the deadline"
            ));
        }
        if p.accepts_raw_delta() && !o.sim_parity {
            failures.push(format!(
                "{p} socket accounting diverged from the simulator's (δ-kinds must be exact)"
            ));
        }
    }
    failures
}

/// `perf net`: every selected kind (default all) over real sockets.
pub fn run(args: &Args) -> Report {
    let outcomes = run_suite(args.scale, &or_default(&args.protocols, &ProtocolKind::ALL));
    Report {
        rows: rows_json(&outcomes),
        failures: liveness_failures(&outcomes),
        metrics_artifact: Some(crate::gate::metrics_artifact(
            outcomes.iter().map(|o| (o.protocol, o.metrics.as_str())),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quick-scale smoke over one δ-kind and one push-pull kind: the
    /// liveness bar holds, δ accounting matches the simulator, and a
    /// self-compared gate passes.
    #[test]
    fn quick_suite_reports_and_gates() {
        let outcomes = run_suite(
            Scale::Quick,
            &[ProtocolKind::BpRr, ProtocolKind::Scuttlebutt],
        );
        assert_eq!(liveness_failures(&outcomes), Vec::<String>::new());
        let bp_rr = &outcomes[0];
        assert!(bp_rr.frames > 0 && bp_rr.wire_bytes > bp_rr.frames * 4);
        let json = rows_json(&outcomes);
        let violations = crate::gate::family("net").unwrap().violations(&json, &json);
        assert!(violations.is_empty(), "{violations:?}");

        // Every breach of one outcome is reported, not the first.
        let mut bad = outcomes[0].clone();
        (bad.converged, bad.freerun_converged, bad.sim_parity) = (false, false, false);
        assert_eq!(liveness_failures(&[bad]).len(), 3);
    }
}
