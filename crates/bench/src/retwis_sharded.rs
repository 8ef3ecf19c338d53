//! The `retwis_sharded` experiment family: the paper's Retwis granularity
//! (§V-C — per-object δ-buffers over up to 30 K independent objects) on
//! the unified [`ShardedEngineRunner`]: any protocol, thread-parallel,
//! with per-destination envelope batching.
//!
//! For every `(protocol, zipf, threads)` point the suite replays the same
//! deterministic [`RetwisTrace`] through three family runners (follower
//! sets / walls / timelines — objects never interact, so this equals one
//! deployment hosting all of them) and records:
//!
//! * **bytes/round** — the Fig. 11 transmission quantity, per protocol;
//! * **batch amortization** — per-object envelopes per wire frame: the
//!   frame count is O(links) per round, *independent of object count*,
//!   which is what makes the granularity deployable;
//! * **thread invariance** — the same accounting at every `--threads`
//!   count, so one baseline covers them all.
//!
//! The JSON rows hold the deterministic metrics only (bytes, elements,
//! frames, envelopes), gated against
//! `ci/bench-baseline/BENCH_retwis_sharded.json`.

use crdt_lattice::SizeModel;
use crdt_sim::{NetworkConfig, RunMetrics, ShardedEngineRunner, Topology};
use crdt_sync::ProtocolKind;
use crdt_types::GSet;
use crdt_workloads::{RetwisConfig, RetwisTrace, Timeline, UserId, Wall};

use crate::gate::{or_default, Args, Report};
use crate::json::Json;
use crate::Scale;

/// One `(protocol, zipf, threads)` measurement.
#[derive(Debug, Clone)]
pub struct ShardedRow {
    /// Protocol driven through the trace.
    pub protocol: ProtocolKind,
    /// Zipf coefficient of the workload.
    pub zipf: f64,
    /// Worker threads.
    pub threads: usize,
    /// Distinct objects hosted per node at the end of the run (all three
    /// families).
    pub objects: usize,
    /// Directed links in the topology (the frame-count bound per sync
    /// wave per family).
    pub links: usize,
    /// Workload rounds replayed.
    pub rounds: usize,
    /// Rounds in the metric series: workload rounds plus the idle
    /// convergence tail. The per-round averages divide by *this*, so the
    /// row's fields stay mutually consistent
    /// (`bytes_per_round_per_node = total_bytes / metric_rounds / nodes`).
    pub metric_rounds: usize,
    /// Total transmission (payload + metadata model bytes).
    pub total_bytes: u64,
    /// Total transmitted lattice elements.
    pub total_elements: u64,
    /// Batched wire frames shipped.
    pub frames: u64,
    /// Per-object protocol envelopes (pre-batching).
    pub envelopes: u64,
    /// `envelopes / frames`.
    pub amortization: f64,
    /// Transmission per node per metric round (workload + convergence
    /// tail — see [`ShardedRow::metric_rounds`]).
    pub bytes_per_round_per_node: u64,
    /// Did every family converge?
    pub converged: bool,
}

/// One Retwis deployment after its trace has been replayed and driven
/// to convergence: three family runners (follower sets / walls /
/// timelines) over one shared trace. Objects never interact, so this is
/// exactly equivalent to one deployment hosting all of them, and the
/// metrics add up.
#[derive(Debug)]
pub struct RetwisRun {
    /// Per-user follower sets.
    pub followers: ShardedEngineRunner<UserId, GSet<UserId>>,
    /// Per-user walls.
    pub walls: ShardedEngineRunner<UserId, Wall>,
    /// Per-user timelines.
    pub timelines: ShardedEngineRunner<UserId, Timeline>,
    /// Extra idle rounds until the slowest family converged; `None` if
    /// any family did not within the slack budget.
    pub convergence_rounds: Option<usize>,
}

impl RetwisRun {
    /// The three families' metrics, merged round by round.
    pub fn metrics(&self) -> RunMetrics {
        self.followers
            .metrics()
            .merged(self.walls.metrics())
            .merged(self.timelines.metrics())
    }
}

/// Replay `trace` under `kind` at per-object granularity (one engine per
/// object, the paper's §V-C deployment) with `threads` workers, then
/// synchronize idle rounds until every family converges or `slack`
/// rounds have passed.
pub fn run_retwis(
    trace: &RetwisTrace,
    kind: ProtocolKind,
    topo: &Topology,
    threads: usize,
    slack: usize,
) -> RetwisRun {
    const MODEL: SizeModel = SizeModel::compact();
    let net = NetworkConfig::reliable(0);
    let mut run = RetwisRun {
        followers: ShardedEngineRunner::new(kind, topo.clone(), net, MODEL, threads),
        walls: ShardedEngineRunner::new(kind, topo.clone(), net, MODEL, threads),
        timelines: ShardedEngineRunner::new(kind, topo.clone(), net, MODEL, threads),
        convergence_rounds: None,
    };
    for round in &trace.rounds {
        let f: Vec<_> = round.iter().map(|n| n.followers.clone()).collect();
        let w: Vec<_> = round.iter().map(|n| n.walls.clone()).collect();
        let t: Vec<_> = round.iter().map(|n| n.timelines.clone()).collect();
        run.followers.step(&f);
        run.walls.step(&w);
        run.timelines.step(&t);
    }
    // Every family runs out its own tail, converged or not.
    let extras = [
        run.followers.run_to_convergence(slack),
        run.walls.run_to_convergence(slack),
        run.timelines.run_to_convergence(slack),
    ];
    run.convergence_rounds = extras.into_iter().try_fold(0, |max, e| Some(max.max(e?)));
    run
}

/// The Zipf coefficients swept: the paper's range.
pub const ZIPFS: [f64; 3] = [0.5, 1.0, 1.5];

/// Run the sweep: `kinds` × `zipfs` × `threads_list` over one
/// deterministic trace per zipf point. Scale: quick = 10 nodes / 300
/// users / 8 rounds; full = 50 nodes / 10 000 users (30 K objects) / 30
/// rounds.
pub fn run_retwis_sharded(
    scale: Scale,
    kinds: &[ProtocolKind],
    zipfs: &[f64],
    threads_list: &[usize],
) -> Vec<ShardedRow> {
    let topo = Topology::partial_mesh(scale.pick(50, 10), 4);
    let rounds = scale.pick(30, 8);
    let cfg_base = RetwisConfig {
        n_users: scale.pick(10_000, 300),
        ops_per_node_per_round: scale.pick(4, 2),
        max_fanout: scale.pick(50, 10),
        seed: 42,
        zipf: 0.0, // overwritten per point
    };
    let links = 2 * topo.edge_count();

    let mut rows = Vec::new();
    for &zipf in zipfs {
        let trace = RetwisTrace::generate(RetwisConfig { zipf, ..cfg_base }, topo.len(), rounds);
        for &kind in kinds {
            for &threads in threads_list {
                let run = run_retwis(&trace, kind, &topo, threads, topo.diameter() * 4 + 16);
                let node0 = crdt_lattice::ReplicaId(0);
                let objects = run.followers.objects_at(node0)
                    + run.walls.objects_at(node0)
                    + run.timelines.objects_at(node0);
                let converged = run.convergence_rounds.is_some();
                let metrics = run.metrics();
                rows.push(ShardedRow {
                    protocol: kind,
                    zipf,
                    threads,
                    objects,
                    links,
                    rounds,
                    metric_rounds: metrics.rounds.len(),
                    total_bytes: metrics.total_bytes(),
                    total_elements: metrics.total_elements(),
                    frames: metrics.total_messages(),
                    envelopes: metrics.total_envelopes(),
                    amortization: metrics.batch_amortization(),
                    bytes_per_round_per_node: metrics.total_bytes()
                        / (metrics.rounds.len().max(1) as u64)
                        / (topo.len() as u64),
                    converged,
                });
            }
        }
    }
    rows
}

/// Render rows as the `BENCH_retwis_sharded.json` rows.
pub fn rows_json(rows: &[ShardedRow]) -> Vec<Json> {
    rows.iter()
        .map(|r| {
            Json::Obj(vec![
                ("protocol".into(), Json::str(r.protocol.id())),
                ("protocol_name".into(), Json::str(r.protocol.name())),
                ("zipf".into(), Json::Num(r.zipf)),
                ("threads".into(), Json::num(r.threads as u64)),
                ("objects".into(), Json::num(r.objects as u64)),
                ("links".into(), Json::num(r.links as u64)),
                ("rounds".into(), Json::num(r.rounds as u64)),
                ("metric_rounds".into(), Json::num(r.metric_rounds as u64)),
                ("total_bytes".into(), Json::num(r.total_bytes)),
                ("total_elements".into(), Json::num(r.total_elements)),
                ("frames".into(), Json::num(r.frames)),
                ("envelopes".into(), Json::num(r.envelopes)),
                ("amortization".into(), Json::Num(r.amortization)),
                (
                    "bytes_per_round_per_node".into(),
                    Json::num(r.bytes_per_round_per_node),
                ),
                ("converged".into(), Json::Bool(r.converged)),
            ])
        })
        .collect()
}

/// `perf retwis_sharded`: `--protocol` (default classic vs BP+RR, the
/// Fig. 11/12 comparison) × [`ZIPFS`] × `--threads` (default 1, 4, 8).
/// Every point must converge.
pub fn run(args: &Args) -> Report {
    let kinds = or_default(
        &args.protocols,
        &[ProtocolKind::Classic, ProtocolKind::BpRr],
    );
    let threads = or_default(&args.threads, &[1, 4, 8]);
    let rows = run_retwis_sharded(args.scale, &kinds, &ZIPFS, &threads);
    Report {
        rows: rows_json(&rows),
        failures: rows
            .iter()
            .filter(|r| !r.converged)
            .map(|r| {
                format!(
                    "{} did not converge (zipf {}, threads {})",
                    r.protocol, r.zipf, r.threads
                )
            })
            .collect(),
        metrics_artifact: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_rows() -> Vec<ShardedRow> {
        run_retwis_sharded(
            Scale::Quick,
            &[ProtocolKind::Classic, ProtocolKind::BpRr],
            &[1.0],
            &[1, 4],
        )
    }

    #[test]
    fn frames_are_bounded_by_links_not_objects() {
        let rows = tiny_rows();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.converged, "{:?}", r.protocol);
            assert!(r.objects > 50, "sharded granularity: many objects");
            // Three family runners, ≤ 1 frame per directed link per
            // family per sync wave; δ-kinds have exactly one wave per
            // round, and the row reports the actual metric rounds
            // (workload + convergence tail) — so the whole run stays at
            // links-scale, nowhere near objects-scale.
            assert!(
                r.frames <= 3 * r.links as u64 * r.metric_rounds as u64,
                "{}: {} frames exceeds the O(links) bound",
                r.protocol,
                r.frames
            );
            assert!(
                r.amortization > 1.5,
                "{}: batching must amortize ({} envelopes / {} frames)",
                r.protocol,
                r.envelopes,
                r.frames
            );
        }
    }

    #[test]
    fn accounting_is_thread_invariant_and_classic_loses() {
        let rows = tiny_rows();
        let find = |kind: ProtocolKind, threads: usize| {
            rows.iter()
                .find(|r| r.protocol == kind && r.threads == threads)
                .unwrap()
        };
        for kind in [ProtocolKind::Classic, ProtocolKind::BpRr] {
            let (t1, t4) = (find(kind, 1), find(kind, 4));
            assert_eq!(t1.total_bytes, t4.total_bytes, "{kind}");
            assert_eq!(t1.frames, t4.frames, "{kind}");
            assert_eq!(t1.envelopes, t4.envelopes, "{kind}");
        }
        // Zipf 1.0 contention: classic must transmit more than BP+RR.
        assert!(
            find(ProtocolKind::Classic, 1).total_bytes > find(ProtocolKind::BpRr, 1).total_bytes,
            "the Retwis separation must survive the unified runner"
        );
    }

    #[test]
    fn report_roundtrips_and_gates() {
        use crate::gate::{family, results};
        let family = family("retwis_sharded").unwrap();
        let rows = tiny_rows();
        let json = rows_json(&rows);
        let back = Json::parse(&family.document(&json, true).pretty()).unwrap();
        assert_eq!(
            back.get("schema").unwrap().as_str(),
            Some("bench-retwis-sharded/v1")
        );
        assert!(family.violations(results(&back), &json).is_empty());

        // A doubled-bytes current run fails; a missing row fails.
        let mut worse = rows.clone();
        worse[0].total_bytes *= 2;
        worse.remove(1);
        let violations = family.violations(&rows_json(&worse), &json);
        assert!(violations.iter().any(|v| v.contains("total_bytes")));
        assert!(violations.iter().any(|v| v.contains("missing")));
    }
}
