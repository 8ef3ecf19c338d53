//! The `codec_throughput` experiment family: how fast — and with how
//! few allocations — the wire codec moves batched envelope frames.
//!
//! The paper's whole argument is that synchronization cost is what
//! crosses the wire; the simulator must therefore spend its CPU on
//! protocol work, not on re-vectoring payloads. This family measures the
//! encode/decode hot path at Retwis-like batch shapes and pins the
//! zero-copy/pooling refactor's two claims:
//!
//! * **throughput** — encode and decode MB/s for batch frames (wall
//!   clock: reported as artifacts, never gated);
//! * **allocation discipline** — heap allocations per decoded frame for
//!   the copying path ([`WireEncode::from_bytes`]) versus the shared
//!   path ([`BatchEnvelope::decode_shared`]), allocations per
//!   steady-state `ShardedEngineRunner` round, and the worst-case
//!   allocated-bytes-to-input ratio over corrupted frames (deterministic:
//!   gated against `ci/bench-baseline/BENCH_codec.json`).
//!
//! Allocation metrics require the measuring **binary** to install
//! [`testkit_alloc::CountingAllocator`]; the `codec_throughput` bin
//! does. When it is absent (e.g. this library's unit tests) they report
//! zero and are skipped by the gate (`"measured": false`).

use std::time::Instant;

use crdt_lattice::{ReplicaId, SizeModel, WireEncode};
use crdt_sim::{NetworkConfig, ShardedEngineRunner, Topology};
use crdt_sync::{BatchEnvelope, Bytes, ProtocolKind, WireAccounting, WireEnvelope};
use crdt_types::{GSet, GSetOp};

use crate::json::Json;
use crate::{fmt_ratio, print_table, Scale};

/// One measured batch shape.
#[derive(Debug, Clone)]
pub struct CodecRow {
    /// Objects (entries) per batch frame.
    pub entries: usize,
    /// Lattice elements per entry payload.
    pub elems_per_entry: usize,
    /// Encoded frame length in bytes (deterministic).
    pub frame_bytes: u64,
    /// Encode throughput, MB/s (wall clock, artifact only).
    pub encode_mbps: f64,
    /// Copying-decode throughput, MB/s (wall clock, artifact only).
    pub decode_mbps: f64,
    /// Zero-copy decode throughput, MB/s (wall clock, artifact only).
    pub decode_shared_mbps: f64,
    /// Heap allocations for one copying decode of the frame.
    pub decode_allocs: u64,
    /// Heap allocations for one zero-copy decode of the frame.
    pub decode_shared_allocs: u64,
    /// Worst allocated-bytes / input-length ratio over a sweep of
    /// corrupted variants of this frame (the robustness budget).
    pub corrupt_alloc_ratio: f64,
    /// Were the allocation metrics actually measured (counting allocator
    /// installed)?
    pub measured: bool,
}

/// Steady-state allocation behavior of the sharded runner.
#[derive(Debug, Clone)]
pub struct RunnerAllocRow {
    /// Distinct objects per node.
    pub objects: usize,
    /// Heap allocations in one idle (converged, no ops) round.
    pub idle_round_allocs: u64,
    /// Heap allocations in one active round (4 ops per node).
    pub active_round_allocs: u64,
    /// Were the allocation metrics actually measured?
    pub measured: bool,
}

/// The whole report.
#[derive(Debug, Clone)]
pub struct CodecReport {
    /// Per-batch-shape codec measurements.
    pub frames: Vec<CodecRow>,
    /// Per-keyspace-size runner measurements.
    pub runner: Vec<RunnerAllocRow>,
}

fn batch(entries: usize, elems_per_entry: usize) -> BatchEnvelope<u32> {
    let mut out: BatchEnvelope<u32> = BatchEnvelope::new();
    for k in 0..entries {
        let payload =
            GSet::from_iter((0..elems_per_entry).map(|e| (k * elems_per_entry + e) as u64))
                .to_bytes();
        out.push(
            k as u32,
            WireEnvelope {
                from: ReplicaId(0),
                to: ReplicaId(1),
                kind: ProtocolKind::BpRr,
                accounting: WireAccounting {
                    payload_elements: elems_per_entry as u64,
                    payload_bytes: 8 * elems_per_entry as u64,
                    metadata_bytes: 0,
                    encoded_bytes: payload.len() as u64,
                },
                payload: payload.into(),
            },
        );
    }
    out
}

fn mbps(bytes_total: u64, elapsed_nanos: u128) -> f64 {
    if elapsed_nanos == 0 {
        return f64::INFINITY;
    }
    (bytes_total as f64 / (1024.0 * 1024.0)) / (elapsed_nanos as f64 / 1e9)
}

/// Stamp a maximal varint at `pos` — the length-field corruption.
fn corrupt_at(frame: &[u8], pos: usize) -> Vec<u8> {
    let mut bad = frame.to_vec();
    for (i, b) in [0xffu8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]
        .into_iter()
        .enumerate()
    {
        if pos + i < bad.len() {
            bad[pos + i] = b;
        }
    }
    bad
}

fn measure_frame(entries: usize, elems_per_entry: usize, reps: usize) -> CodecRow {
    let proto = batch(entries, elems_per_entry);
    let frame_vec = proto.to_bytes();
    let frame_bytes = frame_vec.len() as u64;
    let frame = Bytes::copy_from_slice(&frame_vec);
    let measured = testkit_alloc::is_installed();

    // Throughput (wall clock).
    let t0 = Instant::now();
    let mut scratch = Vec::new();
    for _ in 0..reps {
        scratch.clear();
        proto.encode(&mut scratch);
        std::hint::black_box(&scratch);
    }
    let encode_mbps = mbps(frame_bytes * reps as u64, t0.elapsed().as_nanos());

    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(BatchEnvelope::<u32>::from_bytes(&frame_vec).expect("valid frame"));
    }
    let decode_mbps = mbps(frame_bytes * reps as u64, t0.elapsed().as_nanos());

    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(BatchEnvelope::<u32>::decode_shared(&frame).expect("valid frame"));
    }
    let decode_shared_mbps = mbps(frame_bytes * reps as u64, t0.elapsed().as_nanos());

    // Allocation discipline (deterministic).
    let (_, copying) =
        testkit_alloc::measure(|| BatchEnvelope::<u32>::from_bytes(&frame_vec).expect("valid"));
    let (_, shared) =
        testkit_alloc::measure(|| BatchEnvelope::<u32>::decode_shared(&frame).expect("valid"));

    // Robustness budget: corrupt every 7th position (plus truncations)
    // and track the worst allocated-bytes-to-input ratio.
    let mut worst = 0.0f64;
    for pos in (0..frame_vec.len()).step_by(7) {
        let bad = corrupt_at(&frame_vec, pos);
        let (_, stats) = testkit_alloc::measure(|| {
            std::hint::black_box(BatchEnvelope::<u32>::from_bytes(&bad).ok());
        });
        worst = worst.max(stats.allocated_bytes as f64 / bad.len().max(1) as f64);
        let cut = &frame_vec[..pos];
        let (_, stats) = testkit_alloc::measure(|| {
            std::hint::black_box(BatchEnvelope::<u32>::from_bytes(cut).ok());
        });
        worst = worst.max(stats.allocated_bytes as f64 / cut.len().max(1) as f64);
    }

    CodecRow {
        entries,
        elems_per_entry,
        frame_bytes,
        encode_mbps,
        decode_mbps,
        decode_shared_mbps,
        decode_allocs: copying.allocations,
        decode_shared_allocs: shared.allocations,
        corrupt_alloc_ratio: worst,
        measured,
    }
}

fn measure_runner(objects: usize) -> RunnerAllocRow {
    type R = ShardedEngineRunner<u32, GSet<u64>>;
    let nodes = 4;
    let mut r: R = ShardedEngineRunner::new(
        ProtocolKind::BpRr,
        Topology::full_mesh(nodes),
        NetworkConfig::reliable(0),
        SizeModel::compact(),
        2,
    );
    // Populate the keyspace and converge.
    let seed_ops: Vec<Vec<(u32, GSetOp<u64>)>> = (0..nodes)
        .map(|n| {
            (0..objects)
                .map(|k| (k as u32, GSetOp::Add((n * objects + k) as u64)))
                .collect()
        })
        .collect();
    r.step(&seed_ops);
    r.run_to_convergence(32).expect("codec bench converges");
    let idle: Vec<Vec<(u32, GSetOp<u64>)>> = vec![Vec::new(); nodes];
    // Warm the pools and thread plumbing before measuring.
    r.step(&idle);
    let (_, idle_stats) = testkit_alloc::measure(|| r.step(&idle));
    let active: Vec<Vec<(u32, GSetOp<u64>)>> = (0..nodes)
        .map(|n| {
            (0..4u32)
                .map(|k| (k, GSetOp::Add(1_000_000 + (n as u64) * 10 + u64::from(k))))
                .collect()
        })
        .collect();
    r.step(&active); // warm the active path too (buffers, batch maps)
    let (_, active_stats) = testkit_alloc::measure(|| r.step(&active));
    RunnerAllocRow {
        objects,
        idle_round_allocs: idle_stats.allocations,
        active_round_allocs: active_stats.allocations,
        measured: testkit_alloc::is_installed(),
    }
}

/// Run the family. Quick scale shrinks the batch shapes and repetitions
/// for CI; the allocation metrics are scale-independent by construction
/// (they measure single frames and single rounds).
pub fn run_codec_throughput(scale: Scale) -> CodecReport {
    let reps = scale.pick(2_000, 200);
    let shapes: &[(usize, usize)] = &[(16, 4), (256, 4), (scale.pick(4096, 1024), 2)];
    let frames = shapes
        .iter()
        .map(|&(entries, elems)| measure_frame(entries, elems, reps))
        .collect();
    let runner = [64, scale.pick(4096, 1024)]
        .into_iter()
        .map(measure_runner)
        .collect();
    CodecReport { frames, runner }
}

/// Print the report as tables.
pub fn print_report(report: &CodecReport) {
    let rows: Vec<Vec<String>> = report
        .frames
        .iter()
        .map(|r| {
            vec![
                r.entries.to_string(),
                r.elems_per_entry.to_string(),
                r.frame_bytes.to_string(),
                format!("{:.0}", r.encode_mbps),
                format!("{:.0}", r.decode_mbps),
                format!("{:.0}", r.decode_shared_mbps),
                r.decode_allocs.to_string(),
                r.decode_shared_allocs.to_string(),
                fmt_ratio(r.corrupt_alloc_ratio),
            ]
        })
        .collect();
    print_table(
        "codec_throughput: batch frames",
        &[
            "entries",
            "elems/entry",
            "frame B",
            "enc MB/s",
            "dec MB/s",
            "dec(shared) MB/s",
            "dec allocs",
            "shared allocs",
            "corrupt alloc ratio",
        ],
        &rows,
    );
    let rows: Vec<Vec<String>> = report
        .runner
        .iter()
        .map(|r| {
            vec![
                r.objects.to_string(),
                r.idle_round_allocs.to_string(),
                r.active_round_allocs.to_string(),
                if r.measured { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "codec_throughput: sharded runner allocations per round",
        &[
            "objects/node",
            "idle-round allocs",
            "active-round allocs",
            "measured",
        ],
        &rows,
    );
}

/// Render the `BENCH_codec.json` document. Rows whose allocation
/// metrics were not actually measured (no counting allocator in this
/// binary) carry `"measured": false`; [`check_regression`] drops them
/// before gating.
pub fn report_to_json(report: &CodecReport, quick: bool) -> Json {
    let frames = report
        .frames
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("row".into(), Json::str("frame")),
                ("entries".into(), Json::num(r.entries as u64)),
                (
                    "elems_per_entry".into(),
                    Json::num(r.elems_per_entry as u64),
                ),
                ("frame_bytes".into(), Json::num(r.frame_bytes)),
                ("encode_mbps".into(), Json::Num(r.encode_mbps)),
                ("decode_mbps".into(), Json::Num(r.decode_mbps)),
                ("decode_shared_mbps".into(), Json::Num(r.decode_shared_mbps)),
                ("decode_allocs".into(), Json::num(r.decode_allocs)),
                (
                    "decode_shared_allocs".into(),
                    Json::num(r.decode_shared_allocs),
                ),
                (
                    "corrupt_alloc_ratio".into(),
                    Json::Num(r.corrupt_alloc_ratio),
                ),
                ("measured".into(), Json::Bool(r.measured)),
                ("converged".into(), Json::Bool(true)),
            ])
        })
        .collect::<Vec<_>>();
    let runner = report
        .runner
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("row".into(), Json::str("runner")),
                ("entries".into(), Json::num(r.objects as u64)),
                ("elems_per_entry".into(), Json::num(0)),
                ("idle_round_allocs".into(), Json::num(r.idle_round_allocs)),
                (
                    "active_round_allocs".into(),
                    Json::num(r.active_round_allocs),
                ),
                ("measured".into(), Json::Bool(r.measured)),
                ("converged".into(), Json::Bool(true)),
            ])
        })
        .collect::<Vec<_>>();
    Json::Obj(vec![
        ("schema".into(), Json::str("bench-codec/v1")),
        ("quick".into(), Json::Bool(quick)),
        (
            "results".into(),
            Json::Arr(frames.into_iter().chain(runner).collect()),
        ),
    ])
}

/// Write the JSON report to `path`.
pub fn write_report(path: &str, report: &CodecReport, quick: bool) -> std::io::Result<()> {
    std::fs::write(path, report_to_json(report, quick).pretty())
}

/// Gated metrics and their absolute floors (see [`crate::gate_limit`]):
/// only deterministic quantities — frame layout size, allocation counts,
/// and the corrupt-input allocation budget. Throughput (MB/s) is wall
/// clock and never gated.
const GATED: [(&str, f64); 6] = [
    ("frame_bytes", 64.0),
    ("decode_allocs", 8.0),
    ("decode_shared_allocs", 8.0),
    ("corrupt_alloc_ratio", 8.0),
    ("idle_round_allocs", 64.0),
    ("active_round_allocs", 64.0),
];

/// Compare a current report to the checked-in baseline. Rows match on
/// `(row, entries, elems_per_entry)`; unmeasured rows (no counting
/// allocator in the producing binary) are dropped from both sides
/// before gating. A *current* run that stopped measuring against a
/// measured baseline therefore fails as "missing" — which is the right
/// failure: the gate must not silently go blind.
pub fn check_regression(current: &Json, baseline: &Json, tolerance: f64) -> Vec<String> {
    let strip = |doc: &Json| -> Json {
        let rows = doc
            .get("results")
            .and_then(Json::as_array)
            .map(|rows| {
                rows.iter()
                    .filter(|r| r.get("measured").and_then(Json::as_bool) != Some(false))
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        Json::Obj(vec![("results".into(), Json::Arr(rows))])
    };
    crate::check_regression_gate(
        &strip(current),
        &strip(baseline),
        tolerance,
        &["row", "entries", "elems_per_entry"],
        &GATED,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_and_gates() {
        // Unit tests run without the counting allocator: allocation
        // metrics are zero and flagged unmeasured, but the report shape,
        // JSON round-trip and gate plumbing are all exercised.
        let report = run_codec_throughput(Scale::Quick);
        assert_eq!(report.frames.len(), 3);
        assert!(report.frames.iter().all(|r| r.frame_bytes > 0));
        let json = report_to_json(&report, true);
        let back = Json::parse(&json.pretty()).unwrap();
        assert_eq!(back.get("schema").unwrap().as_str(), Some("bench-codec/v1"));
        assert!(check_regression(&back, &json, 0.25).is_empty());
    }

    #[test]
    fn gate_flags_regressions_on_measured_rows() {
        let mk = |allocs: u64| {
            Json::Obj(vec![(
                "results".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("row".into(), Json::str("frame")),
                    ("entries".into(), Json::num(16)),
                    ("elems_per_entry".into(), Json::num(4)),
                    ("frame_bytes".into(), Json::num(1000)),
                    ("decode_allocs".into(), Json::num(allocs)),
                    ("measured".into(), Json::Bool(true)),
                    ("converged".into(), Json::Bool(true)),
                ])]),
            )])
        };
        let violations = check_regression(&mk(400), &mk(100), 0.25);
        assert!(violations.iter().any(|v| v.contains("decode_allocs")));
        assert!(check_regression(&mk(100), &mk(100), 0.25).is_empty());
    }

    #[test]
    fn unmeasured_rows_are_not_gated() {
        let unmeasured = Json::Obj(vec![(
            "results".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("row".into(), Json::str("frame")),
                ("entries".into(), Json::num(16)),
                ("elems_per_entry".into(), Json::num(4)),
                ("decode_allocs".into(), Json::num(0)),
                ("measured".into(), Json::Bool(false)),
                ("converged".into(), Json::Bool(true)),
            ])]),
        )]);
        // Baseline has a measured row; current (unmeasured) must not be
        // compared against it — nor counted as missing.
        assert!(check_regression(&unmeasured, &unmeasured, 0.25).is_empty());
    }
}
