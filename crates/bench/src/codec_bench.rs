//! The `codec` family: how few allocations the wire codec needs to move
//! batched envelope frames.
//!
//! The paper's whole argument is that synchronization cost is what
//! crosses the wire; the simulator must therefore spend its CPU on
//! protocol work, not on re-vectoring payloads. This family pins the
//! zero-copy/pooling codec's allocation discipline at Retwis-like batch
//! shapes: encoded frame size, heap allocations per decoded frame for
//! the copying path ([`WireEncode::from_bytes`]) versus the shared path
//! ([`BatchEnvelope::decode_shared`]), allocations per steady-state
//! `ShardedEngineRunner` round, and the worst-case
//! allocated-bytes-to-input ratio over corrupted frames. All of it is
//! deterministic and gated against `ci/bench-baseline/BENCH_codec.json`;
//! codec throughput is `benchmark/`'s `lattice.encode_ns_per_byte` /
//! `decode_ns_per_byte`.
//!
//! Allocation metrics require the measuring **binary** to install
//! [`testkit_alloc::CountingAllocator`]; the `perf` bin does. When it is
//! absent (e.g. this library's unit tests) they report zero and the
//! gate drops the rows (`"measured": false`).

use crdt_lattice::{ReplicaId, SizeModel, WireEncode};
use crdt_sim::{NetworkConfig, ShardedEngineRunner, Topology};
use crdt_sync::{BatchEnvelope, Bytes, ProtocolKind, WireAccounting, WireEnvelope};
use crdt_types::{GSet, GSetOp};

use crate::gate::{Args, Report};
use crate::json::Json;
use crate::Scale;

/// One measured batch shape.
#[derive(Debug, Clone)]
pub struct CodecRow {
    /// Objects (entries) per batch frame.
    pub entries: usize,
    /// Lattice elements per entry payload.
    pub elems_per_entry: usize,
    /// Encoded frame length in bytes (deterministic).
    pub frame_bytes: u64,
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

fn measure_frame(entries: usize, elems_per_entry: usize) -> CodecRow {
    let proto = batch(entries, elems_per_entry);
    let frame_vec = proto.to_bytes();
    let frame_bytes = frame_vec.len() as u64;
    let frame = Bytes::copy_from_slice(&frame_vec);
    let measured = testkit_alloc::is_installed();

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

/// Run the family. Quick scale shrinks the largest batch shape for CI;
/// the allocation metrics are scale-independent by construction (they
/// measure single frames and single rounds).
pub fn run_codec(scale: Scale) -> CodecReport {
    let shapes: &[(usize, usize)] = &[(16, 4), (256, 4), (scale.pick(4096, 1024), 2)];
    let frames = shapes
        .iter()
        .map(|&(entries, elems)| measure_frame(entries, elems))
        .collect();
    let runner = [64, scale.pick(4096, 1024)]
        .into_iter()
        .map(measure_runner)
        .collect();
    CodecReport { frames, runner }
}

/// Render the `BENCH_codec.json` rows: frame rows, then runner rows.
/// Rows whose allocation metrics were not actually measured (no
/// counting allocator in this binary) carry `"measured": false`.
pub fn rows_json(report: &CodecReport) -> Vec<Json> {
    let frames = report.frames.iter().map(|r| {
        Json::Obj(vec![
            ("row".into(), Json::str("frame")),
            ("entries".into(), Json::num(r.entries as u64)),
            (
                "elems_per_entry".into(),
                Json::num(r.elems_per_entry as u64),
            ),
            ("frame_bytes".into(), Json::num(r.frame_bytes)),
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
    });
    let runner = report.runner.iter().map(|r| {
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
    });
    frames.chain(runner).collect()
}

/// `perf codec`: the family has no invariant beyond its gate.
pub fn run(args: &Args) -> Report {
    Report {
        rows: rows_json(&run_codec(args.scale)),
        ..Report::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{family, results, Family};

    fn codec() -> &'static Family {
        family("codec").unwrap()
    }

    #[test]
    fn report_roundtrips_and_gates() {
        // Unit tests run without the counting allocator: allocation
        // metrics are zero and flagged unmeasured, but the report shape,
        // JSON round-trip and gate plumbing are all exercised.
        let report = run_codec(Scale::Quick);
        assert_eq!(report.frames.len(), 3);
        assert!(report.frames.iter().all(|r| r.frame_bytes > 0));
        let rows = rows_json(&report);
        let back = Json::parse(&codec().document(&rows, true).pretty()).unwrap();
        assert_eq!(back.get("schema").unwrap().as_str(), Some("bench-codec/v1"));
        assert!(codec().violations(results(&back), &rows).is_empty());
    }

    fn frame_row(allocs: u64, measured: bool) -> [Json; 1] {
        [Json::Obj(vec![
            ("row".into(), Json::str("frame")),
            ("entries".into(), Json::num(16)),
            ("elems_per_entry".into(), Json::num(4)),
            ("frame_bytes".into(), Json::num(1000)),
            ("decode_allocs".into(), Json::num(allocs)),
            ("measured".into(), Json::Bool(measured)),
            ("converged".into(), Json::Bool(true)),
        ])]
    }

    #[test]
    fn gate_flags_regressions_on_measured_rows() {
        let violations = codec().violations(&frame_row(400, true), &frame_row(100, true));
        assert!(violations.iter().any(|v| v.contains("decode_allocs")));
        assert!(codec()
            .violations(&frame_row(100, true), &frame_row(100, true))
            .is_empty());
    }

    #[test]
    fn unmeasured_rows_are_not_gated() {
        // An unmeasured baseline row demands nothing; an unmeasured
        // current row cannot stand in for a measured baseline row.
        let (unmeasured, measured) = (frame_row(0, false), frame_row(100, true));
        assert!(codec().violations(&unmeasured, &unmeasured).is_empty());
        let violations = codec().violations(&unmeasured, &measured);
        assert!(violations[0].contains("missing"), "{violations:?}");
    }
}
