//! Cost of the type-erasure boundary, tracked so the engine layer's
//! overhead stays visible in the perf trajectory:
//!
//! * `envelope/*` — [`WireEnvelope`] encode/decode around δ-group
//!   payloads of growing size (the per-message serialization the erased
//!   path adds over in-process message passing);
//! * `dispatch/*` — one local op + sync + receive cycle through the
//!   monomorphized [`Protocol`] API vs the same cycle through
//!   `Box<dyn SyncEngine>` (dyn dispatch + op/message codec);
//! * `round/*` — a full simulator round at protocol level: generic
//!   `Runner` vs `ShardedEngineRunner` at one object per node, on
//!   identical workloads.

use crdt_lattice::{ReplicaId, SizeModel, WireEncode};
use crdt_sim::{NetworkConfig, Runner, ShardedEngineRunner, Topology};
use crdt_sync::{
    build_engine, BpRrDelta, DeltaMsg, OpBytes, Params, Protocol, ProtocolKind, WireEnvelope,
};
use crdt_types::{GSet, GSetOp};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

const A: ReplicaId = ReplicaId(0);
const B: ReplicaId = ReplicaId(1);

fn delta_envelope(n: u64) -> WireEnvelope {
    let params = Params::new(2);
    let mut engine = build_engine::<GSet<u64>>(ProtocolKind::BpRr, A, &params);
    for e in 0..n {
        engine.on_op(&OpBytes::encode(&GSetOp::Add(e))).unwrap();
    }
    engine.on_sync(&[B]).pop().expect("one δ-group")
}

fn bench_envelope_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("envelope");
    for &n in &[8u64, 64, 512] {
        let env = delta_envelope(n);
        g.bench_with_input(BenchmarkId::new("encode", n), &env, |b, env| {
            b.iter(|| black_box(env.to_bytes()))
        });
        let bytes = env.to_bytes();
        g.bench_with_input(BenchmarkId::new("decode", n), &bytes, |b, bytes| {
            b.iter(|| black_box(WireEnvelope::from_bytes(black_box(bytes)).unwrap()))
        });
        // Baseline: the payload alone, without the envelope frame.
        let payload = env.payload.clone();
        g.bench_with_input(
            BenchmarkId::new("decode_payload_only", n),
            &payload,
            |b, p| b.iter(|| black_box(DeltaMsg::<GSet<u64>>::from_bytes(black_box(p)).unwrap())),
        );
    }
    g.finish();
}

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatch");
    let params = Params::new(2);

    // Monomorphized: op + sync + receive, all in-process values.
    g.bench_function("generic_op_sync_recv", |b| {
        let mut a: BpRrDelta<GSet<u64>> = Protocol::new(A, &params);
        let mut t: BpRrDelta<GSet<u64>> = Protocol::new(B, &params);
        let mut e = 0u64;
        let mut out = Vec::new();
        b.iter(|| {
            e += 1;
            a.on_op(&GSetOp::Add(e));
            a.on_sync(&[B], &mut out);
            for (_, msg) in out.drain(..) {
                t.on_msg(A, msg, &mut Vec::new());
            }
        })
    });

    // Erased: identical cycle through OpBytes + envelopes.
    g.bench_function("erased_op_sync_recv", |b| {
        let mut a = build_engine::<GSet<u64>>(ProtocolKind::BpRr, A, &params);
        let mut t = build_engine::<GSet<u64>>(ProtocolKind::BpRr, B, &params);
        let mut e = 0u64;
        b.iter(|| {
            e += 1;
            a.on_op(&OpBytes::encode(&GSetOp::Add(e))).unwrap();
            for env in a.on_sync(&[B]) {
                t.on_msg(env).unwrap();
            }
        })
    });
    g.finish();
}

fn bench_full_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("round");
    let n = 8;
    for &rounds in &[4usize, 16] {
        g.bench_with_input(
            BenchmarkId::new("generic_bp_rr", rounds),
            &rounds,
            |b, &rounds| {
                b.iter_batched(
                    || Topology::partial_mesh(n, 4),
                    |topo| {
                        let mut r: Runner<GSet<u64>, BpRrDelta<GSet<u64>>> =
                            Runner::new(topo, NetworkConfig::reliable(1), SizeModel::compact());
                        let mut w = |node: ReplicaId, round: usize| {
                            vec![GSetOp::Add((round * n + node.index()) as u64)]
                        };
                        r.run(&mut w, rounds);
                        black_box(r.metrics().total_elements())
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
        g.bench_with_input(
            BenchmarkId::new("erased_bp_rr", rounds),
            &rounds,
            |b, &rounds| {
                b.iter_batched(
                    || Topology::partial_mesh(n, 4),
                    |topo| {
                        let mut r: ShardedEngineRunner<(), GSet<u64>> = ShardedEngineRunner::new(
                            ProtocolKind::BpRr,
                            topo,
                            NetworkConfig::reliable(1),
                            SizeModel::compact(),
                            1,
                        );
                        let mut w = |node: ReplicaId, round: usize| {
                            vec![GSetOp::Add((round * n + node.index()) as u64)]
                        };
                        r.run(&mut w, rounds);
                        black_box(r.metrics().total_elements())
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    g.finish();
}

criterion_group!(
    engine_overhead,
    bench_envelope_codec,
    bench_dispatch,
    bench_full_round
);
criterion_main!(engine_overhead);
