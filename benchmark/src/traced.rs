//! The traced run: per-layer numbers for one workload.
//!
//! Nothing inside the crates is instrumented. The workload's update
//! stream is replayed in lockstep so that every layer boundary is a call
//! made from here — once on bare `StoreReplica`s with a harness-owned
//! transport (`update → sync_step → BatchEnvelope encode → decode_shared
//! → absorb`), once over a scheduler-less `LoopbackCluster` (`NetClient::
//! update → sync_now → wait landed → take_inbox → absorb_frames`) — with
//! a span around each call. The states, deltas and frames those replays
//! produce then feed tight timing loops over the public functions of each
//! layer. Counts come from the crates' own registries and probe reports.
//!
//! Every workload runs the same pipeline on its own inputs, so every
//! per-layer metric exists for every workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

use crdt_lattice::{optimal_delta, Lattice, ReplicaId, StateSize, WireEncode};
use crdt_net::{framing, LoopbackCluster, NetClient, NodeHandle};
use crdt_sync::digest::Digest;
use crdt_sync::{
    build_engine_send_with_model, diff_keys, BatchEnvelope, BufferPool, Bytes, DeltaMsg,
    MerkleTree, OpBytes, Params, SyncEngine, WireEnvelope,
};
use crdt_types::Crdt;
use crdt_workloads::Timeline;
use delta_store::{Cluster, StoreReplica};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calib::Calibrator;
use crate::load::{self, Key, TimelineOp, UpdateStream};
use crate::mem;
use crate::report::Outcome;
use crate::span::{self, Span, Tracer};
use crate::stats::median_of;
use crate::sys;
use crate::tcp::{self, divergent_keys, strided_keys, NODES};

/// One round of the update stream: `(node, key, op)`.
pub type Round = Vec<(usize, Key, TimelineOp)>;

/// What a workload hands the pipeline.
#[derive(Debug)]
pub struct Inputs {
    /// Pre-populated objects (0: objects appear as the stream names them).
    pub objects: usize,
    /// Keys reads are drawn from.
    pub keyspace: usize,
    /// The workload's own topology, for the bare replay.
    pub neighbors: Vec<Vec<ReplicaId>>,
    /// The update stream, in lockstep rounds.
    pub rounds: Vec<Round>,
    /// Sync interval of the quiescent cluster whose idle CPU is measured.
    pub sched: Duration,
    /// Time it took to generate `rounds`.
    pub gen_ms: f64,
}

/// Samples kept for the per-layer loops.
const MAX_PAIRS: usize = 4_000;
const MAX_FRAMES: usize = 64;
const MAX_OPS: usize = 20_000;
const MAX_ENGINES: usize = 2_000;
/// Requests timed against the quiescent single node.
const IDLE_REQUESTS: usize = 1_000;

fn ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

/// Median over `reps` runs of `f`, which returns one timing.
fn median_reps(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median_of(&(0..reps).map(|_| f()).collect::<Vec<_>>())
}

/// Run `f`; returns its result, wall nanoseconds and heap allocations
/// (zero unless the counting allocator is installed, as it is in the
/// traced binary).
fn measured<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let start = Instant::now();
    let (value, stats) = testkit_alloc::measure(f);
    (value, ns(start), stats.allocations as f64)
}

// ---------------------------------------------------------------------
// Bare replay
// ---------------------------------------------------------------------

/// What the bare replay saw at the receive boundary.
#[derive(Debug, Default)]
struct Capture {
    /// `(receiver state before the absorb, delta received)`.
    pairs: Vec<(Timeline, Timeline)>,
    /// Encoded batch frames.
    frames: Vec<Bytes>,
    received_elems: u64,
    useful_elems: u64,
    entries: u64,
    batches: u64,
}

type Replicas = Vec<StoreReplica<Key, Timeline>>;

fn populated_replicas(objects: usize, neighbors: &[Vec<ReplicaId>]) -> Replicas {
    let n = neighbors.len();
    // A registry per replica, as a `NodeHandle` attaches one: the bare
    // replay must run the code the node runs.
    let mut replicas: Replicas = (0..n)
        .map(|i| {
            let mut r =
                StoreReplica::with_params(ReplicaId::from(i), load::bp_rr(), Params::new(n));
            r.set_obs(&crdt_obs::Registry::new());
            r
        })
        .collect();
    // Identical pre-population everywhere, then one discarded sync step
    // so nothing is dirty when the replay starts.
    for replica in &mut replicas {
        for key in 0..objects as Key {
            for op in load::populate_ops(key) {
                replica.update(key, &op);
            }
        }
    }
    for (i, replica) in replicas.iter_mut().enumerate() {
        drop(replica.sync_step(&neighbors[i]));
    }
    replicas
}

/// One lockstep round on bare replicas: apply `ops`, run every sync
/// step, carry each batch as an encoded frame, decode and absorb.
fn bare_round(
    replicas: &mut [StoreReplica<Key, Timeline>],
    neighbors: &[Vec<ReplicaId>],
    ops: &[(usize, Key, TimelineOp)],
    r: u32,
    tracer: &mut Tracer,
    mut capture: Option<&mut Capture>,
) -> io::Result<()> {
    let n = replicas.len();
    fn bad(e: impl std::fmt::Display) -> io::Error {
        io::Error::other(format!("bare replay: {e}"))
    }
    let mut inboxes: Vec<Vec<Bytes>> = vec![Vec::new(); n];
    let round = tracer.enter("round", r);
    for (node, key, op) in ops {
        let s = tracer.enter("store.update", r);
        replicas[*node % n].update(*key, op);
        tracer.exit(s);
    }
    for i in 0..n {
        let s = tracer.enter("store.sync_step", r);
        let batches = replicas[i].sync_step(&neighbors[i]);
        tracer.exit(s);
        for (to, msg) in batches {
            let s = tracer.enter("core.batch_encode", r);
            let frame = Bytes::from(msg.to_bytes());
            tracer.exit(s);
            if let Some(c) = capture.as_deref_mut() {
                c.batches += 1;
                c.entries += msg.len() as u64;
                if c.frames.len() < MAX_FRAMES {
                    c.frames.push(frame.clone());
                }
            }
            inboxes[to.index()].push(frame);
        }
    }
    for (j, inbox) in inboxes.into_iter().enumerate() {
        for frame in inbox {
            let s = tracer.enter("core.batch_decode", r);
            let msg = BatchEnvelope::<Key>::decode_shared(&frame).map_err(bad)?;
            tracer.exit(s);
            if let Some(c) = capture.as_deref_mut() {
                // Harness work, under its own span so it does not pass
                // for residual.
                let s = tracer.enter("harness.capture", r);
                for (key, env) in &msg.entries {
                    let delta = DeltaMsg::<Timeline>::from_bytes(&env.payload)
                        .map_err(bad)?
                        .0;
                    let state = replicas[j].get(*key).cloned().unwrap_or_default();
                    c.received_elems += delta.count_elements();
                    c.useful_elems += optimal_delta(&delta, &state).count_elements();
                    if c.pairs.len() < MAX_PAIRS {
                        c.pairs.push((state, delta));
                    }
                }
                tracer.exit(s);
            }
            let s = tracer.enter("store.absorb", r);
            let replies = replicas[j].absorb(msg).map_err(bad)?;
            tracer.exit(s);
            debug_assert!(replies.is_empty(), "delta-family kinds never reply");
        }
    }
    tracer.exit(round);
    Ok(())
}

/// Which rounds of a bare replay record spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spans {
    /// Every round.
    All,
    /// Every other pair of rounds (off, off, on, on, …): traced and
    /// untraced rounds then share replicas, memory layout and machine
    /// speed, and differ only in the spans. Pairs, because the repair
    /// stream alternates its writer from round to round.
    AlternatePairs,
    /// None.
    Off,
}

const WARMUP_ROUNDS: usize = 4;

fn traced_pair(round: usize) -> bool {
    (round / 2) % 2 == 1
}

/// Replay `rounds` on bare replicas over `neighbors`. Returns the
/// replicas — after enough further idle rounds, outside the timing and
/// the trace, for the last deltas to cross any topology — and the wall
/// time of each round.
fn bare_replay(
    inputs: &Inputs,
    neighbors: &[Vec<ReplicaId>],
    spans: Spans,
    tracer: &mut Tracer,
    mut capture: Option<&mut Capture>,
) -> io::Result<(Replicas, Vec<f64>)> {
    let mut replicas = populated_replicas(inputs.objects, neighbors);
    let mut round_ns = Vec::with_capacity(inputs.rounds.len());
    for (r, ops) in inputs.rounds.iter().enumerate() {
        tracer
            .set_enabled(spans == Spans::All || (spans == Spans::AlternatePairs && traced_pair(r)));
        let start = Instant::now();
        bare_round(
            &mut replicas,
            neighbors,
            ops,
            r as u32,
            tracer,
            capture.as_deref_mut(),
        )?;
        round_ns.push(ns(start));
    }
    tracer.set_enabled(false);
    for _ in 0..neighbors.len() {
        bare_round(&mut replicas, neighbors, &[], 0, tracer, None)?;
    }
    Ok((replicas, round_ns))
}

// ---------------------------------------------------------------------
// TCP lockstep replay
// ---------------------------------------------------------------------

type Net = tcp::Cluster;

/// Has every frame a node sent landed in its peer's inbox?
fn landed(cluster: &Net) -> bool {
    (0..NODES).all(|i| {
        let node = cluster.node(i);
        node.queued_to().iter().all(|(_, queued, _)| *queued == 0)
            && node.frames_sent_to().into_iter().all(|(to, sent)| {
                let got = cluster
                    .node(to.index())
                    .frames_landed_from()
                    .into_iter()
                    .find(|(from, _)| from.index() == i)
                    .map_or(0, |(_, n)| n);
                got >= sent
            })
    })
}

fn await_landed(cluster: &Net) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !landed(cluster) {
        if Instant::now() >= deadline {
            return Err(io::Error::other("frames did not land within 5 s"));
        }
        std::thread::yield_now();
    }
    Ok(())
}

fn populate_tcp(cluster: &Net, objects: usize) -> io::Result<()> {
    for key in 0..objects as Key {
        for op in load::populate_ops(key) {
            cluster.node(0).update(key, &op);
        }
    }
    // Node 0 ships, then nodes 1 and 2 forward.
    lockstep_rounds(cluster, 2)
}

/// `n` untraced lockstep rounds without operations.
fn lockstep_rounds(cluster: &Net, n: usize) -> io::Result<()> {
    for _ in 0..n {
        for i in 0..NODES {
            cluster.node(i).sync_now();
        }
        await_landed(cluster)?;
        for i in 0..NODES {
            cluster.node(i).absorb_pending();
        }
    }
    Ok(())
}

fn counters(cluster: &Net) -> io::Result<(u64, u64)> {
    let sum = |name| {
        (0..NODES)
            .map(|i| tcp::counter(cluster.node(i), name))
            .sum::<Option<u64>>()
            .ok_or_else(|| io::Error::other(format!("{name} is no longer registered")))
    };
    Ok((sum("net.frames.sent")?, sum("net.bytes.sent")?))
}

/// Replay the rounds over three real nodes stepped from here. Returns
/// the cluster (for the by-value check) and the spans.
fn tcp_replay(inputs: &Inputs, out: &mut Outcome) -> io::Result<(Net, Vec<Span>)> {
    let cfg = tcp::node_config(None);
    let cluster: Net = LoopbackCluster::full_mesh(NODES, cfg)?;
    populate_tcp(&cluster, inputs.objects)?;
    let mut clients = (0..NODES)
        .map(|i| NetClient::<Key, Timeline>::connect(cluster.addr(i), cfg.max_frame_bytes))
        .collect::<io::Result<Vec<_>>>()?;
    let net_err = |e| io::Error::other(format!("tcp replay: {e}"));

    let (frames_before, bytes_before) = counters(&cluster)?;
    let mut tracer = Tracer::new(true);
    let (mut updates, mut absorbed_frames) = (0u64, 0u64);
    for (r, ops) in inputs.rounds.iter().enumerate() {
        let r = r as u32;
        let round = tracer.enter("round", r);
        for (node, key, op) in ops {
            let s = tracer.enter("net.client_update", r);
            clients[*node % NODES].update(*key, op).map_err(net_err)?;
            tracer.exit(s);
            updates += 1;
        }
        for i in 0..NODES {
            let s = tracer.enter("net.sync_now", r);
            cluster.node(i).sync_now();
            tracer.exit(s);
        }
        let s = tracer.enter("net.flight", r);
        await_landed(&cluster)?;
        tracer.exit(s);
        for i in 0..NODES {
            let s = tracer.enter("net.take_inbox", r);
            let frames = cluster.node(i).take_inbox();
            tracer.exit(s);
            let s = tracer.enter("net.absorb_frames", r);
            absorbed_frames += cluster.node(i).absorb_frames(frames) as u64;
            tracer.exit(s);
        }
        tracer.exit(round);
    }
    let (frames_after, bytes_after) = counters(&cluster)?;
    let frames = (frames_after - frames_before) as f64;
    out.set("net.frames_per_update", frames / updates.max(1) as f64);
    out.set(
        "net.bytes_per_frame",
        (bytes_after - bytes_before) as f64 / frames.max(1.0),
    );

    let spans = tracer.spans().to_vec();
    let mean_us = |name: &str| {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        d.iter().sum::<f64>() / d.len().max(1) as f64
    };
    let times = span::self_times(&spans);
    let rounds_ns: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64)
        .sum();
    out.set(
        "trace.tcp_round_us",
        rounds_ns / 1e3 / inputs.rounds.len().max(1) as f64,
    );
    out.set(
        "trace.tcp_residual_share",
        span_share(&times, rounds_ns, "round"),
    );
    out.set(
        "trace.tcp_share.client_update",
        span_share(&times, rounds_ns, "net.client_update"),
    );
    out.set(
        "trace.tcp_share.sync_now",
        span_share(&times, rounds_ns, "net.sync_now"),
    );
    out.set(
        "trace.tcp_share.flight",
        span_share(&times, rounds_ns, "net.flight"),
    );
    out.set(
        "trace.tcp_share.absorb",
        span_share(&times, rounds_ns, "net.absorb_frames")
            + span_share(&times, rounds_ns, "net.take_inbox"),
    );
    out.set("net.sync_now_us", mean_us("net.sync_now"));
    out.set("net.flight_us", mean_us("net.flight"));
    let absorb_us: f64 = spans
        .iter()
        .filter(|s| s.name == "net.absorb_frames")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .sum();
    out.set(
        "net.absorb_us_per_frame",
        absorb_us / absorbed_frames.max(1) as f64,
    );

    let (mut stalls, mut coalesced, mut queue_dropped, mut bad) = (0, 0, 0, 0);
    for i in 0..NODES {
        let p = cluster.node(i).probe_local();
        stalls += p.stall_events;
        coalesced += p.coalesced_frames;
        queue_dropped += p.queue_dropped_frames;
        bad += p.bad_frames;
    }
    out.set("net.stall_events", stalls as f64);
    out.set("net.coalesced_frames", coalesced as f64);
    out.set("net.queue_dropped_frames", queue_dropped as f64);
    out.set("net.bad_frames", bad as f64);
    out.check(bad == 0 && queue_dropped == 0, || {
        format!("tcp replay: {bad} bad frames, {queue_dropped} queue-dropped frames")
    });
    Ok((cluster, spans))
}

// ---------------------------------------------------------------------
// Per-layer loops
// ---------------------------------------------------------------------

fn lattice_section(pairs: &[(Timeline, Timeline)], out: &mut Outcome) {
    let calls = pairs.len().max(1) as f64;
    let elems = pairs
        .iter()
        .map(|(_, d)| d.count_elements())
        .sum::<u64>()
        .max(1) as f64;

    let mut join_allocs = 0.0;
    let join_ns = median_reps(5, || {
        let mut targets: Vec<Timeline> = pairs.iter().map(|(s, _)| s.clone()).collect();
        let deltas: Vec<Timeline> = pairs.iter().map(|(_, d)| d.clone()).collect();
        let ((), t, allocs) = measured(|| {
            for (target, delta) in targets.iter_mut().zip(deltas) {
                black_box(target.join_assign(delta));
            }
        });
        join_allocs = allocs;
        t
    });
    out.set("lattice.join_ns_per_elem", join_ns / elems);
    out.set("lattice.join_allocs_per_call", join_allocs / calls);

    let delta_ns = median_reps(5, || {
        let start = Instant::now();
        for (state, delta) in pairs {
            black_box(optimal_delta(delta, state));
        }
        ns(start)
    });
    out.set("lattice.delta_ns_per_elem", delta_ns / elems);

    let joined: Vec<Timeline> = pairs
        .iter()
        .map(|(s, d)| s.clone().join(d.clone()))
        .collect();
    let encoded: Vec<Vec<u8>> = joined.iter().map(WireEncode::to_bytes).collect();
    let bytes = encoded.iter().map(Vec::len).sum::<usize>().max(1) as f64;
    let encode_ns = median_reps(5, || {
        let start = Instant::now();
        for state in &joined {
            black_box(state.to_bytes());
        }
        ns(start)
    });
    out.set("lattice.encode_ns_per_byte", encode_ns / bytes);
    let mut decode_allocs = 0.0;
    let decode_ns = median_reps(5, || {
        let ((), t, allocs) = measured(|| {
            for buf in &encoded {
                black_box(Timeline::from_bytes(buf).expect("own encoding decodes"));
            }
        });
        decode_allocs = allocs;
        t
    });
    out.set("lattice.decode_ns_per_byte", decode_ns / bytes);
    out.set("lattice.decode_allocs_per_call", decode_allocs / calls);
}

/// The stream's first [`MAX_OPS`] updates with their keys made dense, and
/// the pre-populated state of each of those keys.
fn dense_ops(inputs: &Inputs) -> (Vec<Timeline>, Vec<(usize, &TimelineOp)>) {
    let mut index: BTreeMap<Key, usize> = BTreeMap::new();
    let ops: Vec<(usize, &TimelineOp)> = inputs
        .rounds
        .iter()
        .flatten()
        .take(MAX_OPS)
        .map(|(_, key, op)| {
            let next = index.len();
            (*index.entry(*key).or_insert(next), op)
        })
        .collect();
    let mut states = vec![Timeline::default(); index.len()];
    for (key, i) in &index {
        if (*key as usize) < inputs.objects {
            for op in load::populate_ops(*key) {
                let _ = states[*i].apply(&op);
            }
        }
    }
    (states, ops)
}

fn crdt_section(inputs: &Inputs, out: &mut Outcome) {
    let (states, ops) = dense_ops(inputs);
    let mutate_ns = median_reps(5, || {
        let mut states = states.clone();
        let start = Instant::now();
        for (i, op) in &ops {
            black_box(states[*i].apply(op));
        }
        ns(start)
    });
    out.set("crdt.mutate_ns_per_op", mutate_ns / ops.len().max(1) as f64);
}

fn engine(id: u32) -> Box<dyn SyncEngine + Send> {
    let cfg = load::bp_rr();
    build_engine_send_with_model::<Timeline>(
        cfg.protocol,
        ReplicaId(id),
        &Params::new(2),
        cfg.model,
    )
}

/// Engine-level loops: one sender engine and one receiver engine per
/// object, for the first [`MAX_ENGINES`] objects the stream touches.
fn core_engine_section(inputs: &Inputs, out: &mut Outcome) {
    let (states, ops) = dense_ops(inputs);
    let n = states.len().min(MAX_ENGINES);
    let b = ReplicaId(1);
    let mut pool = BufferPool::new();
    let mut senders: Vec<_> = (0..n).map(|_| engine(0)).collect();
    let mut receivers: Vec<_> = (0..n).map(|_| engine(1)).collect();
    // Bring both sides to the pre-populated state, buffers empty.
    for (i, state) in states.iter().take(n).enumerate() {
        for (slot, value) in state.iter() {
            let op = TimelineOp::Apply {
                key: *slot,
                value: value.clone(),
            };
            senders[i].on_op(&OpBytes::encode(&op)).expect("own op");
        }
        for env in senders[i].on_sync_pooled(&[b], &mut pool) {
            receivers[i]
                .on_msg_pooled(env, &mut pool)
                .expect("own envelope");
        }
    }
    // One update per engine: the first the stream has for that object.
    let mut first: Vec<Option<OpBytes>> = vec![None; n];
    for (i, op) in &ops {
        if *i < n && first[*i].is_none() {
            first[*i] = Some(OpBytes::encode(*op));
        }
    }
    let first: Vec<OpBytes> = first.into_iter().flatten().collect();
    let per = first.len().max(1) as f64;

    let start = Instant::now();
    for (e, op) in senders.iter_mut().zip(&first) {
        e.on_op(op).expect("own op");
    }
    out.set("core.on_op_ns", ns(start) / per);

    let mut envelopes: Vec<(usize, WireEnvelope)> = Vec::with_capacity(n);
    let start = Instant::now();
    for (i, e) in senders.iter_mut().enumerate() {
        envelopes.extend(
            e.on_sync_pooled(&[b], &mut pool)
                .into_iter()
                .map(|env| (i, env)),
        );
    }
    out.set("core.on_sync_dirty_ns_per_object", ns(start) / per);
    let start = Instant::now();
    for e in senders.iter_mut() {
        black_box(e.on_sync_pooled(&[b], &mut pool));
    }
    out.set("core.on_sync_idle_ns_per_object", ns(start) / per);

    let batch = BatchEnvelope {
        entries: envelopes
            .iter()
            .map(|(i, env)| (*i as Key, env.clone()))
            .collect(),
    };
    let entries = batch.len().max(1) as f64;
    let mut frame = Vec::new();
    let encode_ns = median_reps(5, || {
        frame.clear();
        let start = Instant::now();
        batch.encode(&mut frame);
        ns(start)
    });
    out.set("core.batch_encode_ns_per_entry", encode_ns / entries);
    let frame = Bytes::from(frame);
    let decode_ns = median_reps(5, || {
        let start = Instant::now();
        black_box(BatchEnvelope::<Key>::decode_shared(&frame).expect("own frame decodes"));
        ns(start)
    });
    out.set("core.batch_decode_ns_per_entry", decode_ns / entries);

    let ((), msg_ns, msg_allocs) = measured(|| {
        for (i, env) in envelopes {
            receivers[i]
                .on_msg_pooled(env, &mut pool)
                .expect("own envelope");
        }
    });
    out.set("core.on_msg_ns_per_entry", msg_ns / entries);
    out.set("core.on_msg_allocs_per_entry", msg_allocs / entries);

    let hash_ns = median_reps(5, || {
        let start = Instant::now();
        for e in &senders {
            black_box(e.state_hash());
        }
        ns(start)
    });
    out.set("core.state_hash_ns_per_object", hash_ns / n.max(1) as f64);

    let held: Vec<&Timeline> = senders
        .iter()
        .filter_map(|e| e.state_any().downcast_ref::<Timeline>())
        .collect();
    let elems = held.iter().map(|s| s.count_elements()).sum::<u64>().max(1) as f64;
    let mut digest_allocs = 0.0;
    let digest_ns = median_reps(5, || {
        let ((), t, allocs) = measured(|| {
            for state in &held {
                black_box(Digest::of(*state));
            }
        });
        digest_allocs = allocs;
        t
    });
    out.set("core.digest_ns_per_elem", digest_ns / elems);
    out.set(
        "core.digest_allocs_per_object",
        digest_allocs / held.len().max(1) as f64,
    );
}

/// Keyspace Merkle tree loops, at the workload's key count.
fn core_merkle_section(inputs: &Inputs, out: &mut Outcome) {
    let keys = inputs.objects.max(inputs.keyspace);
    let dirty = divergent_keys(keys);
    // Any well-mixed function of (key, version) serves as a state hash.
    let hash = |key: Key, version: u64| {
        (u64::from(key) ^ version.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1
    };
    let mut tree: MerkleTree<Key> = MerkleTree::default();
    for key in 0..keys as Key {
        tree.touch(key);
    }
    tree.flush(|k| Some(hash(*k, 0)));
    let clean = tree.clone();
    let mut version = 0;
    let flush_ns = median_reps(5, || {
        version += 1;
        for key in strided_keys(keys, dirty, version) {
            tree.touch(key);
        }
        let start = Instant::now();
        tree.flush(|k| Some(hash(*k, version)));
        ns(start)
    });
    out.set(
        "core.merkle_flush_ns_per_dirty_key",
        flush_ns / dirty as f64,
    );
    let diff_ns = median_reps(5, || {
        let start = Instant::now();
        black_box(diff_keys(&tree, &clean));
        ns(start)
    });
    out.set("core.merkle_diff_us", diff_ns / 1e3);
}

/// A replica holding the workload's objects with nothing dirty.
fn base_replica(inputs: &Inputs) -> StoreReplica<Key, Timeline> {
    let peers = [ReplicaId(1), ReplicaId(2)];
    let mut replica = StoreReplica::with_params(ReplicaId(0), load::bp_rr(), Params::new(NODES));
    for key in 0..inputs.objects as Key {
        for op in load::populate_ops(key) {
            replica.update(key, &op);
        }
    }
    if inputs.objects == 0 {
        for (_, key, op) in inputs.rounds.iter().flatten() {
            replica.update(*key, op);
        }
    }
    drop(replica.sync_step(&peers));
    replica
}

fn store_section(inputs: &Inputs, out: &mut Outcome) {
    let peers = [ReplicaId(1), ReplicaId(2)];
    let mut base = base_replica(inputs);
    out.set(
        "store.mem_bytes_per_object",
        base.memory().total_bytes() as f64 / base.len().max(1) as f64,
    );
    out.set(
        "store.sync_step_idle_us",
        median_reps(5, || {
            let start = Instant::now();
            black_box(base.sync_step(&peers));
            ns(start)
        }) / 1e3,
    );
    let mut reader = UpdateStream::new(0x4ead, inputs.keyspace);
    let reads: Vec<Key> = (0..MAX_OPS).map(|_| reader.key()).collect();
    let get_ns = median_reps(5, || {
        let start = Instant::now();
        for key in &reads {
            black_box(base.get(*key));
        }
        ns(start)
    });
    out.set("store.get_ns", get_ns / reads.len() as f64);

    let ops: Vec<&(usize, Key, TimelineOp)> =
        inputs.rounds.iter().flatten().take(MAX_OPS).collect();
    let start = Instant::now();
    for (_, key, op) in &ops {
        base.update(*key, op);
    }
    out.set("store.update_ns", ns(start) / ops.len().max(1) as f64);
    drop(base);

    // A replica in which every object is dirty, and a peer to absorb it.
    let fresh = |id| {
        StoreReplica::<Key, Timeline>::with_params(ReplicaId(id), load::bp_rr(), Params::new(2))
    };
    let (mut sender, mut receiver) = (fresh(0), fresh(1));
    for (_, key, op) in &ops {
        sender.update(*key, op);
    }
    let dirty = sender.len().max(1) as f64;
    let start = Instant::now();
    let batches = sender.sync_step(&[ReplicaId(1)]);
    out.set("store.sync_step_ns_per_dirty_object", ns(start) / dirty);
    let entries = batches.iter().map(|(_, b)| b.len()).sum::<usize>().max(1) as f64;
    let start = Instant::now();
    for (_, batch) in batches {
        receiver.absorb(batch).expect("own batch");
    }
    out.set("store.absorb_ns_per_entry", ns(start) / entries);

    // Pairwise repair at 1 % divergence, both ways of finding it.
    let mut pair: Cluster<Key, Timeline> = match inputs.objects {
        0 => {
            let mut pair = Cluster::full_mesh(2, load::bp_rr());
            for (_, key, op) in inputs.rounds.iter().flatten() {
                pair.update(0, *key, op);
            }
            pair.sync_round();
            pair
        }
        objects => mem::populated_pair(objects),
    };
    let keys = inputs.objects.max(inputs.keyspace);
    let mut seq = u64::MAX / 2;
    let mut diverge = |pair: &mut Cluster<Key, Timeline>, base: u64| {
        pair.partition(&[0]);
        for key in strided_keys(keys, divergent_keys(keys), base) {
            seq += 1;
            pair.update(0, key, &load::timeline_op(base, seq));
        }
        pair.sync_round();
        pair.heal();
    };
    let mut base = 0;
    let merkle_ns = median_reps(3, || {
        base += 1;
        diverge(&mut pair, base);
        let start = Instant::now();
        black_box(pair.merkle_repair(0, 1));
        ns(start)
    });
    out.set("store.merkle_repair_ms", merkle_ns / 1e6);
    let digest_ns = median_reps(3, || {
        base += 1;
        diverge(&mut pair, base);
        let start = Instant::now();
        black_box(pair.digest_repair(0, 1));
        ns(start)
    });
    out.set("store.digest_repair_ms", digest_ns / 1e6);
}

/// Median latency of `n` requests, each sent after a seeded pause of up
/// to a millisecond. Back-to-back requests race the reactor's sweep: a
/// fast client finds it still awake (~10 µs), a slower one finds it
/// asleep (a full tick), and which one happens flips between runs. After
/// a pause the reactor is always idle and the phase of its tick uniform.
fn median_us(n: usize, mut f: impl FnMut() -> io::Result<()>) -> io::Result<f64> {
    let mut us = Vec::with_capacity(n);
    let mut rng = StdRng::seed_from_u64(n as u64);
    for _ in 0..n {
        std::thread::sleep(Duration::from_micros(rng.gen_range(0..1_000)));
        let start = Instant::now();
        f()?;
        us.push(ns(start) / 1e3);
    }
    Ok(median_of(&us))
}

/// One quiescent node, no peers, no timer: request round trips here are
/// the floor the reactor's idle tick sets.
fn net_idle_section(out: &mut Outcome) -> io::Result<()> {
    let cfg = tcp::node_config(None);
    let node: NodeHandle<Key, Timeline> = NodeHandle::spawn(ReplicaId(0), cfg)?;
    for key in 0..64 {
        for op in load::populate_ops(key) {
            node.update(key, &op);
        }
    }
    let mut client = NetClient::<Key, Timeline>::connect(node.addr(), cfg.max_frame_bytes)?;
    let err = |e| io::Error::other(format!("idle node: {e}"));
    let mut stream = UpdateStream::new(1, 64);
    out.set(
        "net.update_rtt_idle_us",
        median_us(IDLE_REQUESTS, || {
            let (key, op) = stream.update();
            client.update(key, &op).map_err(err)
        })?,
    );
    let mut stream = UpdateStream::new(2, 64);
    out.set(
        "net.get_rtt_idle_us",
        median_us(IDLE_REQUESTS, || {
            client.get(stream.key()).map(drop).map_err(err)
        })?,
    );
    out.set(
        "obs.stats_pull_rtt_us",
        median_us(IDLE_REQUESTS / 5, || {
            client.stats(16).map(drop).map_err(err)
        })?,
    );
    out.set(
        "obs.exposition_us",
        median_reps(IDLE_REQUESTS / 5, || {
            let start = Instant::now();
            black_box(node.obs().registry.exposition());
            ns(start)
        }) / 1e3,
    );
    drop(client);
    node.shutdown_untyped();

    let counter = crdt_obs::Registry::new().counter("bench.inc", "timed increments");
    let start = Instant::now();
    for _ in 0..1_000_000 {
        counter.inc();
    }
    out.set("obs.counter_inc_ns", ns(start) / 1e6);
    black_box(counter.get());
    Ok(())
}

fn framing_section(frames: &[Bytes], out: &mut Outcome) {
    let max = framing::DEFAULT_MAX_FRAME_BYTES;
    let kb = frames.iter().map(|f| f.len()).sum::<usize>().max(1) as f64 / 1024.0;
    let mut wire = Vec::new();
    let write_ns = median_reps(5, || {
        wire.clear();
        let start = Instant::now();
        for frame in frames {
            framing::write_frame(&mut wire, frame, max).expect("in-memory write");
        }
        ns(start)
    });
    out.set("net.frame_write_ns_per_kb", write_ns / kb);
    let mut pool = BufferPool::new();
    let read_ns = median_reps(5, || {
        let mut cursor: &[u8] = &wire;
        let start = Instant::now();
        for _ in frames {
            black_box(framing::read_frame(&mut cursor, max, &mut pool).expect("in-memory read"));
        }
        ns(start)
    });
    out.set("net.frame_read_ns_per_kb", read_ns / kb);
}

/// CPU a quiescent free-running cluster burns per second of wall time.
fn idle_cpu_section(inputs: &Inputs, measure: Duration, out: &mut Outcome) -> io::Result<()> {
    let cluster =
        tcp::spawn_populated(inputs.objects.max(1), tcp::node_config(Some(inputs.sched)))?;
    if !tcp::await_populated(&cluster, Duration::from_secs(30)) {
        return Err(io::Error::other(
            "idle cluster: pre-population did not reach every node",
        ));
    }
    // Let the forwarded copies (1 → 2, 2 → 1) drain as well.
    std::thread::sleep(inputs.sched * 4);
    let (cpu, start) = (sys::cpu_seconds(), Instant::now());
    std::thread::sleep(measure);
    if let (Some(a), Some(b)) = (cpu, sys::cpu_seconds()) {
        out.set(
            "net.idle_cpu_ms_per_s",
            (b - a) * 1e3 / start.elapsed().as_secs_f64(),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------

fn span_share(times: &BTreeMap<&'static str, u64>, total: f64, name: &str) -> f64 {
    times.get(name).copied().unwrap_or(0) as f64 / total
}

/// Run the traced pipeline on `inputs`. It is fixed work, so that its
/// counts repeat; `window` only scales the idle-CPU measurement. `spans_out` receives the spans of the last traced bare replay
/// and of the TCP replay.
pub fn run(inputs: &Inputs, window: Duration, spans_out: &mut Vec<Span>) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    out.set("workloads.trace_gen_ms", inputs.gen_ms);
    out.attempted = inputs.rounds.iter().map(Vec::len).sum::<usize>() as u64;

    // What spans cost: one replay with spans on every other pair of
    // rounds.
    let (_, round_ns) = bare_replay(
        inputs,
        &inputs.neighbors,
        Spans::AlternatePairs,
        &mut Tracer::new(false),
        None,
    )?;
    // The first rounds after population run cold and slow whatever is
    // traced; they are left out.
    let mean_of = |traced: bool| {
        let v: Vec<f64> = (WARMUP_ROUNDS..round_ns.len())
            .filter(|r| traced_pair(*r) == traced)
            .map(|r| round_ns[r])
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    out.set("trace.overhead_share", 1.0 - mean_of(false) / mean_of(true));

    // The traced replay proper.
    let mut tracer = Tracer::new(false);
    bare_replay(inputs, &inputs.neighbors, Spans::All, &mut tracer, None)?;
    let bare_spans = tracer.spans().to_vec();
    let times = span::self_times(&bare_spans);
    let rounds_ns: f64 = bare_spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64)
        .sum();
    out.set(
        "trace.round_us",
        rounds_ns / 1e3 / inputs.rounds.len().max(1) as f64,
    );
    out.set(
        "trace.residual_share",
        span_share(&times, rounds_ns, "round"),
    );
    out.set(
        "trace.share.store_update",
        span_share(&times, rounds_ns, "store.update"),
    );
    out.set(
        "trace.share.store_sync_step",
        span_share(&times, rounds_ns, "store.sync_step"),
    );
    out.set(
        "trace.share.core_batch_encode",
        span_share(&times, rounds_ns, "core.batch_encode"),
    );
    out.set(
        "trace.share.core_batch_decode",
        span_share(&times, rounds_ns, "core.batch_decode"),
    );
    out.set(
        "trace.share.store_absorb",
        span_share(&times, rounds_ns, "store.absorb"),
    );

    // Once more with the receive boundary captured: that is harness
    // work, kept out of the timings above.
    let mut capture = Capture::default();
    let (replicas, _) = bare_replay(
        inputs,
        &inputs.neighbors,
        Spans::Off,
        &mut Tracer::new(false),
        Some(&mut capture),
    )?;
    out.set(
        "core.envelopes_per_frame",
        capture.entries as f64 / capture.batches.max(1) as f64,
    );
    out.set(
        "core.useful_elems_share",
        capture.useful_elems as f64 / capture.received_elems.max(1) as f64,
    );

    // Oracle for the bare replay: every replica equals the model.
    let updates: Vec<(Key, TimelineOp)> = inputs
        .rounds
        .iter()
        .flatten()
        .map(|(_, k, op)| (*k, op.clone()))
        .collect();
    let model = load::model(inputs.objects, &updates);
    for (i, replica) in replicas.iter().enumerate() {
        let off = load::mismatches(&model, replica.len(), |k, want| {
            replica.get(*k) == Some(want)
        });
        out.check(off == 0, || {
            format!("bare replay: replica {i} differs from the model on {off} objects")
        });
    }
    drop(replicas);

    // Per-layer loops on what the replay produced.
    lattice_section(&capture.pairs, &mut out);
    crdt_section(inputs, &mut out);
    core_engine_section(inputs, &mut out);
    core_merkle_section(inputs, &mut out);
    store_section(inputs, &mut out);
    framing_section(&capture.frames, &mut out);
    net_idle_section(&mut out)?;

    // The same rounds over sockets, stepped from here.
    let (cluster, tcp_spans) = tcp_replay(inputs, &mut out)?;
    lockstep_rounds(&cluster, 2)?;
    for i in 0..NODES {
        let node = cluster.node(i);
        let held = node.obs().registry.gauge("store.objects", "").get() as usize;
        let off = load::mismatches(&model, held, |k, want| node.get(*k).as_ref() == Some(want));
        out.check(off == 0, || {
            format!("tcp replay: node {i} differs from the model on {off} objects")
        });
    }
    drop(cluster);

    // `sync_now` = store sync step + batch encode + the net layer's own
    // work (queueing, framing, the socket write). The first two are
    // known from a bare replay on the same three-node mesh.
    let full_mesh = load::full_mesh(NODES);
    let split_spans = if inputs.neighbors == full_mesh {
        bare_spans.clone()
    } else {
        let mut t = Tracer::new(false);
        bare_replay(inputs, &full_mesh, Spans::All, &mut t, None)?;
        t.spans().to_vec()
    };
    let steps = (inputs.rounds.len() * NODES).max(1) as f64;
    let total_us = |spans: &[Span], name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .sum::<f64>()
    };
    let store_us = total_us(&split_spans, "store.sync_step") / steps;
    let codec_us = total_us(&split_spans, "core.batch_encode") / steps;
    let sync_now_us = out
        .metrics
        .get("net.sync_now_us")
        .copied()
        .unwrap_or(f64::NAN);
    out.set("net.sync_now_store_us", store_us);
    out.set("net.sync_now_codec_us", codec_us);
    out.set("net.sync_now_self_us", sync_now_us - store_us - codec_us);

    let idle = (window / 10).clamp(Duration::from_millis(300), Duration::from_secs(3));
    idle_cpu_section(inputs, idle, &mut out)?;
    out.set(
        "calib.kernel_us",
        Calibrator::new().slowdown() * crate::calib::REFERENCE_US,
    );

    spans_out.extend(bare_spans);
    spans_out.extend(tcp_spans);
    Ok(out)
}
