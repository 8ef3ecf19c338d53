//! The two loopback-TCP workloads, untraced: three free-running nodes,
//! one load-generator thread and one visibility-prober thread.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crdt_net::{LoopbackCluster, NetClient, NodeConfig, NodeHandle};
use crdt_types::Crdt;
use crdt_workloads::Timeline;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calib::BackgroundCalibrator;
use crate::load::{self, Key, TimelineOp, UpdateStream, PROBE_KEY};
use crate::openloop::OpenLoop;
use crate::replay;
use crate::report::Outcome;
use crate::stats::{chunked_percentile, median_of, sample_note, Samples};
use crate::sys;

/// Nodes in a TCP cluster: the smallest mesh with a cycle, which is what
/// gives RR redundant state to remove.
pub const NODES: usize = 3;

/// Times a cluster of `objects` objects is set up per run; `setup_s` is
/// the median. A millisecond set-up needs many repeats for a steady
/// median. The **first** cluster built serves the window and the rest are
/// built and dropped after it: how the allocator lays out a cluster
/// depends on what was built and freed before it, that layout shows in
/// every later timing (±20 % on a sync step), and only a fresh heap is
/// the same heap every run. `peak_rss_mb` is read before the repeats for
/// the same reason.
pub fn setup_reps(objects: usize) -> usize {
    if objects >= 1_000 {
        5
    } else {
        51
    }
}

/// A probe not visible after this long is a failed operation.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// The prober waits a seeded `0..PROBE_JITTER_US` before each write so
/// its writes do not lock onto the phase of the sync timer.
const PROBE_JITTER_US: u64 = 10_000;

/// The closed loop's think time: a seeded `0..THINK_US` before each
/// request, two reactor ticks wide. Sent back to back, a client's
/// requests lock onto the phase of the reactor's sweep-and-sleep cycle:
/// either each finds the sweep still running (~10 µs, and a reactor that
/// never sleeps) or each waits out a full tick, and which of the two a
/// run settles into differs from run to run, as does what it costs in
/// CPU. A client that thinks meets the reactor at every phase.
const THINK_US: u64 = 400;

/// Pause between two polls of the probe object (the kernel rounds it up
/// to ~100 µs, which bounds the resolution of a visibility sample).
const PROBE_POLL_PAUSE: Duration = Duration::from_micros(50);

/// Idle time before anything is set up. For half a minute and more after
/// a busy multi-threaded process (the previous run, a build) every timer
/// wake-up on this kind of virtual machine costs 1.7 times the CPU it
/// costs otherwise, for as long as the machine stays busy; two seconds of
/// idleness end that (one does not), wherever they are spent.
const SETTLE: Duration = Duration::from_secs(3);

/// Share of `--seconds` the load window takes; the repair appendix gets
/// the rest.
const LOAD_SHARE: f64 = 0.7;

/// Partition-and-repair cycles of the appendix: more where a cycle is a
/// millisecond. The count is fixed (so is what the cycles write) and the
/// cycles are spread evenly over the appendix's share of the run, not
/// run back to back: a neighbour's burst of a second then hits a tenth of
/// them, not all, and the median does not see it.
fn repair_cycle_count(objects: usize) -> usize {
    if objects >= 1_000 {
        121
    } else {
        301
    }
}

/// Samples to a chunk for `visibility_p99_us`
/// ([`chunked_percentile`]): enough for each chunk's own p99.
const TAIL_CHUNK: usize = 1_000;

/// Updates replayed per node per round for `classic_tx_ratio`, and the
/// rounds replayed.
const REPLAY_PER_NODE: usize = 8;
const REPLAY_ROUNDS: usize = 100;

/// Three real nodes on loopback.
pub type Cluster = LoopbackCluster<Key, Timeline>;
type Client = NetClient<Key, Timeline>;

/// Shape of one TCP workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Pre-populated objects.
    pub objects: usize,
    /// Anti-entropy interval of every node.
    pub sched: Duration,
    /// `Some(rate)`: open loop at `rate` operations per second with a
    /// fair update/get coin. `None`: closed loop alternating
    /// update/get.
    pub open_rate: Option<u64>,
    /// Is `repair_ms_p50` read against the calibration kernel? Yes where
    /// a repair chases pointers through cold memory as the kernel does
    /// (30 K objects: flushing and cloning the Merkle tree, digests of
    /// 300 objects; raw it moves 0.2–0.3 between runs, calibrated 0.1).
    /// No where it waits on reactor ticks (64 objects: two request round
    /// trips on a fresh connection and no computation to speak of; a
    /// tick does not stretch with memory speed, and calibrating takes
    /// the spread from 0.05 to 0.24).
    pub calibrate_repair: bool,
    /// Is `cpu_ms_per_kop` read against the calibration kernel? No where
    /// the CPU goes into three nodes scanning 30 K objects in order,
    /// which the prefetcher serves at a speed that barely moves when the
    /// kernel's random walk does (raw spread 0.03–0.08, calibrated up to
    /// 0.13). Yes where it goes into 15 000 timer wake-ups a second,
    /// whose price under a hypervisor moves with the host by half and
    /// with it, about half as much, the kernel (raw 0.18–0.24,
    /// calibrated 0.06–0.16).
    pub calibrate_cpu: bool,
}

/// Node configuration shared by the traced and untraced runs: BP+RR, one
/// reactor worker per node so three nodes and two generator threads fit
/// two cores.
pub fn node_config(sched: Option<Duration>) -> NodeConfig {
    let cfg = NodeConfig::new(load::bp_rr(), NODES).with_workers(1);
    match sched {
        Some(interval) => cfg.with_scheduler(interval),
        None => cfg,
    }
}

/// Read one registry counter of a node; `None` if the crate no longer
/// registers that name (a renamed counter must not read as zero).
pub fn counter(node: &NodeHandle<Key, Timeline>, name: &'static str) -> Option<u64> {
    let reg = &node.obs().registry;
    reg.names()
        .contains(&name)
        .then(|| reg.counter(name, "").get())
}

fn counter_sum(cluster: &Cluster, name: &'static str) -> Option<u64> {
    (0..NODES).map(|i| counter(cluster.node(i), name)).sum()
}

fn objects_held(node: &NodeHandle<Key, Timeline>) -> u64 {
    node.obs().registry.gauge("store.objects", "").get()
}

/// Spawn the cluster and write every object, then the probe object, at
/// node 0.
pub fn spawn_populated(objects: usize, cfg: NodeConfig) -> io::Result<Cluster> {
    let cluster = Cluster::full_mesh(NODES, cfg)?;
    for key in 0..objects as Key {
        for op in load::populate_ops(key) {
            cluster.node(0).update(key, &op);
        }
    }
    cluster.node(0).update(PROBE_KEY, &load::probe_op(0));
    Ok(cluster)
}

/// Wait until nodes 1 and 2 show the probe object. It is the last thing
/// node 0 wrote, batches leave node 0 in write order and links are FIFO,
/// so a node that shows it has absorbed every earlier write too. (The
/// by-value check against the model after the window covers these
/// objects as well.)
pub fn await_populated(cluster: &Cluster, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while (1..NODES).any(|i| cluster.node(i).get(PROBE_KEY).is_none()) {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    true
}

#[derive(Debug, Default)]
struct GenLog {
    update_us: Vec<f64>,
    get_us: Vec<f64>,
    updates: Vec<(Key, TimelineOp)>,
    attempted: u64,
    failed: u64,
    late_max_us: f64,
}

fn connect_all(addrs: &[SocketAddr], max_frame: usize) -> io::Result<Vec<Client>> {
    addrs
        .iter()
        .map(|a| Client::connect(*a, max_frame))
        .collect()
}

/// The load generator: one thread, one connection per node, operations
/// round-robin over the nodes.
fn generate(
    spec: Spec,
    seed: u64,
    window: Duration,
    mut clients: Vec<Client>,
    completed: &AtomicU64,
) -> GenLog {
    let mut log = GenLog::default();
    let mut stream = UpdateStream::new(seed, spec.objects);
    let mut open = spec.open_rate.map(|rate| OpenLoop::start(rate, seed));
    let mut think = StdRng::seed_from_u64(seed ^ 0x7417_4b1e);
    let start = Instant::now();
    loop {
        // Open loop: timed from the due instant. Closed loop: from the
        // send, which follows the previous completion and the think time.
        let from = match open.as_mut() {
            Some(l) => match l.next(window) {
                Some(due) => due,
                None => break,
            },
            None if start.elapsed() >= window => break,
            None => {
                std::thread::sleep(Duration::from_micros(think.gen_range(0..THINK_US)));
                Instant::now()
            }
        };
        let client = &mut clients[log.attempted as usize % NODES];
        let is_update = match spec.open_rate {
            Some(_) => stream.coin(),
            None => log.attempted % 2 == 0,
        };
        log.attempted += 1;
        if is_update {
            let (key, op) = stream.update();
            match client.update(key, &op) {
                Ok(()) => {
                    log.update_us.push(from.elapsed().as_secs_f64() * 1e6);
                    log.updates.push((key, op));
                }
                Err(_) => log.failed += 1,
            }
        } else {
            match client.get(stream.key()) {
                Ok(Some(_)) => log.get_us.push(from.elapsed().as_secs_f64() * 1e6),
                Ok(None) | Err(_) => log.failed += 1,
            }
        }
        // Relaxed: a progress count for the once-a-second sampler.
        completed.store(
            (log.update_us.len() + log.get_us.len()) as u64,
            Ordering::Relaxed,
        );
    }
    if let Some(l) = open {
        log.late_max_us = l.schedule().late_max_ns() as f64 / 1e3;
    }
    log
}

#[derive(Debug, Default)]
struct ProbeLog {
    visible_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Reads that showed a value other than the one written.
    wrong_value: u64,
    last_seq: u64,
}

/// The visibility prober: write the next sequence number into the probe
/// object at node 0, poll node 1 until it shows.
fn probe(seed: u64, window: Duration, mut at0: Client, mut at1: Client) -> ProbeLog {
    let mut log = ProbeLog::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0f9e_0be5);
    let start = Instant::now();
    while start.elapsed() < window {
        std::thread::sleep(Duration::from_micros(rng.gen_range(0..PROBE_JITTER_US)));
        let seq = log.last_seq + 1;
        log.attempted += 1;
        let written = Instant::now();
        if at0.update(PROBE_KEY, &load::probe_op(seq)).is_err() {
            log.failed += 1;
            continue;
        }
        log.last_seq = seq;
        loop {
            let seen = at1
                .get(PROBE_KEY)
                .ok()
                .and_then(|t| load::probe_seq(t.as_ref()));
            if seen >= Some(seq) {
                log.visible_us.push(written.elapsed().as_secs_f64() * 1e6);
                // The prober is the only writer, one write at a time.
                log.wrong_value += u64::from(seen != Some(seq));
                break;
            }
            if written.elapsed() > PROBE_TIMEOUT {
                log.failed += 1;
                break;
            }
            // Unpaced, the poll races the reactor's sweep: when it wins,
            // it reads 100 000 times a second and the prober, not the
            // system, sets `cpu_ms_per_kop`.
            std::thread::sleep(PROBE_POLL_PAUSE);
        }
    }
    log
}

/// Wait for the free-running cluster to bring every node to `model`, by
/// value. Returns the mismatching object count per node at the end.
fn settle(
    cluster: &Cluster,
    model: &std::collections::BTreeMap<Key, Timeline>,
    timeout: Duration,
) -> Vec<usize> {
    let deadline = Instant::now() + timeout;
    loop {
        let off: Vec<usize> = (0..NODES)
            .map(|i| {
                let node = cluster.node(i);
                load::mismatches(model, objects_held(node) as usize, |k, want| {
                    node.get(*k).as_ref() == Some(want)
                })
            })
            .collect();
        if off.iter().all(|n| *n == 0) || Instant::now() >= deadline {
            return off;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Keys diverged per repair cycle: 1 % of the keyspace.
pub fn divergent_keys(objects: usize) -> usize {
    (objects / 100).max(4)
}

/// `n` distinct keys of `0..objects`, evenly strided from `base`.
pub fn strided_keys(objects: usize, n: usize, base: u64) -> impl Iterator<Item = Key> {
    let stride = (objects / n).max(1);
    (0..n).map(move |j| ((base as usize + j * stride) % objects) as Key)
}

/// What a series of partition / diverge / heal / repair cycles produced.
#[derive(Debug, Default)]
pub struct RepairLog {
    /// Time of each repair, read against the machine's speed then
    /// (unless the workload's repairs are not calibrated).
    pub ms: Vec<f64>,
    /// The same as the clock read it.
    pub raw_ms: Vec<f64>,
    /// (payload + metadata) bytes of each repair over its diverged keys.
    pub bytes_per_key: Vec<f64>,
    /// Every divergent update made, for the model.
    pub updates: Vec<(Key, TimelineOp)>,
    /// Diverged keys still unequal after their repair.
    pub unrepaired: usize,
}

/// Partition node 0, diverge 1 % of the keys there, let its sync timer
/// drop the deltas on the severed links, heal, and time one pairwise
/// repair with node 1, started at a seeded phase of the sync timers; the
/// cycles start `budget / cycles` apart (back to back once they run late). Where [`Spec::calibrate_repair`] says so, a
/// repair is read against the machine's speed at that moment.
fn repair_cycles(
    cluster: &mut Cluster,
    spec: Spec,
    seed: u64,
    seq0: u64,
    budget: Duration,
    calibrator: &BackgroundCalibrator,
) -> RepairLog {
    let per_cycle = divergent_keys(spec.objects);
    let cycles = repair_cycle_count(spec.objects);
    let mut phase = StdRng::seed_from_u64(seed ^ 0x004e_9a14);
    let mut log = RepairLog::default();
    let mut seq = seq0;
    let begin = Instant::now();
    for cycle in 0..cycles {
        let due = begin + budget.mul_f64(cycle as f64 / cycles as f64);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        cluster.partition(&[0]);
        let keys: Vec<Key> = strided_keys(spec.objects, per_cycle, cycle as u64).collect();
        for key in &keys {
            seq += 1;
            let op = load::timeline_op(cycle as u64, seq);
            cluster.node(0).update(*key, &op);
            log.updates.push((*key, op));
        }
        // Two timer ticks: the one in progress may predate the last
        // update; the next one empties the δ-buffers into severed links.
        let ticks = counter(cluster.node(0), "net.sync.rounds").unwrap_or(0);
        let deadline = Instant::now() + Duration::from_secs(2);
        while counter(cluster.node(0), "net.sync.rounds").unwrap_or(0) < ticks + 2
            && Instant::now() < deadline
        {
            std::thread::sleep(spec.sched / 4);
        }
        cluster.heal();
        // The wait above leaves every repair of a run at the same phase
        // of node 0's sync timer, and so of node 1's, whose step holds
        // the lock the repair needs for a third of each interval; how the
        // two timers stand to each other is settled when the nodes are
        // spawned and differs from run to run. A seeded pause of up to
        // one interval lets a run's repairs meet every phase.
        let pause = phase.gen_range(0..spec.sched.as_micros() as u64);
        std::thread::sleep(Duration::from_micros(pause));
        let slowdown = match spec.calibrate_repair {
            true => calibrator.slowdown_now(),
            false => 1.0,
        };
        let start = Instant::now();
        let stats = cluster.repair(0, 1);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        log.ms.push(ms / slowdown);
        log.raw_ms.push(ms);
        log.bytes_per_key
            .push((stats.payload_bytes + stats.metadata_bytes) as f64 / per_cycle as f64);
        log.unrepaired += keys
            .iter()
            .filter(|k| cluster.node(1).get(**k) != cluster.node(0).get(**k))
            .count();
    }
    log
}

/// What the sampler reads once a second of the load window: the CPU time
/// of every thread, the operations the generator has completed, the
/// socket ledger with the engines' op count, and where the calibrator
/// stands. Registry and `/proc` reads only, no keyspace walk.
struct Tick {
    at: Instant,
    cpu: Option<Vec<(u64, u64)>>,
    completed: u64,
    ledger: Option<(u64, u64)>,
    calib: usize,
}

/// Run one TCP workload: load for [`LOAD_SHARE`] of `window`, then the
/// repair appendix for the rest.
pub fn run(spec: Spec, seed: u64, window: Duration) -> io::Result<Outcome> {
    std::thread::sleep(SETTLE);
    let load_window = window.mul_f64(LOAD_SHARE);
    let mut out = Outcome::default();
    let calibrator = BackgroundCalibrator::start();
    let cfg = node_config(Some(spec.sched));
    let populated = spec.objects as u64 * load::SLOTS + 1;

    let mut setups = Vec::new();
    let mut set_up = |out: &mut Outcome| -> io::Result<Cluster> {
        let start = Instant::now();
        let cluster = spawn_populated(spec.objects, cfg)?;
        let ok = await_populated(&cluster, Duration::from_secs(30));
        setups.push(start.elapsed().as_secs_f64());
        out.check(ok, || "pre-population did not reach every node".into());
        Ok(cluster)
    };
    let mut cluster = set_up(&mut out)?;

    let addrs: Vec<SocketAddr> = (0..NODES).map(|i| cluster.addr(i)).collect();
    let gen_clients = connect_all(&addrs, cfg.max_frame_bytes)?;
    let mut probe_clients = connect_all(&addrs[..2], cfg.max_frame_bytes)?;
    let at1 = probe_clients.pop().expect("two clients");
    let at0 = probe_clients.pop().expect("two clients");

    let done = AtomicU64::new(0);
    let tick = || Tick {
        at: Instant::now(),
        cpu: sys::thread_cpu_ns(),
        completed: done.load(Ordering::Relaxed),
        ledger: counter_sum(&cluster, "net.bytes.sent").zip(counter_sum(&cluster, "engine.ops")),
        calib: calibrator.position(),
    };
    let (gen, ticks, probes) = std::thread::scope(|s| {
        let prober = s.spawn(|| probe(seed, load_window, at0, at1));
        let generator = s.spawn(|| generate(spec, seed, load_window, gen_clients, &done));
        // One-second slices; shorter ones only where the window would
        // not hold eight (smoke runs).
        let slice = Duration::from_secs(1).min(load_window / 8);
        let mut ticks = vec![tick()];
        let mut last = Instant::now();
        while !generator.is_finished() {
            std::thread::sleep(Duration::from_millis(20).min(slice / 4));
            if last.elapsed() >= slice {
                let t = tick();
                // A thread that has exited takes its CPU time out of the
                // per-thread reading: no tick once the generator is done.
                if !generator.is_finished() {
                    ticks.push(t);
                }
                last = Instant::now();
            }
        }
        (
            generator.join().expect("generator thread panicked"),
            ticks,
            prober.join().expect("prober thread panicked"),
        )
    });

    out.attempted = gen.attempted + probes.attempted;
    out.failed = gen.failed + probes.failed;
    // Everything "per second" below is the median over the one-second
    // slices between two ticks: a neighbour's burst of a few seconds
    // moves the slices it covers, not the result.
    let slices = || ticks.windows(2).filter(|p| p[1].completed > p[0].completed);
    let ops_per_second: Vec<f64> = slices()
        .map(|p| (p[1].completed - p[0].completed) as f64 / (p[1].at - p[0].at).as_secs_f64())
        .collect();
    let updates = gen.updates.len() as u64 + probes.last_seq;

    // The tail is that of the typical stretch of the window, not of its
    // worst moment: a neighbour's burst lands in one chunk.
    let tail = chunked_percentile(&probes.visible_us, TAIL_CHUNK, 99.0);
    let visible = Samples::new(probes.visible_us);
    let n_note = |s: &Samples| sample_note(s.len());
    out.set_noted("visibility_p50_us", visible.median(), n_note(&visible));
    out.set_noted(
        "visibility_p99_us",
        tail,
        format!(
            "n={}, median of the p99 of {} chunks",
            visible.len(),
            (visible.len() / TAIL_CHUNK).max(1)
        ),
    );
    let update_rtt = Samples::new(gen.update_us);
    let get_rtt = Samples::new(gen.get_us);
    out.set_noted(
        "update_rtt_p50_us",
        update_rtt.median(),
        n_note(&update_rtt),
    );
    out.set_noted(
        "update_rtt_p99_us",
        update_rtt.percentile(99.0),
        n_note(&update_rtt),
    );
    out.set_noted("get_rtt_p50_us", get_rtt.median(), n_note(&get_rtt));
    out.set_noted(
        "update_ops_per_s",
        median_of(&ops_per_second),
        match spec.open_rate {
            Some(rate) => format!(
                "open loop at {rate}/s, generator late by at most {:.0} us; {} slices",
                gen.late_max_us,
                ops_per_second.len()
            ),
            None => format!(
                "closed loop, 1 client thinking 0-{THINK_US} us; {} slices",
                ops_per_second.len()
            ),
        },
    );
    out.set("gen.late_max_us", gen.late_max_us);
    // Bytes per update: one burst (a stalled link flushing, a re-sent
    // batch) does not set the number.
    match ticks.iter().map(|t| t.ledger).collect::<Option<Vec<_>>>() {
        Some(ledger) => {
            let per_second: Vec<f64> = ledger
                .windows(2)
                .filter(|p| p[1].1 > p[0].1)
                .map(|p| (p[1].0 - p[0].0) as f64 / (p[1].1 - p[0].1) as f64)
                .collect();
            out.set_noted(
                "wire_bytes_per_update",
                median_of(&per_second),
                format!("median of {} one-second slices", per_second.len()),
            );
        }
        None => out
            .violations
            .push("net.bytes.sent or engine.ops is no longer registered".into()),
    }
    // CPU per operation, each second read against the machine's speed
    // during it where [`Spec::calibrate_cpu`] says so.
    let (cpu_per_second, raw_cpu_per_second): (Vec<f64>, Vec<f64>) = slices()
        .filter_map(|p| {
            let kops = (p[1].completed - p[0].completed) as f64 / 1e3;
            let slowdown = match spec.calibrate_cpu {
                true => calibrator.slowdown_over(p[0].calib..p[1].calib),
                false => 1.0,
            };
            let cpu_s = sys::cpu_seconds_between(p[0].cpu.as_ref()?, p[1].cpu.as_ref()?);
            let raw = cpu_s * 1e3 / kops;
            Some((raw / slowdown, raw))
        })
        .unzip();
    out.set("cpu_ms_per_kop_raw", median_of(&raw_cpu_per_second));
    out.set_noted(
        "cpu_ms_per_kop",
        median_of(&cpu_per_second),
        format!("median of {} one-second slices", cpu_per_second.len()),
    );

    // Oracle: every node equals the CRDT-level model of what was
    // written, the probe object included.
    out.check(probes.wrong_value == 0, || {
        format!(
            "{} probes read a value that was never written",
            probes.wrong_value
        )
    });
    let mut model = load::model(spec.objects, &gen.updates);
    let probe_object = model.entry(PROBE_KEY).or_default();
    for seq in [0, probes.last_seq] {
        let _ = probe_object.apply(&load::probe_op(seq));
    }
    let off = settle(&cluster, &model, Duration::from_secs(5));
    out.check(off.iter().all(|n| *n == 0), || {
        format!("objects differing from the model per node after the window: {off:?}")
    });
    for i in 0..NODES {
        let p = cluster.node(i).probe_local();
        out.check(
            p.bad_frames == 0 && p.queue_dropped_frames == 0 && p.dropped_frames == 0,
            || {
                format!(
                    "node {i}: {} bad, {} queue-dropped, {} dropped frames",
                    p.bad_frames, p.queue_dropped_frames, p.dropped_frames
                )
            },
        );
    }
    let engine_ops = counter_sum(&cluster, "engine.ops");
    out.check(engine_ops == Some(populated + updates), || {
        format!(
            "engines applied {engine_ops:?} ops, generator acknowledged {}",
            populated + updates
        )
    });

    // Repair appendix.
    let repairs = repair_cycles(
        &mut cluster,
        spec,
        seed,
        populated + gen.attempted,
        window - load_window,
        &calibrator,
    );
    out.check(repairs.unrepaired == 0, || {
        format!(
            "{} diverged keys still differ after repair",
            repairs.unrepaired
        )
    });
    out.set("repair_bytes_per_key", median_of(&repairs.bytes_per_key));
    for (key, op) in &repairs.updates {
        let _ = model.entry(*key).or_default().apply(op);
    }
    let off = settle(&cluster, &model, Duration::from_secs(5));
    out.check(off.iter().all(|n| *n == 0), || {
        format!("objects differing from the model per node after repair: {off:?}")
    });
    for i in 0..NODES {
        let p = cluster.node(i).probe_local();
        out.check(p.bad_frames == 0 && p.queue_dropped_frames == 0, || {
            format!(
                "node {i}: {} bad, {} queue-dropped frames",
                p.bad_frames, p.queue_dropped_frames
            )
        });
    }
    drop(cluster);

    // The same updates, replayed in lockstep under Classic and BP+RR.
    let rounds: Vec<Vec<(usize, Key, TimelineOp)>> = gen
        .updates
        .chunks(REPLAY_PER_NODE * NODES)
        .take(REPLAY_ROUNDS)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(i, (k, op))| (i % NODES, *k, op.clone()))
                .collect()
        })
        .collect();
    let ratio = replay::classic_tx_ratio::<Key, Timeline>(&load::full_mesh(NODES), &rounds);
    out.check(ratio > 1.0, || {
        format!("classic_tx_ratio {ratio} is not above 1")
    });
    out.set_noted(
        "classic_tx_ratio",
        ratio,
        format!("{} rounds replayed", rounds.len()),
    );

    if let Some(mb) = sys::peak_rss_mb() {
        out.set("peak_rss_mb", mb);
    }
    for _ in 1..setup_reps(spec.objects) {
        drop(set_up(&mut out)?);
    }

    // Set-up too is read against the machine's speed; visibility, which
    // waits on timers and sockets, is not.
    let slowdown = calibrator.finish();
    out.set("calib.kernel_us", slowdown * crate::calib::REFERENCE_US);
    out.set_noted(
        "setup_s",
        median_of(&setups) / slowdown,
        format!("median of {}", setups.len()),
    );
    out.set("repair_ms_p50_raw", median_of(&repairs.raw_ms));
    out.set_noted(
        "repair_ms_p50",
        median_of(&repairs.ms),
        format!(
            "{} cycles x {} keys",
            repair_cycle_count(spec.objects),
            divergent_keys(spec.objects)
        ),
    );
    Ok(out)
}
