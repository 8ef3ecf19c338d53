//! The two in-process workloads, untraced: no sockets, one thread,
//! `delta_store::Cluster` driven in lockstep.

use std::collections::BTreeMap;
use std::hash::Hash;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crdt_lattice::{ReplicaId, Sizeable, WireEncode};
use crdt_sync::ProtocolKind;
use crdt_types::{Crdt, GSet};
use crdt_workloads::{RetwisConfig, RetwisTrace, Timeline, Wall};
use delta_store::Cluster;

use crate::calib::Calibrator;
use crate::load::{self, Key, TimelineOp, UpdateStream, PROBE_KEY};
use crate::replay;
use crate::report::Outcome;
use crate::stats::{median_of, profile_percentile, sample_note, Samples};
use crate::sys;
use crate::tcp::{divergent_keys, setup_reps, strided_keys, RepairLog};

/// Nodes of the mesh workload (the paper's partial mesh).
pub const MESH_NODES: usize = 15;

/// Application operations per node per round on the mesh.
pub const MESH_OPS_PER_ROUND: usize = 16;

/// Rounds replayed under Classic for `classic_tx_ratio`.
const PREFIX_ROUNDS: usize = 20;

/// Partition-and-repair cycles run after every pass of the mesh, on the
/// cluster the pass leaves behind: spread over the run like this, a
/// neighbour's burst hits the cycles of one pass, not all of them.
const MESH_REPAIR_CYCLES: usize = 21;

/// Check every replica of `cluster` against `model`, by value, ignoring
/// objects still at bottom (a no-op update creates its key locally only).
fn check_against<K, C>(
    what: &str,
    cluster: &Cluster<K, C>,
    model: &BTreeMap<K, C>,
    out: &mut Outcome,
) where
    K: Ord + Clone + Sizeable + Hash,
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + 'static,
{
    let off: Vec<(usize, usize)> = (0..cluster.len())
        .map(|i| {
            let replica = cluster.replica(i);
            let held = replica.iter().filter(|(_, x)| !x.is_bottom()).count();
            let holds = |k: &K, want: &C| replica.get(k.clone()) == Some(want);
            (i, load::mismatches(model, held, holds))
        })
        .filter(|(_, n)| *n > 0)
        .collect();
    out.check(off.is_empty(), || {
        format!("{what}: (replica, objects differing from the model) = {off:?}")
    });
}

fn model_of<'a, C>(ops: impl IntoIterator<Item = &'a (Key, C::Op)>) -> BTreeMap<Key, C>
where
    C: Crdt,
    C::Op: 'a,
{
    let mut model: BTreeMap<Key, C> = BTreeMap::new();
    for (key, op) in ops {
        let _ = model.entry(*key).or_insert_with(C::bottom).apply(op);
    }
    model.retain(|_, x| !x.is_bottom());
    model
}

/// Visibility samples, in the order taken, `period` of them to a pass
/// (mesh) or to a hundred cycles (repair). The tail is the p99 of the
/// typical pass ([`profile_percentile`]): calibration removes the
/// machine's speed regime from these single-threaded timings but not a
/// neighbour's burst, and a few bursts would otherwise set the run's p99.
fn set_visibility(out: &mut Outcome, visible_us: Vec<f64>, period: usize) {
    let tail = profile_percentile(&visible_us, period, 99.0);
    let visible = Samples::new(visible_us);
    let note = sample_note(visible.len());
    out.set_noted("visibility_p50_us", visible.median(), note.clone());
    out.set_noted(
        "visibility_p99_us",
        tail,
        format!("{note}, p99 of the position-wise median pass"),
    );
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

// ---------------------------------------------------------------------
// retwis-mesh-mem
// ---------------------------------------------------------------------

/// Shape of the mesh workload.
#[derive(Debug, Clone, Copy)]
pub struct MeshSpec {
    /// Retwis users; each owns a follower set, a wall and a timeline.
    pub users: usize,
    /// Rounds of operations per pass.
    pub rounds: usize,
}

/// The Retwis trace of one pass.
pub fn mesh_trace(spec: MeshSpec, seed: u64) -> RetwisTrace {
    let cfg = RetwisConfig {
        n_users: spec.users,
        zipf: load::ZIPF_S,
        ops_per_node_per_round: MESH_OPS_PER_ROUND,
        max_fanout: 50,
        seed,
    };
    RetwisTrace::generate(cfg, MESH_NODES, spec.rounds)
}

/// One cluster per Retwis object family, all on the same mesh.
struct Mesh {
    followers: Cluster<Key, GSet<Key>>,
    walls: Cluster<Key, Wall>,
    timelines: Cluster<Key, Timeline>,
}

impl Mesh {
    fn new() -> Self {
        let mesh = load::partial_mesh(MESH_NODES);
        Mesh {
            followers: Cluster::with_neighbors(mesh.clone(), load::bp_rr()),
            walls: Cluster::with_neighbors(mesh.clone(), load::bp_rr()),
            timelines: Cluster::with_neighbors(mesh, load::bp_rr()),
        }
    }

    fn sync_round(&mut self) {
        self.followers.sync_round();
        self.walls.sync_round();
        self.timelines.sync_round();
    }

    fn total_bytes(&self) -> u64 {
        self.followers.stats().total_bytes()
            + self.walls.stats().total_bytes()
            + self.timelines.stats().total_bytes()
    }
}

/// Visibility of the probe object at the farthest node: node 0 writes
/// one sequence number per round, and each becomes a sample when the
/// farthest node first shows it.
struct MeshProbe {
    written: Vec<Instant>,
    seen: u64,
    visible_us: Vec<f64>,
    wrong_value: bool,
}

impl MeshProbe {
    fn write(&mut self, timelines: &mut Cluster<Key, Timeline>) {
        let seq = self.written.len() as u64 + 1;
        self.written.push(Instant::now());
        timelines.update(0, PROBE_KEY, &load::probe_op(seq));
    }

    fn observe(&mut self, timelines: &Cluster<Key, Timeline>, slowdown: f64) {
        let far = MESH_NODES / 2;
        let shown = load::probe_seq(timelines.replica(far).get(PROBE_KEY)).unwrap_or(0);
        self.wrong_value |= shown > self.written.len() as u64;
        for seq in self.seen + 1..=shown.min(self.written.len() as u64) {
            self.visible_us
                .push(micros(self.written[seq as usize - 1]) / slowdown);
        }
        self.seen = self.seen.max(shown);
    }
}

struct MeshPass {
    mesh: Mesh,
    trace: RetwisTrace,
    setup_s: f64,
    window_s: f64,
    updates: u64,
    bytes: u64,
    visible_us: Vec<f64>,
    probe_ok: bool,
}

fn mesh_pass(spec: MeshSpec, seed: u64, cal: &mut Calibrator) -> MeshPass {
    cal.refresh();
    let start = Instant::now();
    let trace = mesh_trace(spec, seed);
    let mut mesh = Mesh::new();
    let setup_s = start.elapsed().as_secs_f64() / cal.slowdown();

    let mut reader = UpdateStream::new(seed ^ 0x4ead, spec.users);
    let mut probe = MeshProbe {
        written: Vec::with_capacity(spec.rounds),
        seen: 0,
        visible_us: Vec::with_capacity(spec.rounds),
        wrong_value: false,
    };
    let mut updates = 0u64;

    // One calibration tick per round; every timing of the round is read
    // against the slowdown in force then.
    let mut window_s = 0.0;
    for per_node in &trace.rounds {
        cal.tick();
        let slowdown = cal.slowdown();
        let round = Instant::now();
        probe.write(&mut mesh.timelines);
        updates += 1;
        for (node, ops) in per_node.iter().enumerate() {
            for (k, op) in &ops.followers {
                mesh.followers.update(node, *k, op);
            }
            for (k, op) in &ops.walls {
                mesh.walls.update(node, *k, op);
            }
            for (k, op) in &ops.timelines {
                mesh.timelines.update(node, *k, op);
            }
            updates += ops.updates() as u64;
            // Every application op is a follow, a post or a timeline
            // read; the trace drops the reads, so issue them here.
            let reads = MESH_OPS_PER_ROUND - ops.followers.len() - ops.walls.len();
            for _ in 0..reads {
                black_box(mesh.timelines.replica(node).get(reader.key()));
            }
        }
        mesh.sync_round();
        probe.observe(&mesh.timelines, slowdown);
        window_s += round.elapsed().as_secs_f64() / slowdown;
    }
    for _ in 0..load::partial_mesh_diameter(MESH_NODES) + 2 {
        cal.tick();
        let round = Instant::now();
        mesh.sync_round();
        probe.observe(&mesh.timelines, cal.slowdown());
        window_s += round.elapsed().as_secs_f64() / cal.slowdown();
    }

    MeshPass {
        bytes: mesh.total_bytes(),
        probe_ok: !probe.wrong_value && probe.seen == spec.rounds as u64,
        mesh,
        trace,
        setup_s,
        window_s,
        updates,
        visible_us: probe.visible_us,
    }
}

/// Partition node 0 of `cluster`, write to as many objects as 1 % of
/// `objects` there, run the sync round that drops those deltas on the
/// severed links, heal, and time `merkle_repair(0, 1)`.
fn repair_cycles(
    cluster: &mut Cluster<Key, Timeline>,
    objects: usize,
    cycles: usize,
    seq: &mut u64,
    cal: &mut Calibrator,
) -> RepairLog {
    let per_cycle = divergent_keys(objects);
    let mut log = RepairLog::default();
    for cycle in 0..cycles {
        cluster.partition(&[0]);
        // Objects of the partitioned node's own, just beyond the trace's
        // keyspace: four-slot timelines as on the other workloads, once
        // the first four cycles have filled them. The trace's own objects
        // differ in size from seed to seed (under Zipf the hottest of a
        // hundred keys held 40 % of the bytes), and repair cost goes with
        // size.
        let keys: Vec<Key> = strided_keys(objects, per_cycle, 0)
            .map(|k| k + objects as Key)
            .collect();
        for key in &keys {
            *seq += 1;
            let op = load::timeline_op(cycle as u64, *seq);
            cluster.update(0, *key, &op);
            log.updates.push((*key, op));
        }
        cluster.sync_round();
        cluster.heal();
        cal.refresh();
        let start = Instant::now();
        let stats = cluster.merkle_repair(0, 1);
        log.ms
            .push(start.elapsed().as_secs_f64() * 1e3 / cal.slowdown());
        log.bytes_per_key
            .push((stats.payload_bytes + stats.metadata_bytes) as f64 / per_cycle as f64);
        log.unrepaired += keys
            .iter()
            .filter(|k| cluster.replica(1).get(**k) != cluster.replica(0).get(**k))
            .count();
    }
    log
}

/// The by-value oracle of one mesh pass: all fifteen replicas of each
/// family equal the model. Returns the timeline model for the check after
/// the repairs.
fn check_pass(pass: &MeshPass, rounds: usize, out: &mut Outcome) -> BTreeMap<Key, Timeline> {
    let nodes = || pass.trace.rounds.iter().flatten();
    check_against(
        "followers",
        &pass.mesh.followers,
        &model_of(nodes().flat_map(|n| &n.followers)),
        out,
    );
    check_against(
        "walls",
        &pass.mesh.walls,
        &model_of(nodes().flat_map(|n| &n.walls)),
        out,
    );
    let mut timelines: BTreeMap<Key, Timeline> = model_of(nodes().flat_map(|n| &n.timelines));
    let _ = timelines
        .entry(PROBE_KEY)
        .or_default()
        .apply(&load::probe_op(rounds as u64));
    check_against("timelines", &pass.mesh.timelines, &timelines, out);
    timelines
}

/// Run `retwis-mesh-mem`: whole passes, each followed by its repair
/// cycles, as many as fit `window` (three at least).
pub fn run_mesh(spec: MeshSpec, seed: u64, window: Duration) -> Outcome {
    let mut out = Outcome::default();
    let (mut setups, mut rates, mut cpu_per_kop) = (vec![], vec![], vec![]);
    let mut visible = Vec::new();
    let mut repairs = RepairLog::default();
    let mut first: Option<(u64, u64)> = None;
    let mut cal = Calibrator::new();
    let clock = Instant::now();
    // How long the previous pass took with its repair cycles, and the
    // cycles alone.
    let (mut whole, mut tail) = (Duration::ZERO, Duration::ZERO);
    let (pass, mut timelines) = loop {
        let began = Instant::now();
        cal.mark();
        let cpu_before = sys::cpu_seconds();
        let mut pass = mesh_pass(spec, seed, &mut cal);
        if let (Some(a), Some(b)) = (cpu_before, sys::cpu_seconds()) {
            // Whole-pass CPU: set-up included, as `/proc` ticks are too
            // coarse to split a pass.
            let ms = (b - a) * 1e3 / cal.slowdown_since_mark();
            cpu_per_kop.push(ms / (pass.updates as f64 / 1e3));
        }
        setups.push(pass.setup_s);
        rates.push(pass.updates as f64 / pass.window_s);
        visible.extend_from_slice(&pass.visible_us);
        out.attempted += pass.updates;
        out.check(pass.probe_ok, || {
            "a probe write never reached the farthest node, or a value never written did".into()
        });
        // Same seed, same inputs: every pass must count the same.
        let counts = (pass.updates, pass.bytes);
        out.check(*first.get_or_insert(counts) == counts, || {
            format!("passes disagree on (updates, bytes): {first:?} vs {counts:?}")
        });

        // The last pass is the one after which another, going by the
        // previous one, would not fit; its replicas are checked against
        // the model before the repair cycles write to them, and again
        // after.
        let model = (setups.len() >= 3 && clock.elapsed() + tail + whole > window)
            .then(|| check_pass(&pass, spec.rounds, &mut out));
        let cycles_began = Instant::now();
        let mut seq = u64::MAX / 2;
        let cycles = repair_cycles(
            &mut pass.mesh.timelines,
            spec.users,
            MESH_REPAIR_CYCLES,
            &mut seq,
            &mut cal,
        );
        repairs.ms.extend(cycles.ms);
        repairs.bytes_per_key.extend(cycles.bytes_per_key);
        repairs.unrepaired += cycles.unrepaired;
        repairs.updates = cycles.updates;
        (whole, tail) = (began.elapsed(), cycles_began.elapsed());
        if let Some(model) = model {
            break (pass, model);
        }
    };
    let passes = setups.len();
    out.set_noted("setup_s", median_of(&setups), format!("median of {passes}"));
    out.set_noted(
        "update_ops_per_s",
        median_of(&rates),
        format!("median of {passes} passes of {} updates", pass.updates),
    );
    out.set("cpu_ms_per_kop", median_of(&cpu_per_kop));
    out.set("calib.kernel_us", cal.kernel_us());
    out.set(
        "wire_bytes_per_update",
        pass.bytes as f64 / pass.updates as f64,
    );
    set_visibility(&mut out, visible, spec.rounds);

    // Repairs, on the timeline family: every diverged key equal on both
    // sides after its repair, and the last pass's cluster, once it has
    // converged again, equal to the model with the divergent updates.
    out.check(repairs.unrepaired == 0, || {
        format!(
            "{} diverged keys still differ after repair",
            repairs.unrepaired
        )
    });
    out.set_noted(
        "repair_ms_p50",
        median_of(&repairs.ms),
        format!(
            "{passes} x {MESH_REPAIR_CYCLES} cycles x {} keys",
            divergent_keys(spec.users)
        ),
    );
    out.set("repair_bytes_per_key", median_of(&repairs.bytes_per_key));
    let MeshPass {
        mut mesh, trace, ..
    } = pass;
    for _ in 0..load::partial_mesh_diameter(MESH_NODES) + 2 {
        mesh.timelines.sync_round();
    }
    for (key, op) in &repairs.updates {
        let _ = timelines.entry(*key).or_default().apply(op);
    }
    check_against(
        "timelines after repair",
        &mesh.timelines,
        &timelines,
        &mut out,
    );
    drop(mesh);

    // The first rounds again, under Classic and under BP+RR.
    let prefix = &trace.rounds[..PREFIX_ROUNDS.min(trace.rounds.len())];
    let mesh = load::partial_mesh(MESH_NODES);
    let (mut classic, mut bp_rr) = (0, 0);
    macro_rules! replay_family {
        ($field:ident, $crdt:ty) => {{
            let rounds: Vec<Vec<(usize, Key, <$crdt as Crdt>::Op)>> = prefix
                .iter()
                .map(|per_node| {
                    per_node
                        .iter()
                        .enumerate()
                        .flat_map(|(i, n)| n.$field.iter().map(move |(k, op)| (i, *k, op.clone())))
                        .collect()
                })
                .collect();
            classic += replay::tx_bytes::<Key, $crdt>(ProtocolKind::Classic, &mesh, &rounds);
            bp_rr += replay::tx_bytes::<Key, $crdt>(ProtocolKind::BpRr, &mesh, &rounds);
        }};
    }
    replay_family!(followers, GSet<Key>);
    replay_family!(walls, Wall);
    replay_family!(timelines, Timeline);
    let ratio = classic as f64 / bp_rr as f64;
    out.check(ratio > 1.0, || {
        format!("classic_tx_ratio {ratio} is not above 1")
    });
    out.set_noted(
        "classic_tx_ratio",
        ratio,
        format!("{} rounds replayed", prefix.len()),
    );

    if let Some(mb) = sys::peak_rss_mb() {
        out.set("peak_rss_mb", mb);
    }
    out
}

// ---------------------------------------------------------------------
// repair30k-mem
// ---------------------------------------------------------------------

/// Cycles whose updates are replayed for `classic_tx_ratio`.
const REPLAY_CYCLES: usize = 20;

/// Cycles whose bytes are counted.
const COUNTED_CYCLES: usize = 100;

/// Two replicas holding `objects` pre-populated timelines each.
pub fn populated_pair(objects: usize) -> Cluster<Key, Timeline> {
    let mut cluster: Cluster<Key, Timeline> = Cluster::full_mesh(2, load::bp_rr());
    for key in 0..objects as Key {
        for op in load::populate_ops(key) {
            cluster.update(0, key, &op);
        }
    }
    cluster.sync_round();
    cluster
}

/// Run `repair30k-mem`: partition, diverge, heal, repair — whole cycles
/// until `window` is used up.
pub fn run_repair(objects: usize, seed: u64, window: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut cal = Calibrator::new();
    let mut set_up = |cal: &mut Calibrator| {
        cal.refresh();
        let start = Instant::now();
        let cluster = populated_pair(objects);
        setups.push(start.elapsed().as_secs_f64() / cal.slowdown());
        cluster
    };
    // The first pair built serves the window, on a fresh heap; see
    // `tcp::setup_reps`.
    let mut cluster = set_up(&mut cal);

    let per_cycle = divergent_keys(objects);
    let mut stream = UpdateStream::new(seed, objects);
    let mut seq = objects as u64 * load::SLOTS;
    let mut log: Vec<(Key, TimelineOp)> = Vec::new();
    let (mut repair_ms, mut bytes_per_key, mut visible_us) = (vec![], vec![], vec![]);
    let (mut unrepaired, mut cycle) = (0usize, 0u64);

    // One calibration tick per cycle; every timing of the cycle is read
    // against the slowdown in force then.
    let mut elapsed = 0.0;
    cal.mark();
    let cpu_before = sys::cpu_seconds();
    let start = Instant::now();
    while start.elapsed() < window {
        cal.tick();
        let slowdown = cal.slowdown();
        let cycle_start = Instant::now();
        cluster.partition(&[0]);
        let keys: Vec<Key> =
            strided_keys(objects, per_cycle, stream.below(objects as u64)).collect();
        let ops: Vec<TimelineOp> = keys
            .iter()
            .map(|_| {
                seq += 1;
                load::timeline_op(cycle, seq)
            })
            .collect();
        for (key, op) in keys.iter().zip(&ops) {
            cluster.update(0, *key, op);
        }
        let diverged = Instant::now();
        // The δ-buffers empty into the severed link: only repair can
        // bring node 1 up to date now.
        cluster.sync_round();
        cluster.heal();
        let repair = Instant::now();
        let stats = cluster.merkle_repair(0, 1);
        repair_ms.push(repair.elapsed().as_secs_f64() * 1e3 / slowdown);
        visible_us.push(micros(diverged) / slowdown);
        bytes_per_key.push((stats.payload_bytes + stats.metadata_bytes) as f64 / per_cycle as f64);

        unrepaired += keys
            .iter()
            .filter(|k| cluster.replica(1).get(**k) != cluster.replica(0).get(**k))
            .count();
        log.extend(keys.into_iter().zip(ops));
        cycle += 1;
        elapsed += cycle_start.elapsed().as_secs_f64() / slowdown;
    }
    let cpu_after = sys::cpu_seconds();

    let updates = log.len() as f64;
    out.attempted = log.len() as u64;
    out.set_noted(
        "update_ops_per_s",
        updates / elapsed,
        format!("{cycle} cycles x {per_cycle} diverged updates"),
    );
    if let (Some(a), Some(b)) = (cpu_before, cpu_after) {
        let ms = (b - a) * 1e3 / cal.slowdown_since_mark();
        out.set("cpu_ms_per_kop", ms / (updates / 1e3));
    }
    out.set("calib.kernel_us", cal.kernel_us());
    // Byte counts over a fixed number of cycles, so that they repeat
    // exactly per seed however many cycles the window had time for.
    let counted = &bytes_per_key[..bytes_per_key.len().min(COUNTED_CYCLES)];
    out.set_noted(
        "wire_bytes_per_update",
        counted.iter().sum::<f64>() / counted.len() as f64,
        format!("first {} cycles", counted.len()),
    );
    out.set_noted("repair_ms_p50", median_of(&repair_ms), format!("n={cycle}"));
    out.set("repair_bytes_per_key", median_of(counted));
    set_visibility(&mut out, visible_us, COUNTED_CYCLES);

    out.check(unrepaired == 0, || {
        format!("{unrepaired} diverged keys still differ after repair")
    });
    check_against("replicas", &cluster, &load::model(objects, &log), &mut out);
    drop(cluster);

    // The first cycles' updates as lockstep rounds, alternating the
    // writing node, under Classic and under BP+RR.
    let rounds: Vec<Vec<(usize, Key, TimelineOp)>> = log
        .chunks(per_cycle)
        .take(REPLAY_CYCLES)
        .enumerate()
        .map(|(c, chunk)| {
            chunk
                .iter()
                .map(|(k, op)| (c % 2, *k, op.clone()))
                .collect()
        })
        .collect();
    let pair = [vec![ReplicaId(1)], vec![ReplicaId(0)]];
    let ratio = replay::classic_tx_ratio::<Key, Timeline>(&pair, &rounds);
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
    for _ in 1..setup_reps(objects) {
        drop(set_up(&mut cal));
    }
    out.set_noted(
        "setup_s",
        median_of(&setups),
        format!("median of {}", setups.len()),
    );
    out
}
