//! The one type-erased simulation driver: a keyed map of
//! `Box<dyn SyncEngine>` per node × the seeded [`Network`] fabric ×
//! a deterministic thread-chunk phase model.
//!
//! [`crate::Runner`] is monomorphized per protocol and exchanges
//! in-process values — the zero-codec reference. Everything a binary
//! selects at runtime goes through this driver instead:
//!
//! * **protocol-generic** — every object is a `Box<dyn SyncEngine + Send>`
//!   built by [`crdt_sync::build_engine_send_with_model`] from a
//!   [`ProtocolKind`] value, so one driver runs all nine kinds, with
//!   truly encoded payloads on the wire;
//! * **keyed** — each node hosts a keyspace `K` of independent objects
//!   (the paper's Retwis granularity, §V-C: one δ-buffer per object, up
//!   to 30 K of them), created lazily at `⊥` on first update or receipt.
//!   A single-object run is the keyspace `K = ()`: its key costs 0 bytes
//!   under [`Sizeable`], and its one object exists at every node from
//!   the start (see [`ShardedEngineRunner::new`]);
//! * **batched** — all of one node's per-object envelopes bound for one
//!   recipient coalesce into a single [`BatchEnvelope`] wire frame (the
//!   same frame `delta-store`'s transport ships), so
//!   [`RoundMetrics::messages`] is O(links) per round, independent of
//!   object count, while [`RoundMetrics::envelopes`] keeps counting
//!   per-object protocol envelopes — their ratio is the
//!   batch-amortization factor;
//! * **thread-parallel** — nodes share nothing within a phase, so
//!   applying ops, synchronizing, and absorbing deliveries run on
//!   contiguous node chunks per worker. Everything order-sensitive — the
//!   fabric's seeded drop/duplicate/reorder draws, accounting — happens
//!   on the driver thread *between* phases, over frames sorted by
//!   (causing delivery, emission index): the order a sequential driver
//!   would have sent them in. Accounting, final states and the fabric's
//!   RNG stream are therefore identical across thread counts;
//! * **scenario-capable** — every [`ScenarioEvent`] applies at the *node*
//!   level across all of its objects: a crash takes every shard down (a
//!   non-durable one wipes them), a heal repairs every object pairwise, a
//!   join bootstraps the full keyspace, a link fault overlays the fabric.
//!
//! The parity property tests in `tests/sharded_engine_parity.rs` pin the
//! driver against [`crate::Runner`]: a `K`-object run accounts exactly
//! like `K` independent single-object reference runs, summed.

use std::any::Any;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Mutex;
use std::time::Instant;

use crdt_lattice::{ReplicaId, SizeModel, Sizeable, WireEncode};
use crdt_obs::{EventKind, Obs};
use crdt_sync::digest::{digest_repair_deltas, PairSyncStats};
use crdt_sync::{
    build_engine_send_with_model, diff_keys, BatchEnvelope, BufferPool, DeltaMsg, Measured,
    MerkleRepairMetrics, MerkleTree, OpBytes, Params, ProtocolKind, SyncEngine, WireAccounting,
    WireEnvelope, DEFAULT_MERKLE_DEPTH, MERKLE_REPAIR_THRESHOLD,
};
use crdt_types::Crdt;

use crate::metrics::{phase_split, RoundMetrics, RunMetrics};
use crate::network::{LinkFault, Network, NetworkConfig};
use crate::parallel::par_map_chunked_ctx as par_map;
use crate::runner::{drive_to_convergence, Workload};
use crate::scenario::ScenarioEvent;
use crate::topology::{DynamicTopology, Topology};

/// A keyed operation: which object, and what to do to it.
pub type KeyedOp<K, C> = (K, <C as Crdt>::Op);

/// One node's keyspace: object key → that object's type-erased engine.
type EngineMap<K> = BTreeMap<K, Box<dyn SyncEngine + Send>>;

/// A frame a node emitted during a phase: the index of the delivery
/// that caused it (0 throughout the synchronization phase), its
/// recipient, and the batch.
type Emitted<K> = (usize, ReplicaId, BatchEnvelope<K>);

/// One node's phase output: driver (routing/framing) nanos, protocol
/// nanos, and the frames it emitted, in emission order.
type PhaseOutput<K> = (u64, u64, Vec<Emitted<K>>);

/// Coalesce `env` into the current emission's frame for its recipient —
/// `frames[start..]` is that emission's window — opening a new frame, in
/// first-emission order, when the recipient is new.
fn coalesce<K>(
    frames: &mut Vec<Emitted<K>>,
    start: usize,
    cause: usize,
    key: K,
    env: WireEnvelope,
) {
    match frames[start..].iter_mut().find(|(_, to, _)| *to == env.to) {
        Some((_, _, batch)) => batch.push(key, env),
        None => {
            let to = env.to;
            let mut batch = BatchEnvelope::new();
            batch.push(key, env);
            frames.push((cause, to, batch));
        }
    }
}

/// Runner-level observability: registry cells the driver bumps plus
/// the trace-event hook. Attached via
/// [`ShardedEngineRunner::set_obs`]; absent by default (zero cost).
#[derive(Clone, Debug)]
struct RunnerObs {
    obs: Obs,
    /// `sim.runner.rounds` — synchronization rounds driven.
    rounds: crdt_obs::Counter,
    /// `sim.runner.undeliverable` — batches dropped at delivery (down
    /// node or active partition).
    undeliverable: crdt_obs::Counter,
    /// Shared `repair.*` cells (Merkle descents + pairwise sessions).
    repair: MerkleRepairMetrics,
}

/// Register (or look up) the runner-level cells: the `sim.runner.*`
/// counters plus the shared `repair.*` namespace.
fn runner_cells(
    reg: &crdt_obs::Registry,
) -> (crdt_obs::Counter, crdt_obs::Counter, MerkleRepairMetrics) {
    (
        crdt_obs::register_counter!(reg, "sim.runner.rounds", "synchronization rounds driven"),
        crdt_obs::register_counter!(
            reg,
            "sim.runner.undeliverable",
            "batches dropped at delivery (down node or active partition)"
        ),
        MerkleRepairMetrics::register(reg),
    )
}

/// Register every runner-layer metric in `reg` (idempotent) without
/// building a runner — the golden-name gate enumerates the `sim.*` and
/// `repair.*` namespaces through this.
pub fn register_runner_metrics(reg: &crdt_obs::Registry) {
    let _ = runner_cells(reg);
}

/// The type-erased simulation driver (see module docs).
///
/// ```
/// use crdt_sim::{NetworkConfig, ShardedEngineRunner, Topology};
/// use crdt_sync::ProtocolKind;
/// use crdt_lattice::{ReplicaId, SizeModel};
/// use crdt_types::{GSet, GSetOp};
///
/// // One object per node (`K = ()`), protocol chosen at runtime.
/// let kind: ProtocolKind = "bp_rr".parse().unwrap();
/// let mut runner: ShardedEngineRunner<(), GSet<u64>> = ShardedEngineRunner::new(
///     kind,
///     Topology::ring(4),
///     NetworkConfig::reliable(1),
///     SizeModel::compact(),
///     1,
/// );
/// let mut workload = |node: ReplicaId, round: usize| {
///     vec![GSetOp::Add((round * 4 + node.index()) as u64)]
/// };
/// runner.run(&mut workload, 3);
/// runner.run_to_convergence(16).expect("converges");
/// assert_eq!(runner.object_state(ReplicaId(2), &()).unwrap().len(), 12);
/// ```
#[derive(Debug)]
pub struct ShardedEngineRunner<K: Ord, C: Crdt> {
    kind: ProtocolKind,
    topo: DynamicTopology,
    model: SizeModel,
    params: Params,
    threads: usize,
    nodes: Vec<EngineMap<K>>,
    net: Network<BatchEnvelope<K>>,
    /// Per-worker encode scratch, round-robin across rounds: worker `w`
    /// owns `pools[w]` for every phase it runs, so steady-state rounds
    /// reuse the same buffers instead of allocating per envelope (see
    /// `crdt_sync::BufferPool`). Grown lazily by the chunked par-map.
    pools: Vec<BufferPool>,
    metrics: RunMetrics,
    /// Cumulative out-of-band recovery traffic (digest repair and
    /// bootstrap transfers).
    repair: PairSyncStats,
    /// Frames discarded at delivery because the recipient was down or
    /// across an active partition.
    undeliverable: u64,
    /// Last crash durability per node (drives the restart repair policy).
    durability: Vec<bool>,
    round: usize,
    /// Observability hook, attached via [`ShardedEngineRunner::set_obs`].
    obs: Option<RunnerObs>,
    _crdt: PhantomData<fn() -> C>,
}

impl<K, C> ShardedEngineRunner<K, C>
where
    K: Ord
        + Clone
        + core::fmt::Debug
        + Sizeable
        + std::hash::Hash
        + WireEncode
        + Send
        + Sync
        + 'static,
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + Sync + 'static,
{
    /// Build a driver over `topology` with default parameters: protocol
    /// `kind` for every object, frames carried by a fabric configured by
    /// `net_cfg`, `threads` worker threads (clamped to ≥ 1).
    ///
    /// Objects are created lazily at `⊥` when first updated or received
    /// — except in the unit keyspace `K = ()`, whose single object *is*
    /// the replica: it exists at every node from the start (and after a
    /// wipe or a join), so `⊥` replicas of push-pull kinds gossip and
    /// occupy metadata memory from round 0, exactly like one protocol
    /// instance per node in [`crate::Runner`].
    pub fn new(
        kind: ProtocolKind,
        topology: Topology,
        net_cfg: NetworkConfig,
        model: SizeModel,
        threads: usize,
    ) -> Self {
        let params = Params::new(topology.len());
        Self::with_params(kind, topology, net_cfg, model, threads, params)
    }

    /// [`ShardedEngineRunner::new`], overriding the [`Params`] knobs
    /// (`fan_out`, `sync_interval`, `compaction`). `params.n_nodes` is
    /// always taken from the topology.
    pub fn with_params(
        kind: ProtocolKind,
        topology: Topology,
        net_cfg: NetworkConfig,
        model: SizeModel,
        threads: usize,
        mut params: Params,
    ) -> Self {
        let n = topology.len();
        params.n_nodes = n;
        ShardedEngineRunner {
            kind,
            nodes: topology
                .nodes()
                .map(|id| Self::fresh_keyspace(id, kind, &params, model))
                .collect(),
            topo: DynamicTopology::new(topology),
            model,
            params,
            threads: threads.max(1),
            net: Network::new(net_cfg),
            pools: Vec::new(),
            metrics: RunMetrics::new(n),
            repair: PairSyncStats::default(),
            undeliverable: 0,
            durability: vec![true; n],
            round: 0,
            obs: None,
            _crdt: PhantomData,
        }
    }

    /// The keyspace a node is born with: empty, or — for `K = ()` — the
    /// one object there is.
    fn fresh_keyspace(
        node: ReplicaId,
        kind: ProtocolKind,
        params: &Params,
        model: SizeModel,
    ) -> EngineMap<K> {
        let unit: Option<&K> = (&() as &dyn Any).downcast_ref();
        unit.map(|key| {
            (
                key.clone(),
                build_engine_send_with_model::<C>(kind, node, params, model),
            )
        })
        .into_iter()
        .collect()
    }

    /// Attach an observability bundle: the runner registers its
    /// `sim.runner.*` / `repair.*` cells in `obs.registry`, drives
    /// `obs.clock` to its round counter, and emits trace events for
    /// rounds, faults, and repair descents.
    pub fn set_obs(&mut self, obs: &Obs) {
        let (rounds, undeliverable, repair) = runner_cells(&obs.registry);
        self.obs = Some(RunnerObs {
            obs: obs.clone(),
            rounds,
            undeliverable,
            repair,
        });
    }

    /// The protocol every object runs.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// The (base) topology driving this run.
    pub fn topology(&self) -> &Topology {
        self.topo.base()
    }

    /// The live membership/partition view.
    pub fn membership(&self) -> &DynamicTopology {
        &self.topo
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Consume, returning the metrics.
    pub fn into_metrics(self) -> RunMetrics {
        self.metrics
    }

    /// Cumulative out-of-band recovery traffic (digest repairs and
    /// bootstrap state transfers).
    pub fn repair_stats(&self) -> PairSyncStats {
        self.repair
    }

    /// Frames lost to faults: discarded because the recipient was down
    /// or unreachable across a partition, plus frames the fabric itself
    /// dropped (global `drop_prob` and per-link faults).
    pub fn undeliverable(&self) -> u64 {
        self.undeliverable + self.net.dropped
    }

    /// Number of distinct objects hosted at `node`.
    pub fn objects_at(&self, node: ReplicaId) -> usize {
        self.nodes[node.index()].len()
    }

    /// A node's replica of one object, typed, if it exists.
    pub fn object_state(&self, node: ReplicaId, key: &K) -> Option<&C> {
        self.nodes[node.index()]
            .get(key)
            .map(|e| Self::typed_state(e.as_ref()))
    }

    fn typed_state(engine: &dyn SyncEngine) -> &C {
        engine
            .state_any()
            .downcast_ref::<C>()
            .expect("runner engines are always built over C")
    }

    fn engine_at<'a>(
        map: &'a mut EngineMap<K>,
        key: &K,
        node: ReplicaId,
        kind: ProtocolKind,
        params: &Params,
        model: SizeModel,
    ) -> &'a mut Box<dyn SyncEngine + Send> {
        map.entry(key.clone())
            .or_insert_with(|| build_engine_send_with_model::<C>(kind, node, params, model))
    }

    /// The neighbors `node` synchronizes with at sync step `step`:
    /// everyone, unless `params.fan_out` caps the count — then a
    /// deterministic rotating window, so capped replicas still address
    /// every neighbor over successive sync steps.
    ///
    /// The window advances by *sync step* (`round / sync_interval`), not
    /// by raw round: with an interval of `s`, only every `s`-th round
    /// syncs, and stepping the window by rounds would skip the same
    /// neighbor indices forever whenever `s` and the neighbor count share
    /// a factor.
    fn sync_targets(
        topo: &Topology,
        fan_out: Option<usize>,
        step: usize,
        node: ReplicaId,
    ) -> Vec<ReplicaId> {
        let all = topo.neighbors(node);
        match fan_out {
            Some(f) if f < all.len() => (0..f).map(|i| all[(step * f + i) % all.len()]).collect(),
            _ => all.to_vec(),
        }
    }

    /// Close a parallel phase on the driver thread: meter it, then
    /// account every emitted frame and hand it to the fabric, ordered by
    /// (causing delivery, sender, emission) — each delivery has one
    /// recipient, so this is the order a sequential driver absorbing the
    /// deliveries one by one would have sent the replies in, whatever the
    /// thread count.
    fn dispatch(&mut self, rm: &mut RoundMetrics, outputs: Vec<PhaseOutput<K>>) {
        let mut phase: Vec<u64> = Vec::with_capacity(outputs.len());
        let mut frames: Vec<(usize, ReplicaId, ReplicaId, BatchEnvelope<K>)> =
            Vec::with_capacity(outputs.iter().map(|(_, _, out)| out.len()).sum());
        for (i, (route, cpu, out)) in outputs.into_iter().enumerate() {
            rm.workload_nanos += route;
            phase.push(cpu);
            let from = ReplicaId::from(i);
            frames.extend(
                out.into_iter()
                    .map(|(cause, to, batch)| (cause, from, to, batch)),
            );
        }
        let (work, critical) = phase_split(&phase, self.threads);
        rm.cpu_nanos += work;
        rm.critical_path_nanos += critical;

        frames.sort_by_key(|(cause, ..)| *cause);
        for (_, from, to, batch) in frames {
            rm.messages += 1;
            rm.envelopes += batch.len() as u64;
            rm.payload_elements += batch.payload_elements();
            rm.payload_bytes += batch.payload_bytes(&self.model);
            rm.metadata_bytes += batch.metadata_bytes(&self.model);
            self.net.send(from, to, batch);
        }
    }

    /// Run one round: apply this round's keyed ops, synchronize every
    /// object (respecting `sync_interval` and `fan_out`), deliver
    /// per-destination batches (and push-pull replies) to quiescence,
    /// snapshot memory — the four phases of [`crate::Runner::step`], each
    /// parallelized across nodes.
    ///
    /// `ops_per_node` may be *shorter* than the current node count:
    /// replicas that joined after the trace was materialized simply
    /// execute no workload ops (they still synchronize). It must never
    /// be longer. Down nodes execute nothing.
    pub fn step(&mut self, ops_per_node: &[Vec<KeyedOp<K, C>>]) {
        assert!(
            ops_per_node.len() <= self.nodes.len(),
            "ops for {} nodes but the cluster has {}",
            ops_per_node.len(),
            self.nodes.len()
        );
        let mut rm = RoundMetrics::default();
        if let Some(o) = &self.obs {
            o.obs.clock.advance_to(self.round as u64 + 1);
            o.obs.trace(
                crdt_obs::CLUSTER_NODE,
                EventKind::SyncRoundStart,
                self.round as u64,
                0,
            );
        }
        let (kind, params, model, threads) = (self.kind, self.params, self.model, self.threads);

        // Phase 1: local operations, routed to their object, in parallel
        // across nodes. Encoding and shard routing are driver work
        // (workload_nanos); only `on_op` is protocol CPU.
        let topo = &self.topo;
        let timings: Vec<(u64, u64)> =
            par_map(&mut self.nodes, threads, &mut self.pools, |i, shards, _| {
                let node = ReplicaId::from(i);
                if !topo.is_alive(node) {
                    return (0, 0);
                }
                let (mut route, mut cpu) = (0u64, 0u64);
                let ops = ops_per_node.get(i).map_or(&[][..], Vec::as_slice);
                for (key, op) in ops {
                    let t_route = Instant::now();
                    let bytes = OpBytes::encode(op);
                    let engine = Self::engine_at(shards, key, node, kind, &params, model);
                    route += t_route.elapsed().as_nanos() as u64;
                    let t0 = Instant::now();
                    engine
                        .on_op(&bytes)
                        .expect("engine rejected its own CRDT's op encoding");
                    cpu += t0.elapsed().as_nanos() as u64;
                }
                (route, cpu)
            });
        rm.workload_nanos += timings.iter().map(|(r, _)| r).sum::<u64>();
        let cpu: Vec<u64> = timings.iter().map(|(_, c)| *c).collect();
        let (work, critical) = phase_split(&cpu, threads);
        rm.cpu_nanos += work;
        rm.critical_path_nanos += critical;

        // Phase 2: per-object synchronization at every live node, in
        // parallel (skipped on off rounds when a sync_interval > 1 is
        // configured; buffers keep accumulating); each node coalesces
        // everything bound for one neighbor into a single batch frame.
        // Senders address their full neighbor list — crashes and cuts
        // are not learned synchronously; undeliverable frames are
        // discarded in phase 3, like a real fabric. Only the `on_sync`
        // callbacks are protocol CPU; coalescing envelopes into
        // per-destination frames (key clones) is driver work, metered as
        // workload_nanos — the same split every phase uses, so cpu_nanos
        // stays comparable with [`crate::Runner`].
        let interval = params.sync_interval.max(1);
        if self.round.is_multiple_of(interval) {
            let sync_step = self.round / interval;
            let sync_out: Vec<PhaseOutput<K>> = par_map(
                &mut self.nodes,
                threads,
                &mut self.pools,
                |i, shards, pool| {
                    let node = ReplicaId::from(i);
                    if !topo.is_alive(node) {
                        return (0, 0, Vec::new());
                    }
                    let targets = Self::sync_targets(topo.base(), params.fan_out, sync_step, node);
                    let (mut route, mut cpu) = (0u64, 0u64);
                    let mut frames = Vec::new();
                    for (key, engine) in shards.iter_mut() {
                        let t0 = Instant::now();
                        let out = engine.on_sync_pooled(&targets, pool);
                        cpu += t0.elapsed().as_nanos() as u64;
                        let t_route = Instant::now();
                        for env in out {
                            coalesce(&mut frames, 0, 0, key.clone(), env);
                        }
                        route += t_route.elapsed().as_nanos() as u64;
                    }
                    (route, cpu, frames)
                },
            );
            self.dispatch(&mut rm, sync_out);
        }

        // Phase 3: delivery waves until quiescence. The fabric draws its
        // faults and delivery order on this thread; each recipient then
        // absorbs its share of the wave, in delivery order, on exactly
        // one worker. Push-pull replies batch per absorbed frame and
        // ride the next wave. Frames to down nodes or across an active
        // partition are dropped.
        while !self.net.is_idle() {
            let n = self.nodes.len();
            let mut inboxes: Vec<Vec<(usize, BatchEnvelope<K>)>> = Vec::with_capacity(n);
            inboxes.resize_with(n, Vec::new);
            for (idx, delivery) in self.net.flush().into_iter().enumerate() {
                if !self.topo.link_open(delivery.from, delivery.to) {
                    self.undeliverable += 1;
                    if let Some(o) = &self.obs {
                        o.undeliverable.inc();
                    }
                    continue;
                }
                inboxes[delivery.to.index()].push((idx, delivery.msg));
            }
            let inboxes_ref = Mutex::new(inboxes);
            // Shard lookup and lazy engine construction are driver work,
            // metered apart from the `on_msg` callbacks — the same split
            // as phase 1.
            let replies: Vec<PhaseOutput<K>> = par_map(
                &mut self.nodes,
                threads,
                &mut self.pools,
                |i, shards, pool| {
                    let inbox = {
                        let mut guard = inboxes_ref.lock().expect("inbox lock");
                        std::mem::take(&mut guard[i])
                    };
                    let node = ReplicaId::from(i);
                    let (mut route, mut cpu) = (0u64, 0u64);
                    let mut frames = Vec::new();
                    for (idx, batch) in inbox {
                        let start = frames.len();
                        for (key, env) in batch.entries {
                            let t_route = Instant::now();
                            let engine = Self::engine_at(shards, &key, node, kind, &params, model);
                            route += t_route.elapsed().as_nanos() as u64;
                            let t0 = Instant::now();
                            let out = engine
                                .on_msg_pooled(env, pool)
                                .expect("uniform-protocol run cannot mismatch kinds");
                            cpu += t0.elapsed().as_nanos() as u64;
                            for reply in out {
                                coalesce(&mut frames, start, idx, key.clone(), reply);
                            }
                        }
                    }
                    (route, cpu, frames)
                },
            );
            self.dispatch(&mut rm, replies);
        }

        // Phase 4: memory snapshot over live nodes (a down process
        // occupies no memory, durable or not), in parallel. Object keys
        // are charged to CRDT bytes.
        let topo = &self.topo;
        let mems: Vec<(u64, u64, u64, u64)> =
            par_map(&mut self.nodes, threads, &mut self.pools, |i, shards, _| {
                if !topo.is_alive(ReplicaId::from(i)) {
                    return (0, 0, 0, 0);
                }
                let mut acc = (0, 0, 0, 0);
                for (key, engine) in shards.iter() {
                    let m = engine.memory();
                    acc.0 += m.crdt_elements;
                    acc.1 += m.crdt_bytes + key.payload_bytes(&model);
                    acc.2 += m.meta_elements;
                    acc.3 += m.meta_bytes;
                }
                acc
            });
        for (ce, cb, me, mb) in mems {
            rm.memory.crdt_elements += ce;
            rm.memory.crdt_bytes += cb;
            rm.memory.meta_elements += me;
            rm.memory.meta_bytes += mb;
        }

        if let Some(o) = &self.obs {
            o.rounds.inc();
            o.obs.trace(
                crdt_obs::CLUSTER_NODE,
                EventKind::SyncRoundEnd,
                self.round as u64,
                rm.messages,
            );
        }
        self.metrics.push_round(rm);
        self.round += 1;
        self.net.advance_round();
    }

    /// Run one round whose ops `draw(node, round)` produces. Ops are
    /// drawn on the driver thread, in node order, for **live** nodes
    /// only — workloads are stateful generators; their op streams must
    /// not depend on thread interleaving. Draw time is driver overhead
    /// (`workload_nanos`), not protocol CPU.
    pub fn step_with(&mut self, draw: &mut impl FnMut(ReplicaId, usize) -> Vec<KeyedOp<K, C>>) {
        let t_draw = Instant::now();
        let ops: Vec<Vec<KeyedOp<K, C>>> = self
            .topo
            .base()
            .nodes()
            .map(|node| {
                if self.topo.is_alive(node) {
                    draw(node, self.round)
                } else {
                    Vec::new()
                }
            })
            .collect();
        let drawn = t_draw.elapsed().as_nanos() as u64;
        self.step(&ops);
        if let Some(rm) = self.metrics.rounds.last_mut() {
            rm.workload_nanos += drawn;
        }
    }

    /// Have all **live** replicas of every object reached the same state?
    /// (Key sets must match: missing key = `⊥` ≠ non-`⊥`.)
    pub fn converged(&self) -> bool {
        let alive = self.topo.alive_nodes();
        let Some((&first, rest)) = alive.split_first() else {
            return true;
        };
        let reference = &self.nodes[first.index()];
        rest.iter().all(|&id| {
            let node = &self.nodes[id.index()];
            node.len() == reference.len()
                && node
                    .iter()
                    .zip(reference.iter())
                    .all(|((k1, e1), (k2, e2))| k1 == k2 && e1.state_eq(e2.as_ref()))
        })
    }

    /// After the workload ends, keep synchronizing (no new ops) until all
    /// live replicas agree: at most `max_rounds` idle rounds, `Some(extra)`
    /// iff they agree after `extra ≤ max_rounds` of them — the contract of
    /// [`crate::Runner::run_to_convergence`].
    pub fn run_to_convergence(&mut self, max_rounds: usize) -> Option<usize> {
        drive_to_convergence(self, max_rounds, Self::converged, |r| r.step(&[]))
    }

    // -----------------------------------------------------------------
    // Fault & membership control — node-level, across all objects
    // -----------------------------------------------------------------

    /// Apply one scenario event at node granularity, with the scenario
    /// layer's repair policy: kinds that
    /// [`ProtocolKind::recovers_from_loss`] are left to their own
    /// metadata; everything else is stitched back at the disruption
    /// boundary through [`ShardedEngineRunner::repair_pair`], per object.
    pub fn apply_event(&mut self, event: &ScenarioEvent) {
        match event {
            ScenarioEvent::Partition { groups } => self.set_partition(groups),
            ScenarioEvent::Heal => self.heal_partition(),
            ScenarioEvent::Crash { node, durable } => {
                self.crash_node(ReplicaId::from(*node), *durable);
            }
            ScenarioEvent::Restart { node } => {
                let id = ReplicaId::from(*node);
                self.restart_node(id, None);
                // Durable restart of a loss-recovering protocol needs no
                // help; everything else is stitched back via a live peer:
                // the first reachable neighbor, else any other live node.
                if self.durability[*node] && self.kind.recovers_from_loss() {
                    return;
                }
                let peer = (self.topo.reachable_neighbors(id).into_iter().next())
                    .or_else(|| self.topo.alive_nodes().into_iter().find(|&p| p != id));
                if let Some(peer) = peer {
                    self.repair_pair(id, peer);
                }
            }
            ScenarioEvent::Join { links, bootstrap } => {
                let links: Vec<ReplicaId> = links.iter().map(|&l| ReplicaId::from(l)).collect();
                self.join_node(&links, Some(ReplicaId::from(*bootstrap)));
            }
            ScenarioEvent::LinkFault { a, b, fault } => {
                self.set_edge_fault(ReplicaId::from(*a), ReplicaId::from(*b), *fault);
            }
            ScenarioEvent::LinkHeal { a, b } => {
                let (a, b) = (ReplicaId::from(*a), ReplicaId::from(*b));
                self.clear_edge_fault(a, b);
                if !self.kind.recovers_from_loss() {
                    self.repair_pair(a, b);
                }
            }
        }
    }

    /// Crash `node`: while down it executes no phases and every frame
    /// addressed to it is discarded. `durable: true` models a process
    /// crash with intact storage; `durable: false` wipes its entire
    /// keyspace — a cold restart starts from `⊥` and should be pointed at
    /// a live peer via [`ShardedEngineRunner::restart_node`]'s
    /// `bootstrap`.
    pub fn crash_node(&mut self, node: ReplicaId, durable: bool) {
        self.topo.set_alive(node, false);
        self.durability[node.index()] = durable;
        if !durable {
            self.nodes[node.index()] =
                Self::fresh_keyspace(node, self.kind, &self.params, self.model);
        }
        if let Some(o) = &self.obs {
            o.obs.trace(
                node.index() as u64,
                EventKind::Crash,
                node.index() as u64,
                durable as u64,
            );
        }
    }

    /// Bring a crashed `node` back; with `bootstrap = Some(peer)` the
    /// pair repairs every object (both directions — a durable restart
    /// may hold novelty the cluster lost track of), charged to
    /// [`ShardedEngineRunner::repair_stats`].
    pub fn restart_node(&mut self, node: ReplicaId, bootstrap: Option<ReplicaId>) {
        self.topo.set_alive(node, true);
        if let Some(o) = &self.obs {
            o.obs.trace(
                node.index() as u64,
                EventKind::Restart,
                node.index() as u64,
                bootstrap.is_some() as u64,
            );
        }
        if let Some(peer) = bootstrap {
            self.repair_pair(node, peer);
        }
    }

    /// Grow the cluster by one node linked to `links`, with a fresh
    /// keyspace, bootstrapped per object from `bootstrap` when given.
    /// Returns the joiner's id.
    pub fn join_node(&mut self, links: &[ReplicaId], bootstrap: Option<ReplicaId>) -> ReplicaId {
        let new = self.topo.join(links);
        self.params.n_nodes = self.topo.len();
        self.metrics.n_nodes = self.topo.len();
        self.durability.push(true);
        // Existing engines must learn the new size *before* the joiner is
        // heard from: Scuttlebutt-GC's safe-delete rule would otherwise
        // prune deltas the joiner has not seen, beyond recovery.
        for shards in &mut self.nodes {
            for engine in shards.values_mut() {
                engine.set_system_size(self.params.n_nodes);
            }
        }
        self.nodes.push(Self::fresh_keyspace(
            new,
            self.kind,
            &self.params,
            self.model,
        ));
        if let Some(peer) = bootstrap {
            self.repair_pair(new, peer);
        }
        new
    }

    /// Install a partition (each entry of `groups` is one side; unlisted
    /// nodes form the implicit last side). Cross-side traffic is
    /// discarded until [`ShardedEngineRunner::heal_partition`].
    pub fn set_partition(&mut self, groups: &[Vec<usize>]) {
        self.topo.set_partition(groups);
        if let Some(o) = &self.obs {
            o.obs.trace(
                crdt_obs::CLUSTER_NODE,
                EventKind::Partition,
                1,
                groups.len() as u64,
            );
        }
    }

    /// Heal the active partition and stitch the sides back together: the
    /// lowest live representative of each side pairwise-repairs with the
    /// first side's representative (two passes, so every side sees every
    /// other side's novelty), using [`ShardedEngineRunner::repair_pair`].
    ///
    /// Kinds that [`ProtocolKind::recovers_from_loss`] get no repair —
    /// their own metadata re-requests or retransmits what the cut
    /// swallowed, which is exactly the property the scenario experiments
    /// measure.
    pub fn heal_partition(&mut self) {
        let reps = self.topo.side_representatives();
        self.topo.clear_partition();
        if let Some(o) = &self.obs {
            o.obs.trace(
                crdt_obs::CLUSTER_NODE,
                EventKind::Partition,
                0,
                reps.len() as u64,
            );
        }
        if reps.len() < 2 || self.kind.recovers_from_loss() {
            return;
        }
        // δ-group kinds repair one representative per side: the injected
        // novelty re-enters their buffers and propagates to the rest of
        // each side over ordinary rounds. The op-based middleware cannot
        // re-ship a state join as operations, so every live node must be
        // reconciled directly — the honest (and expensive) price of
        // partition recovery without join semantics.
        let peers: Vec<ReplicaId> = if self.kind.accepts_raw_delta() {
            reps[1..].to_vec()
        } else {
            self.topo
                .alive_nodes()
                .into_iter()
                .filter(|&n| n != reps[0])
                .collect()
        };
        // Gather into reps[0], then scatter back out. The second pass
        // re-ships only what the earlier peers are still missing —
        // digest-driven repair sends differences, not states.
        for _pass in 0..2 {
            for &peer in &peers {
                self.repair_pair(reps[0], peer);
            }
        }
    }

    /// Overlay a fault on both directions of the edge `a ↔ b`.
    pub fn set_edge_fault(&mut self, a: ReplicaId, b: ReplicaId, fault: LinkFault) {
        self.net.set_link_fault(a, b, fault);
        self.net.set_link_fault(b, a, fault);
    }

    /// Clear any fault overlay from both directions of `a ↔ b`.
    pub fn clear_edge_fault(&mut self, a: ReplicaId, b: ReplicaId) {
        self.net.clear_link_fault(a, b);
        self.net.clear_link_fault(b, a);
    }

    /// Pairwise repair between two live replicas, per object — the §VI
    /// mechanism:
    ///
    /// * kinds whose wire message is a bare δ-group (the delta family and
    ///   `state`) run **digest-driven** repair per object — only the
    ///   join-irreducibles each side is missing cross the wire, injected
    ///   through the ordinary receive path so the novelty is re-buffered
    ///   and keeps propagating to other neighbors;
    /// * the remaining kinds (anti-entropy, op-based) adopt each other's
    ///   snapshot per object via [`SyncEngine::bootstrap_from`] — their
    ///   own recovery metadata (vectors, delivery clocks, ack state)
    ///   travels with it.
    ///
    /// Traffic is charged to [`ShardedEngineRunner::repair_stats`].
    pub fn repair_pair(&mut self, a: ReplicaId, b: ReplicaId) {
        assert_ne!(a, b, "repair needs two distinct replicas");
        if let Some(o) = &self.obs {
            o.repair.pairs.inc();
        }
        if self.kind.accepts_raw_delta() {
            let union: std::collections::BTreeSet<K> = self.nodes[a.index()]
                .keys()
                .chain(self.nodes[b.index()].keys())
                .cloned()
                .collect();
            // At scale, localize the divergence with a Merkle descent
            // first (O(log n · diverged) control frames, charged as
            // repair metadata) and run the per-object protocol over only
            // the diverged keys; small keyspaces keep the plain sweep,
            // whose accounting the scenario baselines pin.
            let keys: Vec<K> = if union.len() >= MERKLE_REPAIR_THRESHOLD {
                let tree = |node: &EngineMap<K>| {
                    MerkleTree::build(
                        DEFAULT_MERKLE_DEPTH,
                        node.iter().map(|(k, e)| (k.clone(), e.state_hash())),
                    )
                };
                let (diverged, descent) =
                    diff_keys(&tree(&self.nodes[a.index()]), &tree(&self.nodes[b.index()]));
                self.repair.messages += descent.frames as u32;
                self.repair.metadata_bytes += descent.total_bytes();
                if let Some(o) = &self.obs {
                    o.repair.charge(&descent);
                    o.obs.trace(
                        a.index() as u64,
                        EventKind::RepairHop,
                        descent.rounds,
                        descent.total_bytes(),
                    );
                }
                diverged.into_iter().collect()
            } else {
                union.into_iter().collect()
            };
            for key in keys {
                let (delta_for_a, delta_for_b, stats) = {
                    let bottom = C::bottom();
                    let xa = self.object_state(a, &key).unwrap_or(&bottom);
                    let xb = self.object_state(b, &key).unwrap_or(&bottom);
                    digest_repair_deltas(xa, xb, &self.model)
                };
                self.repair.messages += stats.messages;
                self.repair.payload_elements += stats.payload_elements;
                self.repair.payload_bytes += stats.payload_bytes;
                self.repair.metadata_bytes += stats.metadata_bytes;
                if !delta_for_a.is_bottom() {
                    self.inject_delta(b, a, &key, delta_for_a);
                }
                if !delta_for_b.is_bottom() {
                    self.inject_delta(a, b, &key, delta_for_b);
                }
            }
        } else {
            self.bootstrap_pair(a, b);
        }
    }

    /// Bidirectional out-of-band snapshot exchange between `a` and `b`,
    /// object by object (engines created at `⊥` for keys only one side
    /// holds). Each direction is one batched snapshot frame in the
    /// repair accounting. The lower-indexed replica adopts first,
    /// whichever way round the pair was named — so a joiner (always the
    /// highest index) receives its peer's snapshot *after* handing over
    /// its own `⊥`, instead of shipping the snapshot straight back.
    fn bootstrap_pair(&mut self, a: ReplicaId, b: ReplicaId) {
        assert_ne!(a, b, "bootstrap needs two distinct replicas");
        let (kind, params, model) = (self.kind, self.params, self.model);
        let (lo, hi) = (a.min(b), a.max(b));
        for dst in [lo, hi] {
            let (left, right) = self.nodes.split_at_mut(hi.index());
            let (dst_map, src_map) = if dst == lo {
                (&mut left[lo.index()], &right[0])
            } else {
                (&mut right[0], &left[lo.index()])
            };
            if src_map.is_empty() {
                continue;
            }
            self.repair.messages += 1;
            for (key, source) in src_map {
                let acc = Self::engine_at(dst_map, key, dst, kind, &params, model)
                    .bootstrap_from(source.as_ref())
                    .expect("uniform-protocol run cannot mismatch kinds");
                self.repair.payload_elements += acc.payload_elements;
                self.repair.payload_bytes += acc.payload_bytes;
            }
        }
    }

    /// Feed a repaired δ-group for `key` into `to`'s engine as if `from`
    /// had sent it, through the ordinary receive path.
    fn inject_delta(&mut self, from: ReplicaId, to: ReplicaId, key: &K, delta: C) {
        let msg = DeltaMsg(delta);
        let payload = msg.to_bytes();
        let accounting = WireAccounting {
            payload_elements: msg.payload_elements(),
            payload_bytes: msg.payload_bytes(&self.model),
            metadata_bytes: msg.metadata_bytes(&self.model),
            encoded_bytes: payload.len() as u64,
        };
        let env = WireEnvelope {
            from,
            to,
            kind: self.kind,
            payload: payload.into(),
            accounting,
        };
        let (kind, params, model) = (self.kind, self.params, self.model);
        if self.pools.is_empty() {
            self.pools.push(BufferPool::new());
        }
        let pool = &mut self.pools[0];
        let replies = Self::engine_at(&mut self.nodes[to.index()], key, to, kind, &params, model)
            .on_msg_pooled(env, pool)
            .expect("raw delta injection matches the configured protocol");
        debug_assert!(replies.is_empty(), "delta-family kinds never reply");
    }
}

impl<C> ShardedEngineRunner<(), C>
where
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + Sync + 'static,
{
    /// Run `rounds` rounds of a single-object `workload` +
    /// synchronization.
    pub fn run(&mut self, workload: &mut impl Workload<C>, rounds: usize) {
        for _ in 0..rounds {
            self.step_with(&mut |node, round| {
                let ops = workload.ops(node, round);
                ops.into_iter().map(|op| ((), op)).collect()
            });
        }
    }
}

/// The erased mirror of [`crate::run_experiment`]: run `kind` at
/// single-object granularity over `topology` with `workload` for
/// `rounds` rounds, then drive to convergence; panic if the replicas do
/// not converge.
pub fn run_engine_experiment<C>(
    kind: ProtocolKind,
    topology: Topology,
    net_cfg: NetworkConfig,
    model: SizeModel,
    workload: &mut impl Workload<C>,
    rounds: usize,
) -> RunMetrics
where
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + Sync + 'static,
{
    let mut runner: ShardedEngineRunner<(), C> =
        ShardedEngineRunner::new(kind, topology, net_cfg, model, 1);
    runner.run(workload, rounds);
    let diameter_slack = runner.topology().diameter() * 4 + 16;
    runner
        .run_to_convergence(diameter_slack)
        .unwrap_or_else(|| {
            panic!(
                "{} did not converge within {} extra rounds",
                kind, diameter_slack
            )
        });
    runner.into_metrics()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_experiment;
    use crdt_sync::{BpRrDelta, ClassicDelta};
    use crdt_types::{GSet, GSetOp};

    type R = ShardedEngineRunner<u32, GSet<u64>>;
    type Single = ShardedEngineRunner<(), GSet<u64>>;
    type RoundOps = Vec<Vec<KeyedOp<u32, GSet<u64>>>>;

    const MODEL: SizeModel = SizeModel::compact();

    fn sharded(kind: ProtocolKind, topology: Topology, threads: usize) -> R {
        ShardedEngineRunner::new(kind, topology, NetworkConfig::reliable(3), MODEL, threads)
    }

    fn single(kind: ProtocolKind, topology: Topology, params: Params) -> Single {
        ShardedEngineRunner::with_params(
            kind,
            topology,
            NetworkConfig::reliable(5),
            MODEL,
            1,
            params,
        )
    }

    fn keyed(n_nodes: usize, per_node: &[(usize, u32, u64)]) -> RoundOps {
        let mut out = vec![Vec::new(); n_nodes];
        for &(node, key, elem) in per_node {
            out[node].push((key, GSetOp::Add(elem)));
        }
        out
    }

    /// Every node adds one globally unique element to object `node % keys`.
    fn spread(n: usize, keys: usize, round: u64) -> RoundOps {
        (0..n)
            .map(|node| {
                vec![(
                    (node % keys) as u32,
                    GSetOp::Add(round * n as u64 + node as u64),
                )]
            })
            .collect()
    }

    fn unique_adds(n: usize) -> impl FnMut(ReplicaId, usize) -> Vec<GSetOp<u64>> {
        move |node: ReplicaId, round: usize| vec![GSetOp::Add((round * n + node.index()) as u64)]
    }

    #[test]
    fn every_kind_converges_at_object_granularity() {
        for kind in ProtocolKind::ALL {
            let mut r = sharded(kind, Topology::partial_mesh(6, 4), 3);
            for round in 0..4u64 {
                let ops: RoundOps = (0..6)
                    .map(|node| {
                        vec![
                            ((node % 3) as u32, GSetOp::Add(round * 6 + node as u64)),
                            (100, GSetOp::Add(round * 6 + node as u64)),
                        ]
                    })
                    .collect();
                r.step(&ops);
            }
            r.run_to_convergence(64)
                .unwrap_or_else(|| panic!("{kind} failed to converge"));
            assert_eq!(r.objects_at(ReplicaId(0)), 4, "{kind}");
            assert_eq!(
                r.object_state(ReplicaId(5), &100).unwrap().len(),
                24,
                "{kind} hot object lost elements"
            );
        }
    }

    /// The headline parity claim at runner level: identical schedule in,
    /// identical transmission accounting and final state out — at one
    /// object per node the erased driver *is* the generic reference,
    /// whatever the thread count.
    #[test]
    fn single_object_run_matches_generic_runner_exactly() {
        let n = 8;
        let rounds = 5;
        let topo = || Topology::partial_mesh(n, 4);
        let net = NetworkConfig::reliable(7);
        for (kind, generic) in [
            (
                ProtocolKind::Classic,
                run_experiment::<GSet<u64>, ClassicDelta<GSet<u64>>>(
                    topo(),
                    net,
                    MODEL,
                    &mut unique_adds(n),
                    rounds,
                ),
            ),
            (
                ProtocolKind::BpRr,
                run_experiment::<GSet<u64>, BpRrDelta<GSet<u64>>>(
                    topo(),
                    net,
                    MODEL,
                    &mut unique_adds(n),
                    rounds,
                ),
            ),
        ] {
            for threads in [1, 4] {
                let mut erased: Single =
                    ShardedEngineRunner::new(kind, topo(), net, MODEL, threads);
                erased.run(&mut unique_adds(n), rounds);
                erased.run_to_convergence(64).expect("converges");
                let state = erased.object_state(ReplicaId(0), &()).unwrap();
                assert_eq!(state.len(), n * rounds, "{kind} lost elements");
                let m = erased.metrics();
                assert_eq!(m.total_elements(), generic.total_elements(), "{kind}");
                assert_eq!(m.total_bytes(), generic.total_bytes(), "{kind}");
                assert_eq!(m.total_messages(), generic.total_messages(), "{kind}");
                assert!(m.total_critical_path_nanos() > 0);
                assert!(
                    m.total_critical_path_nanos() <= m.total_cpu_nanos(),
                    "critical path must never exceed summed work"
                );
            }
        }
    }

    #[test]
    fn batching_sends_one_frame_per_link_regardless_of_object_count() {
        // 4-node full mesh, every node updates 50 distinct objects: the
        // round must emit 4 × 3 = 12 frames, not 600 envelopes' worth.
        let mut r = sharded(ProtocolKind::BpRr, Topology::full_mesh(4), 2);
        let ops: RoundOps = (0..4)
            .map(|node| {
                (0..50)
                    .map(|k| (k as u32, GSetOp::Add((node * 50 + k) as u64)))
                    .collect()
            })
            .collect();
        r.step(&ops);
        let round = &r.metrics().rounds[0];
        assert_eq!(round.messages, 12, "one frame per directed link");
        assert_eq!(round.envelopes, 4 * 3 * 50, "every object still ships");
        assert!(r.metrics().batch_amortization() > 40.0);
    }

    #[test]
    fn thread_count_does_not_change_accounting() {
        let run = |threads: usize| {
            let mut r = sharded(
                ProtocolKind::Scuttlebutt,
                Topology::partial_mesh(9, 4),
                threads,
            );
            for round in 0..5 {
                r.step(&spread(9, 4, round));
            }
            r.run_to_convergence(64).expect("converges");
            let m = r.metrics();
            (
                m.total_elements(),
                m.total_bytes(),
                m.total_messages(),
                m.total_envelopes(),
                r.object_state(ReplicaId(0), &0).unwrap().clone(),
            )
        };
        let one = run(1);
        assert_eq!(one, run(4));
        assert_eq!(one, run(16));
    }

    /// The one `run_to_convergence` contract, at its boundary, for both
    /// drivers: an element added at one end of a line needs one round per
    /// hop, so the far end agrees exactly on the last permitted step of a
    /// budget equal to the distance — and one step short is `None`.
    #[test]
    fn run_to_convergence_boundary() {
        let n = 5;
        let one_add = |node: ReplicaId, round: usize| match (node.index(), round) {
            (0, 0) => vec![GSetOp::Add(7u64)],
            _ => Vec::new(),
        };
        let generic = |budget: usize| {
            let mut r: crate::Runner<GSet<u64>, BpRrDelta<GSet<u64>>> =
                crate::Runner::new(Topology::line(n), NetworkConfig::reliable(0), MODEL);
            r.run(&mut { one_add }, 1);
            (r.run_to_convergence(budget), r.metrics().rounds.len())
        };
        let erased = |budget: usize| {
            let mut r = single(ProtocolKind::BpRr, Topology::line(n), Params::new(n));
            r.run(&mut { one_add }, 1);
            (r.run_to_convergence(budget), r.metrics().rounds.len())
        };
        let needed = generic(64).0.expect("a line converges");
        assert_eq!(needed, n - 2, "round 0 covered the first hop");
        for run in [&generic as &dyn Fn(usize) -> _, &erased] {
            assert_eq!(run(needed), (Some(needed), 1 + needed));
            assert_eq!(
                run(needed - 1),
                (None, needed),
                "at most `budget` idle steps"
            );
            assert_eq!(run(64).0, Some(needed));
        }
    }

    #[test]
    fn fan_out_cap_still_converges_for_anti_entropy() {
        // Scuttlebutt keeps its key-delta store (nothing is cleared on
        // sync), so gossiping to one rotating peer per round is a valid
        // anti-entropy deployment — the scenario `fan_out` models.
        let n = 8;
        let mut runner = single(
            ProtocolKind::Scuttlebutt,
            Topology::full_mesh(n),
            Params::new(n).fan_out(1),
        );
        runner.run(&mut unique_adds(n), 3);
        runner
            .run_to_convergence(64)
            .expect("capped fan-out converges");
        assert_eq!(runner.object_state(ReplicaId(0), &()).unwrap().len(), n * 3);
    }

    #[test]
    fn fan_out_with_sync_interval_still_addresses_every_neighbor() {
        // Regression: the rotating window must advance by sync *step*, not
        // raw round — otherwise interval 2 over an even neighbor count
        // would address the same neighbor indices forever.
        let n = 5; // full mesh → 4 neighbors, sharing factor 2 with the interval
        let mut runner = single(
            ProtocolKind::Scuttlebutt,
            Topology::full_mesh(n),
            Params::new(n).fan_out(1).sync_interval(2),
        );
        runner.run(&mut unique_adds(n), 2);
        runner
            .run_to_convergence(64)
            .expect("window rotation reaches all neighbors");
        assert_eq!(runner.object_state(ReplicaId(0), &()).unwrap().len(), n * 2);
    }

    #[test]
    fn fan_out_cap_limits_messages_per_round() {
        let n = 8;
        let mut capped = single(
            ProtocolKind::BpRr,
            Topology::full_mesh(n),
            Params::new(n).fan_out(2),
        );
        capped.run(&mut unique_adds(n), 1);
        // Each node addressed exactly 2 of its 7 neighbors.
        assert_eq!(capped.metrics().rounds[0].messages, (n * 2) as u64);
    }

    #[test]
    fn sync_interval_batches_rounds() {
        let n = 4;
        let mut runner = single(
            ProtocolKind::BpRr,
            Topology::full_mesh(n),
            Params::new(n).sync_interval(2),
        );
        runner.run(&mut unique_adds(n), 4);
        // Rounds 1 and 3 are off rounds: no messages recorded.
        let per_round: Vec<u64> = runner.metrics().rounds.iter().map(|r| r.messages).collect();
        assert_eq!(per_round[1], 0);
        assert_eq!(per_round[3], 0);
        assert!(per_round[0] > 0 && per_round[2] > 0);
        runner.run_to_convergence(16).expect("still converges");
    }

    #[test]
    fn partition_heal_repairs_every_object() {
        let mut r = sharded(ProtocolKind::BpRr, Topology::full_mesh(4), 2);
        for round in 0..8 {
            match round {
                2 => r.apply_event(&ScenarioEvent::Partition {
                    groups: vec![vec![0, 1]],
                }),
                6 => r.apply_event(&ScenarioEvent::Heal),
                _ => {}
            }
            r.step(&spread(4, 2, round));
        }
        assert!(r.undeliverable() > 0, "cross-cut frames were dropped");
        assert!(
            r.repair_stats().payload_elements > 0,
            "heal repaired objects"
        );
        r.run_to_convergence(32).expect("re-converges");
    }

    #[test]
    fn link_fault_drops_frames_until_the_heal_repairs_the_pair() {
        // A severed edge on a line cuts the cluster in two at object
        // granularity; Algorithm 1 cleared its buffers into the void, so
        // only the LinkHeal's pairwise repair restores agreement.
        let mut r = sharded(ProtocolKind::BpRr, Topology::line(3), 2);
        r.apply_event(&ScenarioEvent::LinkFault {
            a: 0,
            b: 1,
            fault: LinkFault::BLOCKED,
        });
        r.step(&keyed(3, &[(0, 1, 10), (2, 2, 20)]));
        assert!(r.undeliverable() > 0, "the fabric dropped the faulted link");
        assert!(r.run_to_convergence(8).is_none(), "lost deltas stay lost");
        r.apply_event(&ScenarioEvent::LinkHeal { a: 0, b: 1 });
        assert!(r.repair_stats().payload_elements > 0);
        r.run_to_convergence(8).expect("heal re-converges");
        assert!(r.object_state(ReplicaId(0), &2).unwrap().contains(&20));
    }

    #[test]
    fn non_durable_crash_restart_rebuilds_the_keyspace() {
        for kind in [
            ProtocolKind::BpRr,
            ProtocolKind::Scuttlebutt,
            ProtocolKind::OpBased,
        ] {
            let mut r = sharded(kind, Topology::full_mesh(4), 2);
            r.step(&keyed(4, &[(0, 1, 10), (1, 2, 20), (2, 3, 30)]));
            r.run_to_convergence(16).expect("warm-up");
            r.crash_node(ReplicaId(3), false);
            assert_eq!(r.objects_at(ReplicaId(3)), 0, "{kind}: cold crash wipes");
            r.step(&keyed(4, &[(0, 1, 11)]));
            r.restart_node(ReplicaId(3), Some(ReplicaId(0)));
            r.run_to_convergence(32)
                .unwrap_or_else(|| panic!("{kind} did not re-converge"));
            assert_eq!(r.objects_at(ReplicaId(3)), 3, "{kind}: keyspace restored");
        }
    }

    #[test]
    fn join_bootstraps_all_objects() {
        let mut r = sharded(ProtocolKind::BpRr, Topology::full_mesh(3), 2);
        r.step(&keyed(3, &[(0, 1, 1), (1, 2, 2)]));
        r.run_to_convergence(16).expect("warm-up");
        let new = r.join_node(&[ReplicaId(0), ReplicaId(2)], Some(ReplicaId(1)));
        assert_eq!(new, ReplicaId(3));
        assert_eq!(r.objects_at(new), 2, "joiner got the whole keyspace");
        let ops = keyed(4, &[(3, 2, 99)]);
        r.step(&ops);
        r.run_to_convergence(16).expect("joiner participates");
        assert!(r.object_state(ReplicaId(0), &2).unwrap().contains(&99));
    }

    /// Regression: the two bootstrap directions run lower index first,
    /// not joiner first — a joiner that adopted its peer's snapshot
    /// *before* answering would ship it straight back (144 instead of the
    /// 72 repair elements `BENCH_scenarios.json` pins for
    /// `churn`/scuttlebutt).
    #[test]
    fn single_object_join_ships_the_snapshot_once() {
        let n = 4;
        let mut r = single(
            ProtocolKind::Scuttlebutt,
            Topology::full_mesh(n),
            Params::new(n),
        );
        r.run(&mut unique_adds(n), 3);
        r.run_to_convergence(16).expect("warm-up");
        let new = r.join_node(&[ReplicaId(0), ReplicaId(3)], Some(ReplicaId(0)));
        assert_eq!(r.objects_at(new), 1, "the unit keyspace is born populated");
        assert_eq!(r.repair_stats().messages, 2, "one frame per direction");
        assert_eq!(
            r.repair_stats().payload_elements,
            (n * 3) as u64,
            "peer → joiner only; the joiner had nothing to give"
        );
        assert!(r.converged());
    }

    #[test]
    fn mid_trace_join_runs_with_a_shorter_trace() {
        // A Join mid-run grows the cluster past the materialized trace's
        // node count; later rounds must still run (the joiner executes no
        // workload ops, but synchronizes).
        let mut r = sharded(ProtocolKind::BpRr, Topology::full_mesh(3), 2);
        for round in 0..6 {
            if round == 3 {
                r.apply_event(&ScenarioEvent::Join {
                    links: vec![0, 2],
                    bootstrap: 0,
                });
            }
            r.step(&spread(3, 3, round));
        }
        r.run_to_convergence(16).expect("grown cluster converges");
        assert_eq!(r.membership().len(), 4);
        assert_eq!(r.objects_at(ReplicaId(3)), 3, "joiner caught up");
    }
}
