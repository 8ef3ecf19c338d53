//! Shape assertions for every figure of the paper, at smoke scale:
//! who wins, roughly by how much, and where the crossovers fall. These are
//! the claims `all_experiments` prints at full scale (see its section in
//! ARCHITECTURE.md); here they gate CI.

use crdt_bench::{find, run_suite, Suite};
use crdt_lattice::SizeModel;
use crdt_sim::{run_experiment, NetworkConfig, Topology};
use crdt_sync::{AckedDeltaSync, OpBased, ProtocolKind, Scuttlebutt, ScuttlebuttGc};
use crdt_types::{GCounter, GSet};
use crdt_workloads::{
    GCounterWorkload, GMapCrdt, GMapWorkload, GSetWorkload, RetwisConfig, RetwisTrace,
};

const MODEL: SizeModel = SizeModel::compact();
const N: usize = 15;
const EVENTS: usize = 20;

fn mesh() -> Topology {
    Topology::partial_mesh(N, 4)
}

fn tree() -> Topology {
    Topology::binary_tree(N)
}

fn gset_runs(topo: &Topology) -> Vec<crdt_bench::Run> {
    run_suite::<GSet<u64>, _>(Suite::Full, topo, 1, MODEL, EVENTS, || {
        GSetWorkload::with_events(N, EVENTS)
    })
}

/// Fig. 1: classic delta ≈ state-based on a cyclic mesh with updates
/// every round.
#[test]
fn fig1_classic_delta_no_better_than_state() {
    let runs = gset_runs(&mesh());
    let classic = find(&runs, "delta").metrics.total_elements() as f64;
    let state = find(&runs, "state").metrics.total_elements() as f64;
    let ratio = classic / state;
    assert!(
        ratio > 0.6,
        "classic delta should be in the state-based ballpark (got {ratio:.2})"
    );
}

/// Fig. 7 (tree): an acyclic topology makes BP alone match BP+RR.
#[test]
fn fig7_tree_bp_suffices() {
    let runs = gset_runs(&tree());
    let bp = find(&runs, "delta+BP").metrics.total_elements();
    let bprr = find(&runs, "delta+BP+RR").metrics.total_elements();
    assert_eq!(bp, bprr, "no cycles ⇒ nothing for RR to remove");
    // And both crush classic.
    let classic = find(&runs, "delta").metrics.total_elements();
    assert!(classic > bprr * 2);
}

/// Fig. 7 (mesh): with cycles, BP alone has little effect; RR is what
/// closes the gap.
#[test]
fn fig7_mesh_rr_is_crucial() {
    let runs = gset_runs(&mesh());
    let classic = find(&runs, "delta").metrics.total_elements();
    let bp = find(&runs, "delta+BP").metrics.total_elements();
    let rr = find(&runs, "delta+RR").metrics.total_elements();
    let bprr = find(&runs, "delta+BP+RR").metrics.total_elements();
    assert!(bprr <= rr && rr <= classic, "BP+RR ≤ RR ≤ classic");
    assert!(bprr <= bp && bp <= classic, "BP+RR ≤ BP ≤ classic");
    // BP alone keeps most of the redundancy; RR removes the bulk of it.
    let bp_gain = classic - bp;
    let rr_gain = classic - rr;
    assert!(
        rr_gain > bp_gain,
        "on a mesh RR must contribute more than BP (rr_gain {rr_gain}, bp_gain {bp_gain})"
    );
    assert!(classic > bprr * 2, "BP+RR must be a large win on the mesh");
}

/// Fig. 7 (GSet): in total transmitted bytes (payload + metadata, as the
/// paper compares), Scuttlebutt variants and op-based beat classic delta
/// once the state has grown, but lose to BP+RR.
#[test]
fn fig7_gset_vector_protocols_beat_classic() {
    // Longer run than the other smoke tests: classic/state grow
    // quadratically while the vector protocols stay linear, and the paper
    // observes the crossover on a 100-event run.
    let events = 60;
    let runs = run_suite::<GSet<u64>, _>(Suite::Full, &mesh(), 1, MODEL, events, || {
        GSetWorkload::with_events(N, events)
    });
    let classic = find(&runs, "delta").metrics.total_bytes();
    let bprr = find(&runs, "delta+BP+RR").metrics.total_bytes();
    for name in ["scuttlebutt", "op-based"] {
        let v = find(&runs, name).metrics.total_bytes();
        assert!(
            v < classic,
            "{name} must beat classic delta on GSet ({v} vs {classic})"
        );
        assert!(
            v > bprr,
            "{name} must not beat BP+RR on GSet ({v} vs {bprr})"
        );
    }
}

/// Fig. 7 (GCounter): Scuttlebutt/op-based cannot compress counter
/// updates and behave *worse* than state-based.
#[test]
fn fig7_gcounter_vector_protocols_degenerate() {
    let runs = run_suite::<GCounter, _>(Suite::Full, &mesh(), 1, MODEL, EVENTS, || {
        GCounterWorkload::with_events(EVENTS)
    });
    let state = find(&runs, "state").metrics.total_bytes();
    for name in ["scuttlebutt", "scuttlebutt-gc", "op-based"] {
        let v = find(&runs, name).metrics.total_bytes();
        assert!(
            v > state,
            "{name} ships opaque increments plus vector metadata and must exceed \
             state-based in bytes ({v} vs {state})"
        );
    }
    // BP+RR still wins overall.
    let bprr = find(&runs, "delta+BP+RR").metrics.total_bytes();
    assert!(bprr <= state);
}

/// Fig. 8: the GMap K% sweep keeps the same ordering, and at K = 100%
/// (every key updated between syncs) delta-based gains shrink.
#[test]
fn fig8_gmap_sweep_shapes() {
    let keys = 100;
    for percent in [10, 100] {
        let runs = run_suite::<GMapCrdt, _>(Suite::Full, &mesh(), 1, MODEL, EVENTS, || {
            GMapWorkload::custom(N, percent, keys, EVENTS)
        });
        let classic = find(&runs, "delta").metrics.total_elements();
        let bprr = find(&runs, "delta+BP+RR").metrics.total_elements();
        assert!(bprr < classic, "K={percent}%");
    }
    // Relative gain of BP+RR over state shrinks as K grows.
    let gain = |percent: usize| {
        let runs = run_suite::<GMapCrdt, _>(Suite::Full, &mesh(), 1, MODEL, EVENTS, || {
            GMapWorkload::custom(N, percent, keys, EVENTS)
        });
        let state = find(&runs, "state").metrics.total_elements() as f64;
        let bprr = find(&runs, "delta+BP+RR").metrics.total_elements() as f64;
        state / bprr
    };
    let gain10 = gain(10);
    let gain100 = gain(100);
    assert!(
        gain10 > gain100,
        "delta advantage must shrink at GMap 100% (gain10 {gain10:.2}, gain100 {gain100:.2})"
    );
}

/// Fig. 9: metadata ordering — delta ≪ scuttlebutt < op-based <
/// scuttlebutt-GC, and metadata dominates the vector-based protocols.
#[test]
fn fig9_metadata_ordering() {
    let model = SizeModel::paper_metadata();
    let n = 16;
    let rounds = 10;
    let topo = Topology::partial_mesh(n, 4);
    let net = NetworkConfig::reliable(1);
    macro_rules! run {
        ($p:ty) => {{
            let mut w = GSetWorkload::with_events(n, rounds);
            run_experiment::<GSet<u64>, $p>(topo.clone(), net, model, &mut w, rounds)
        }};
    }
    let sb = run!(Scuttlebutt<GSet<u64>>);
    let sbgc = run!(ScuttlebuttGc<GSet<u64>>);
    let ob = run!(OpBased<GSet<u64>>);
    let delta = run!(AckedDeltaSync<GSet<u64>>);

    assert!(delta.total_metadata_bytes() * 10 < sb.total_metadata_bytes());
    assert!(sb.total_metadata_bytes() < sbgc.total_metadata_bytes());
    assert!(
        sb.metadata_fraction() > 0.5,
        "scuttlebutt metadata dominates"
    );
    assert!(sbgc.metadata_fraction() > 0.9);
    assert!(ob.metadata_fraction() > 0.5);
    assert!(
        delta.metadata_fraction() < 0.25,
        "delta metadata stays small"
    );
}

/// Fig. 10: memory — state-based optimal; classic ≥ BP+RR; original
/// Scuttlebutt keeps growing while GC prunes.
#[test]
fn fig10_memory_ordering() {
    let runs = gset_runs(&mesh());
    let mem = |name: &str| find(&runs, name).metrics.avg_memory_elements_per_node();
    assert!(
        mem("state") <= mem("delta+BP+RR") + 1e-9,
        "state-based is the floor"
    );
    assert!(
        mem("delta") > mem("delta+BP+RR"),
        "classic buffers redundant groups"
    );
    assert!(mem("scuttlebutt") > mem("scuttlebutt-gc"), "GC must help");
}

/// Figs. 11–12: Retwis per-object sync — classic ≈ BP+RR at low Zipf,
/// blows up at high Zipf.
#[test]
fn fig11_retwis_contention_crossover() {
    let topo = Topology::partial_mesh(10, 4);
    let rounds = 8;
    let run = |zipf: f64, kind: ProtocolKind| {
        let trace = RetwisTrace::generate(
            RetwisConfig {
                n_users: 200,
                zipf,
                ops_per_node_per_round: 2,
                max_fanout: 10,
                seed: 42,
            },
            topo.len(),
            rounds,
        );
        let run = crdt_bench::retwis_sharded::run_retwis(&trace, kind, &topo, 1, 40);
        run.convergence_rounds.expect("every family converges");
        run.metrics().total_bytes()
    };
    let low = run(0.5, ProtocolKind::Classic) as f64 / run(0.5, ProtocolKind::BpRr) as f64;
    let high = run(1.5, ProtocolKind::Classic) as f64 / run(1.5, ProtocolKind::BpRr) as f64;
    assert!(
        low < 2.5,
        "low contention: classic must be near BP+RR (got {low:.2}x)"
    );
    assert!(
        high > low * 1.3,
        "high contention must widen the gap (low {low:.2}x, high {high:.2}x)"
    );
}

/// EXP-X2 (extension): the ∆-CRDT baseline of §VI [31]. A roomy log is
/// delta-quality; an under-provisioned log degrades toward state-based on
/// cyclic topologies via its full-state fallback.
#[test]
fn ext_deltacrdt_log_capacity_shapes() {
    use crdt_types::GSet;
    use crdt_workloads::GSetWorkload;
    let topo = mesh();
    let n = topo.len();
    let rounds = 12;
    let runs = crdt_bench::run_suite::<GSet<u64>, _>(
        crdt_bench::Suite::DeltaCrdtStudy,
        &topo,
        1,
        MODEL,
        rounds,
        || GSetWorkload::with_events(n, rounds),
    );
    let bytes = |name: &str| crdt_bench::find(&runs, name).metrics.total_bytes();
    let state = bytes("state");
    let bprr = bytes("delta+BP+RR");
    let roomy = bytes("deltacrdt");
    let small = bytes("deltacrdt-small");
    eprintln!("state={state} bprr={bprr} roomy={roomy} small={small}");
    // Roomy log: within a small factor of BP+RR, far below state-based.
    assert!(
        roomy < 3 * bprr,
        "roomy ∆-CRDT ({roomy}) should be ≲2x BP+RR ({bprr})"
    );
    assert!(
        roomy * 4 < state,
        "roomy ∆-CRDT must beat state-based clearly"
    );
    // Tiny log: the full-state fallback kicks in once per-neighbor lag
    // exceeds 4 entries, costing a clear multiple of the roomy log (the
    // gap widens with run length — 42x at the full scale of EXP-X2).
    assert!(
        small > 2 * roomy,
        "capacity is the decisive parameter ({small} vs {roomy})"
    );
    assert!(
        small * 3 > state,
        "tiny-log ∆-CRDT ({small}) trends toward state ({state})"
    );
}
