//! One function per paper artifact (figure/table), run by name through
//! the `all_experiments` bin — see the `all_experiments` section of
//! ARCHITECTURE.md for the names and what each reproduces.

use crdt_lattice::SizeModel;
use crdt_sim::{run_experiment, NetworkConfig, RunMetrics, Topology};
use crdt_sync::{AckedDeltaSync, OpBased, ProtocolKind, Scuttlebutt, ScuttlebuttGc};
use crdt_types::{GCounter, GSet};
use crdt_workloads::{
    GCounterWorkload, GMapCrdt, GMapWorkload, GSetWorkload, RetwisConfig, RetwisTrace,
    RetwisWorkload, TABLE1,
};

use crate::retwis_sharded::run_retwis;
use crate::{
    find, fmt_bytes, fmt_ratio, print_table, ratio, run_suite, transmission_ratio_rows, Run, Scale,
    Suite, TRANSMISSION_HEADERS,
};

const MODEL: SizeModel = SizeModel::compact();

fn mesh(scale: Scale) -> Topology {
    Topology::partial_mesh(scale.pick(15, 8), 4)
}

fn tree(scale: Scale) -> Topology {
    Topology::binary_tree(scale.pick(15, 7))
}

fn events(scale: Scale) -> usize {
    scale.pick(100, 10)
}

// ---------------------------------------------------------------------------
// Figure 1 — motivation: classic delta ≈ state-based, with CPU overhead
// ---------------------------------------------------------------------------

/// Fig. 1: 15-node partial mesh replicating an always-growing set.
/// Left plot: elements sent over time; right plot: CPU ratio vs
/// state-based.
pub fn fig1(scale: Scale) {
    let topo = mesh(scale);
    let n = topo.len();
    let rounds = events(scale);
    let runs = run_suite::<GSet<u64>, _>(Suite::DeltaFamily, &topo, 1, MODEL, rounds, || {
        GSetWorkload::with_events(n, rounds)
    });

    let state = find(&runs, "state");
    let classic = find(&runs, "delta");

    // Left plot: cumulative elements over time, sampled at 10 points.
    let series = |m: &RunMetrics| m.cumulative_elements();
    let s_state = series(&state.metrics);
    let s_classic = series(&classic.metrics);
    let points = 10.min(s_state.len());
    let mut rows = Vec::new();
    for p in 1..=points {
        let idx = p * s_state.len() / points - 1;
        rows.push(vec![
            format!("{}", idx + 1),
            s_state[idx].to_string(),
            s_classic
                .get(idx)
                .copied()
                .unwrap_or(*s_classic.last().unwrap())
                .to_string(),
        ]);
    }
    print_table(
        "Fig. 1 (left): cumulative elements sent, always-growing GSet, 15-node mesh",
        &["round", "state-based", "classic delta"],
        &rows,
    );

    // Right plot: CPU processing ratio w.r.t. state-based.
    let cpu_rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                fmt_ratio(ratio(
                    r.metrics.total_cpu_nanos(),
                    state.metrics.total_cpu_nanos(),
                )),
            ]
        })
        .collect();
    print_table(
        "Fig. 1 (right): CPU processing ratio w.r.t. state-based",
        &["protocol", "cpu ratio"],
        &cpu_rows,
    );

    let anomaly = ratio(
        classic.metrics.total_elements(),
        state.metrics.total_elements(),
    );
    println!(
        "\nshape check: classic-delta/state transmission ratio = {} (paper: ≈ 1, \"no better than state-based\")",
        fmt_ratio(anomaly)
    );
}

// ---------------------------------------------------------------------------
// Figure 7 — GSet & GCounter transmission, tree + mesh
// ---------------------------------------------------------------------------

/// Fig. 7: transmission of GSet and GCounter w.r.t. delta-based BP+RR on
/// tree and mesh topologies, all eight protocols.
pub fn fig7(scale: Scale) {
    for (topo_name, topo) in [("tree", tree(scale)), ("mesh", mesh(scale))] {
        let n = topo.len();
        let rounds = events(scale);

        let runs = run_suite::<GSet<u64>, _>(Suite::Full, &topo, 1, MODEL, rounds, || {
            GSetWorkload::with_events(n, rounds)
        });
        print_table(
            &format!("Fig. 7: GSet transmission, {topo_name} ({n} nodes)"),
            TRANSMISSION_HEADERS,
            &transmission_ratio_rows(&runs),
        );

        let runs = run_suite::<GCounter, _>(Suite::Full, &topo, 1, MODEL, rounds, || {
            GCounterWorkload::with_events(rounds)
        });
        print_table(
            &format!("Fig. 7: GCounter transmission, {topo_name} ({n} nodes)"),
            TRANSMISSION_HEADERS,
            &transmission_ratio_rows(&runs),
        );
    }
}

// ---------------------------------------------------------------------------
// Figure 8 — GMap K% transmission
// ---------------------------------------------------------------------------

/// Fig. 8: transmission of GMap 10%, 30%, 60% and 100% — tree and mesh.
pub fn fig8(scale: Scale) {
    let total_keys = scale.pick(1000, 100);
    for (topo_name, topo) in [("tree", tree(scale)), ("mesh", mesh(scale))] {
        let n = topo.len();
        let rounds = events(scale);
        for percent in [10, 30, 60, 100] {
            let runs = run_suite::<GMapCrdt, _>(Suite::Full, &topo, 1, MODEL, rounds, || {
                GMapWorkload::custom(n, percent, total_keys, rounds)
            });
            print_table(
                &format!("Fig. 8: GMap {percent}% transmission, {topo_name} ({n} nodes, {total_keys} keys)"),
                TRANSMISSION_HEADERS,
                &transmission_ratio_rows(&runs),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Figure 9 — metadata scaling with system size
// ---------------------------------------------------------------------------

/// Fig. 9: metadata per node vs number of nodes (20 B node ids), GSet on a
/// degree-4 mesh, plus the analytic model (Scuttlebutt `NP`,
/// Scuttlebutt-GC `N²P`, op-based `NPU`, delta-based `P`).
pub fn fig9(scale: Scale) {
    let model = SizeModel::paper_metadata();
    let sizes: &[usize] = &[8, 16, 24, 32];
    let rounds = scale.pick(30, 6);
    let degree = 4usize;

    let mut rows = Vec::new();
    for &n in sizes {
        let topo = Topology::partial_mesh(n, degree);
        let net = NetworkConfig::reliable(1);

        macro_rules! meta_per_node {
            ($p:ty) => {{
                let mut w = GSetWorkload::with_events(n, rounds);
                let m = run_experiment::<GSet<u64>, $p>(topo.clone(), net, model, &mut w, rounds);
                m.total_metadata_bytes() / n as u64
            }};
        }

        let sb = meta_per_node!(Scuttlebutt<GSet<u64>>);
        let sbgc = meta_per_node!(ScuttlebuttGc<GSet<u64>>);
        let ob = meta_per_node!(OpBased<GSet<u64>>);
        let delta = meta_per_node!(AckedDeltaSync<GSet<u64>>);
        rows.push(vec![
            n.to_string(),
            fmt_bytes(sb),
            fmt_bytes(sbgc),
            fmt_bytes(ob),
            fmt_bytes(delta),
        ]);
    }
    print_table(
        "Fig. 9: measured metadata per node over the run (20 B ids, degree-4 mesh, GSet)",
        &[
            "nodes",
            "scuttlebutt",
            "scuttlebutt-gc",
            "op-based",
            "delta (acked)",
        ],
        &rows,
    );

    // Analytic per-synchronization cost model from §V-B2.
    let entry = model.vector_entry_bytes();
    let u = 1u64; // one pending update per node per round in this workload
    let analytic: Vec<Vec<String>> = sizes
        .iter()
        .map(|&n| {
            let (n64, p) = (n as u64, degree as u64);
            vec![
                n.to_string(),
                fmt_bytes(n64 * p * entry),
                fmt_bytes(n64 * n64 * p * entry),
                fmt_bytes(n64 * p * u * entry),
                fmt_bytes(p * model.seq_bytes),
            ]
        })
        .collect();
    print_table(
        "Fig. 9 (model): per-sync metadata — NP / N²P / NPU / P vector entries",
        &[
            "nodes",
            "scuttlebutt",
            "scuttlebutt-gc",
            "op-based",
            "delta",
        ],
        &analytic,
    );

    // The §V-B2 headline: metadata share at the largest size.
    let n = *sizes.last().unwrap();
    let topo = Topology::partial_mesh(n, degree);
    let net = NetworkConfig::reliable(1);
    macro_rules! meta_frac {
        ($p:ty) => {{
            let mut w = GSetWorkload::with_events(n, rounds);
            let m = run_experiment::<GSet<u64>, $p>(topo.clone(), net, model, &mut w, rounds);
            m.metadata_fraction() * 100.0
        }};
    }
    println!(
        "\nmetadata as % of transmission at {n} nodes (paper: 75% / 99% / 97% vs 7.7%):\n  \
         scuttlebutt {:.1}%  scuttlebutt-gc {:.1}%  op-based {:.1}%  delta(acked) {:.1}%",
        meta_frac!(Scuttlebutt<GSet<u64>>),
        meta_frac!(ScuttlebuttGc<GSet<u64>>),
        meta_frac!(OpBased<GSet<u64>>),
        meta_frac!(AckedDeltaSync<GSet<u64>>)
    );
}

// ---------------------------------------------------------------------------
// Figure 10 — memory footprint
// ---------------------------------------------------------------------------

/// Fig. 10: average memory ratio w.r.t. BP+RR for GCounter, GSet,
/// GMap 10% and GMap 100% — mesh topology.
pub fn fig10(scale: Scale) {
    let topo = mesh(scale);
    let n = topo.len();
    let rounds = events(scale);
    let total_keys = scale.pick(1000, 100);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut add_rows = |workload: &str, runs: &[Run]| {
        let base = find(runs, "delta+BP+RR")
            .metrics
            .avg_memory_elements_per_node();
        for r in runs {
            let mine = r.metrics.avg_memory_elements_per_node();
            rows.push(vec![
                workload.to_string(),
                r.name.to_string(),
                format!("{mine:.1}"),
                format!("{:.2}", if base > 0.0 { mine / base } else { 1.0 }),
            ]);
        }
    };

    let runs = run_suite::<GCounter, _>(Suite::Full, &topo, 1, MODEL, rounds, || {
        GCounterWorkload::with_events(rounds)
    });
    add_rows("GCounter", &runs);

    let runs = run_suite::<GSet<u64>, _>(Suite::Full, &topo, 1, MODEL, rounds, || {
        GSetWorkload::with_events(n, rounds)
    });
    add_rows("GSet", &runs);

    for percent in [10, 100] {
        let runs = run_suite::<GMapCrdt, _>(Suite::Full, &topo, 1, MODEL, rounds, || {
            GMapWorkload::custom(n, percent, total_keys, rounds)
        });
        add_rows(&format!("GMap {percent}%"), &runs);
    }

    print_table(
        "Fig. 10: average memory (elements/node/round) and ratio w.r.t. BP+RR — mesh",
        &[
            "workload",
            "protocol",
            "avg elements/node",
            "ratio vs BP+RR",
        ],
        &rows,
    );
}

// ---------------------------------------------------------------------------
// Figures 11 & 12 — Retwis
// ---------------------------------------------------------------------------

/// One Zipf point of the Retwis sweep.
#[derive(Debug, Clone)]
pub struct ZipfPoint {
    /// Zipf coefficient.
    pub zipf: f64,
    /// Classic delta metrics.
    pub classic: RunMetrics,
    /// BP+RR metrics.
    pub bprr: RunMetrics,
}

/// Run one protocol over a Retwis trace at the granularity the paper
/// deploys (one CRDT per object, 30 K objects): [`run_retwis`]'s three
/// family runners, merged.
fn run_retwis_config(trace: &RetwisTrace, topo: &Topology, kind: ProtocolKind) -> RunMetrics {
    let run = run_retwis(trace, kind, topo, 1, topo.diameter() * 4 + 16);
    run.convergence_rounds
        .expect("every Retwis object family converges");
    run.metrics()
}

/// Run the §V-C Retwis sweep: classic vs BP+RR across Zipf coefficients,
/// per-object synchronization.
pub fn run_retwis_sweep(scale: Scale) -> Vec<ZipfPoint> {
    let topo = Topology::partial_mesh(scale.pick(50, 10), 4);
    let rounds = scale.pick(30, 8);
    let cfg_base = RetwisConfig {
        n_users: scale.pick(10_000, 300),
        ops_per_node_per_round: scale.pick(4, 2),
        max_fanout: scale.pick(50, 10),
        seed: 42,
        zipf: 0.0, // overwritten per point
    };

    [0.5, 0.75, 1.0, 1.25, 1.5]
        .into_iter()
        .map(|zipf| {
            let cfg = RetwisConfig { zipf, ..cfg_base };
            let trace = RetwisTrace::generate(cfg, topo.len(), rounds);
            ZipfPoint {
                zipf,
                classic: run_retwis_config(&trace, &topo, ProtocolKind::Classic),
                bprr: run_retwis_config(&trace, &topo, ProtocolKind::BpRr),
            }
        })
        .collect()
}

/// Fig. 11: Retwis transmission bandwidth (top) and average memory
/// (bottom) per node, classic vs BP+RR, first/second half of the run —
/// rendered from a [`run_retwis_sweep`] that Fig. 12 shares.
pub fn fig11_from(points: &[ZipfPoint]) {
    let mut tx_rows = Vec::new();
    let mut mem_rows = Vec::new();
    for p in points {
        let n = p.classic.n_nodes as u64;
        let halves = |m: &RunMetrics| {
            let mid = m.rounds.len() / 2;
            (m.slice(0..mid), m.slice(mid..m.rounds.len()))
        };
        let (c1, c2) = halves(&p.classic);
        let (b1, b2) = halves(&p.bprr);
        let per_node_round = |m: &RunMetrics| m.total_bytes() / (m.rounds.len().max(1) as u64) / n;
        tx_rows.push(vec![
            format!("{:.2}", p.zipf),
            fmt_bytes(per_node_round(&c1)),
            fmt_bytes(per_node_round(&b1)),
            fmt_bytes(per_node_round(&c2)),
            fmt_bytes(per_node_round(&b2)),
        ]);
        mem_rows.push(vec![
            format!("{:.2}", p.zipf),
            fmt_bytes(c1.avg_memory_bytes_per_node() as u64),
            fmt_bytes(b1.avg_memory_bytes_per_node() as u64),
            fmt_bytes(c2.avg_memory_bytes_per_node() as u64),
            fmt_bytes(b2.avg_memory_bytes_per_node() as u64),
        ]);
    }
    print_table(
        "Fig. 11 (top): Retwis transmission per node per round — first and second half",
        &[
            "zipf",
            "classic (1st)",
            "BP+RR (1st)",
            "classic (2nd)",
            "BP+RR (2nd)",
        ],
        &tx_rows,
    );
    print_table(
        "Fig. 11 (bottom): Retwis average memory per node — first and second half",
        &[
            "zipf",
            "classic (1st)",
            "BP+RR (1st)",
            "classic (2nd)",
            "BP+RR (2nd)",
        ],
        &mem_rows,
    );
}

/// Fig. 12: CPU overhead of classic delta w.r.t. BP+RR per Zipf
/// coefficient, from the same sweep as Fig. 11.
pub fn fig12_from(points: &[ZipfPoint]) {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let r = ratio(p.classic.total_cpu_nanos(), p.bprr.total_cpu_nanos());
            vec![
                format!("{:.2}", p.zipf),
                format!("{:.1} ms", p.classic.total_cpu_nanos() as f64 / 1e6),
                format!("{:.1} ms", p.bprr.total_cpu_nanos() as f64 / 1e6),
                format!("{:.2}x (overhead {:.1}x)", r, r - 1.0),
            ]
        })
        .collect();
    print_table(
        "Fig. 12: CPU time of classic delta vs BP+RR (Retwis; paper overheads: 0.4x/5.5x/7.9x at zipf 1/1.25/1.5)",
        &["zipf", "classic cpu", "BP+RR cpu", "classic/BP+RR"],
        &rows,
    );
}

// ---------------------------------------------------------------------------
// Tables I & II
// ---------------------------------------------------------------------------

/// Table I: micro-benchmark descriptions, printed from the workload
/// registry (so documentation cannot drift from the code).
pub fn table1() {
    let rows: Vec<Vec<String>> = TABLE1
        .iter()
        .map(|w| {
            vec![
                w.crdt.to_string(),
                w.periodic_event.to_string(),
                w.measurement.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table I: description of micro-benchmarks",
        &["Type", "Periodic event", "Measurement"],
        &rows,
    );
}

/// Table II: Retwis workload characterization, measured over a generated
/// trace.
pub fn table2(scale: Scale) {
    let mut w = RetwisWorkload::new(RetwisConfig {
        n_users: scale.pick(10_000, 500),
        zipf: 1.0,
        ops_per_node_per_round: scale.pick(100_000, 5_000),
        max_fanout: 50,
        seed: 7,
    });
    // Generate one big batch.
    let _ops = crdt_sim::Workload::<crdt_workloads::RetwisStore>::ops(
        &mut w,
        crdt_lattice::ReplicaId(0),
        0,
    );
    let s = w.stats;
    let rows = vec![
        vec![
            "Follow".to_string(),
            "1".to_string(),
            format!("{:.1}%", s.share(s.follows)),
            "15%".to_string(),
        ],
        vec![
            "Post Tweet".to_string(),
            format!(
                "1 + #Followers (measured avg {:.2})",
                s.avg_updates_per_post()
            ),
            format!("{:.1}%", s.share(s.posts)),
            "35%".to_string(),
        ],
        vec![
            "Timeline".to_string(),
            "0".to_string(),
            format!("{:.1}%", s.share(s.timeline_reads)),
            "50%".to_string(),
        ],
    ];
    print_table(
        "Table II: Retwis workload characterization (measured vs paper)",
        &["Operation", "#Updates", "measured %", "paper %"],
        &rows,
    );
}

// ---------------------------------------------------------------------------
// Runtime protocol selection (engine layer)
// ---------------------------------------------------------------------------

/// Transmission/memory comparison for a **runtime-chosen** protocol set
/// (`all_experiments protocol_select --protocol …`). Unlike the `fig*` functions (monomorphized per
/// protocol), every run here goes through `Box<dyn SyncEngine>` over
/// encoded [`crdt_sync::WireEnvelope`]s — the deployment path.
pub fn protocol_select(scale: Scale, kinds: &[crdt_sync::ProtocolKind]) {
    for (topo_name, topo) in [("tree", tree(scale)), ("mesh", mesh(scale))] {
        let n = topo.len();
        let rounds = events(scale);
        let runs = crate::run_dyn_suite::<GSet<u64>, _>(kinds, &topo, 1, MODEL, rounds, || {
            GSetWorkload::with_events(n, rounds)
        });
        print_table(
            &format!(
                "Runtime-selected protocols (dyn engine): GSet transmission, {topo_name} ({n} nodes)"
            ),
            TRANSMISSION_HEADERS,
            &crate::transmission_rows_vs_best(&runs),
        );
    }
}

// ---------------------------------------------------------------------------
// Extension: BP/RR ablation across topology classes
// ---------------------------------------------------------------------------

/// Beyond the paper: isolate each optimization's contribution as the
/// topology moves from acyclic (line/tree/star) through one cycle (ring)
/// to dense cycles (mesh, full mesh). The paper's Fig. 7 samples two
/// points of this spectrum; the sweep makes the mechanism visible — BP's
/// savings track the *back-edge* count, RR's track path redundancy.
pub fn ablation_topologies(scale: Scale) {
    let n = scale.pick(15, 9);
    let rounds = scale.pick(60, 10);
    let topologies = [
        Topology::line(n),
        Topology::binary_tree(n),
        Topology::star(n),
        Topology::ring(n),
        Topology::partial_mesh(n, 4),
        Topology::full_mesh(n),
    ];
    let mut rows = Vec::new();
    for topo in topologies {
        let runs = run_suite::<GSet<u64>, _>(Suite::DeltaFamily, &topo, 1, MODEL, rounds, || {
            GSetWorkload::with_events(n, rounds)
        });
        let classic = find(&runs, "delta").metrics.total_elements();
        let bp = find(&runs, "delta+BP").metrics.total_elements();
        let rr = find(&runs, "delta+RR").metrics.total_elements();
        let bprr = find(&runs, "delta+BP+RR").metrics.total_elements();
        let gain = |x: u64| {
            if classic == 0 {
                0.0
            } else {
                100.0 * (classic - x) as f64 / classic as f64
            }
        };
        rows.push(vec![
            topo.name().to_string(),
            if topo.has_cycle() { "yes" } else { "no" }.to_string(),
            classic.to_string(),
            format!("{:.1}%", gain(bp)),
            format!("{:.1}%", gain(rr)),
            format!("{:.1}%", gain(bprr)),
        ]);
    }
    print_table(
        "Ablation (extension): transmission saved vs classic delta, per optimization",
        &[
            "topology",
            "cycles",
            "classic elems",
            "BP saves",
            "RR saves",
            "BP+RR saves",
        ],
        &rows,
    );
    println!(
        "\nreading guide: acyclic graphs (line/tree/star) are fully repaired by BP alone;\n\
         as cycle density grows, BP's share collapses and RR carries the win — the\n\
         mechanism behind the paper's tree-vs-mesh split in Fig. 7."
    );
}

// ---------------------------------------------------------------------------
// Extension: ∆-CRDT baseline study
// ---------------------------------------------------------------------------

/// Beyond the paper: measure the ∆-CRDT approach its §VI cites as related
/// work \[31\] — a versioned delta log with acknowledgments that falls
/// back to full-state transmission once the log is garbage collected.
///
/// Two capacities bracket the trade-off: a 64-entry log rarely falls
/// back (delta-quality transmission, but the log is retained in memory
/// until acked rather than cleared every round like Algorithm 1), and a
/// 4-entry log demonstrates the degradation to state-based behaviour the
/// paper's related-work section predicts.
pub fn ext_deltacrdt(scale: Scale) {
    for (topo_name, topo) in [("tree", tree(scale)), ("mesh", mesh(scale))] {
        let n = topo.len();
        let rounds = events(scale);
        let runs =
            run_suite::<GSet<u64>, _>(Suite::DeltaCrdtStudy, &topo, 1, MODEL, rounds, || {
                GSetWorkload::with_events(n, rounds)
            });
        print_table(
            &format!("Extension: ∆-CRDT baseline, GSet transmission, {topo_name} ({n} nodes)"),
            TRANSMISSION_HEADERS,
            &transmission_ratio_rows(&runs),
        );
        // Memory: the delta log is retained until acked, so ∆-CRDT pays a
        // standing buffer where BP+RR clears per round.
        let base = find(&runs, "delta+BP+RR")
            .metrics
            .avg_memory_bytes_per_node();
        let rows: Vec<Vec<String>> = runs
            .iter()
            .map(|r| {
                let mem = r.metrics.avg_memory_bytes_per_node();
                vec![
                    r.name.to_string(),
                    fmt_bytes(mem as u64),
                    format!("{:.2}", if base > 0.0 { mem / base } else { 1.0 }),
                ]
            })
            .collect();
        print_table(
            &format!("Extension: ∆-CRDT baseline, avg memory/node, {topo_name}"),
            &["protocol", "avg memory", "ratio vs BP+RR"],
            &rows,
        );
    }
    println!(
        "\nreading guide: with a roomy log, ∆-CRDT transmission approaches BP+RR on\n\
         trees (acks prevent re-sends) but keeps a standing memory cost; the 4-entry\n\
         log degrades towards state-based transmission exactly as §VI predicts."
    );
}
