//! # crdt-bench
//!
//! The paper's figures and the deterministic count gates — and nothing
//! timed. `benchmark/` (the repo benchmark) owns every wall-clock
//! number; this crate owns what the paper's evaluation (§V) actually
//! argues with: bytes, elements, rounds and allocations, all pure
//! functions of the seed. Two bins (see the "Measurement" section of
//! ARCHITECTURE.md):
//!
//! ```text
//! cargo run --release -p crdt-bench --bin all_experiments -- [name …] [--quick]
//! cargo run --release -p crdt-bench --bin perf -- <family> [--quick] \
//!     [--out BENCH_<family>.json] [--baseline ci/bench-baseline/BENCH_<family>.json]
//! ```
//!
//! * `all_experiments` regenerates the paper's tables and figures
//!   ([`experiments`]; no name = all of them) plus `protocol_select`,
//!   the same comparison over a runtime-chosen `--protocol` set.
//! * `perf <family>` runs one gated family of [`gate::FAMILIES`] —
//!   `codec`, `merge`, `net`, `netload`, `repair`, `retwis_sharded`,
//!   `scenarios` — through the one harness in [`gate`]: write
//!   `BENCH_<family>.json`, collect every broken in-process invariant
//!   and every regression against `--baseline`, exit once. A report
//!   holds only seed-determined values, so the checked-in baseline is
//!   reproduced byte for byte by a fresh run. `perf metric_names` lists
//!   every registered metric name (the `ci/metric-names.txt` golden).
//!
//! This library holds the shared machinery: running the protocol suite
//! over a workload factory, ratio computation, aligned table printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use crdt_lattice::{SizeModel, WireEncode};
use crdt_sim::{
    run_engine_experiment, run_experiment, NetworkConfig, RunMetrics, Topology, Workload,
};
use crdt_sync::{
    BpDelta, BpRrDelta, ClassicDelta, DeltaCrdt, DeltaCrdtSmallLog, OpBased, Protocol,
    ProtocolKind, RrDelta, Scuttlebutt, ScuttlebuttGc, StateSync,
};
use crdt_types::Crdt;

/// One protocol's results for one experiment.
#[derive(Debug, Clone)]
pub struct Run {
    /// Protocol label (matches the paper's figures).
    pub name: &'static str,
    /// Collected metrics.
    pub metrics: RunMetrics,
}

/// Which protocols to include in a suite run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// All eight protocols (Figs. 7–10).
    Full,
    /// Only delta variants + state (Fig. 1 style).
    DeltaFamily,
    /// Classic vs BP+RR (the Retwis comparison, Figs. 11–12).
    ClassicVsBpRr,
    /// BP+RR against the ∆-CRDT baseline of \[31\] (extension study):
    /// state, classic, BP+RR, ∆-CRDT (64-entry log), ∆-CRDT (4-entry log).
    DeltaCrdtStudy,
}

/// Run the protocol suite over identical replayed workloads.
///
/// `make` must build a *fresh* workload per call (deterministic per seed)
/// so each protocol sees the same operation stream.
pub fn run_suite<C, W>(
    suite: Suite,
    topology: &Topology,
    net_seed: u64,
    model: SizeModel,
    rounds: usize,
    make: impl Fn() -> W,
) -> Vec<Run>
where
    C: Crdt,
    W: Workload<C>,
{
    let net = NetworkConfig::reliable(net_seed);
    let mut runs = Vec::new();
    macro_rules! one {
        ($p:ty) => {{
            let mut w = make();
            runs.push(Run {
                name: <$p as Protocol<C>>::NAME,
                metrics: run_experiment::<C, $p>(topology.clone(), net, model, &mut w, rounds),
            });
        }};
    }
    match suite {
        Suite::Full => {
            one!(StateSync<C>);
            one!(ClassicDelta<C>);
            one!(BpDelta<C>);
            one!(RrDelta<C>);
            one!(BpRrDelta<C>);
            one!(Scuttlebutt<C>);
            one!(ScuttlebuttGc<C>);
            one!(OpBased<C>);
        }
        Suite::DeltaFamily => {
            one!(StateSync<C>);
            one!(ClassicDelta<C>);
            one!(BpDelta<C>);
            one!(RrDelta<C>);
            one!(BpRrDelta<C>);
        }
        Suite::ClassicVsBpRr => {
            one!(ClassicDelta<C>);
            one!(BpRrDelta<C>);
        }
        Suite::DeltaCrdtStudy => {
            one!(StateSync<C>);
            one!(ClassicDelta<C>);
            one!(BpRrDelta<C>);
            one!(DeltaCrdt<C>);
            one!(DeltaCrdtSmallLog<C>);
        }
    }
    runs
}

/// Run a **runtime-selected** set of protocols over identical replayed
/// workloads, through the type-erased engine layer
/// (`ShardedEngineRunner` at one object per node).
///
/// The erased path produces byte-identical accounting to the generic
/// path (the engine-parity tests pin that), so [`run_suite`] and
/// `run_dyn_suite` rows are interchangeable in the figures; this variant
/// exists so binaries can accept `--protocol` flags instead of being
/// monomorphized over a fixed list.
pub fn run_dyn_suite<C, W>(
    kinds: &[ProtocolKind],
    topology: &Topology,
    net_seed: u64,
    model: SizeModel,
    rounds: usize,
    make: impl Fn() -> W,
) -> Vec<Run>
where
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + Sync + 'static,
    W: Workload<C>,
{
    let net = NetworkConfig::reliable(net_seed);
    kinds
        .iter()
        .map(|&kind| {
            let mut w = make();
            Run {
                name: kind.name(),
                metrics: run_engine_experiment::<C>(
                    kind,
                    topology.clone(),
                    net,
                    model,
                    &mut w,
                    rounds,
                ),
            }
        })
        .collect()
}

/// Find a run by protocol name.
pub fn find<'a>(runs: &'a [Run], name: &str) -> &'a Run {
    runs.iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("protocol {name} missing from suite"))
}

/// Ratio `a / b`, guarding division by zero.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        if a == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        a as f64 / b as f64
    }
}

/// Scale flag: `--quick` shrinks experiments for CI; default is paper
/// scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Paper-scale parameters.
    #[default]
    Full,
    /// Reduced parameters for smoke runs.
    Quick,
}

impl Scale {
    /// Pick a value by scale.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// Print an aligned table (human-readable, plus greppable `==` title).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let headers_owned: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&headers_owned));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a ratio for display.
pub fn fmt_ratio(r: f64) -> String {
    if r.is_infinite() {
        "inf".to_string()
    } else {
        format!("{r:.2}")
    }
}

/// Format bytes human-readably.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: &[&str] = &["B", "KB", "MB", "GB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

/// Canonical transmission-ratio rows (each protocol vs BP+RR) used by the
/// Fig. 7/8 binaries. Panics if BP+RR is absent — the figure suites always
/// include it; runtime-selected sets should use
/// [`transmission_rows_vs_best`].
pub fn transmission_ratio_rows(runs: &[Run]) -> Vec<Vec<String>> {
    transmission_rows_vs(runs, &find(runs, "delta+BP+RR").metrics)
}

/// Transmission-ratio rows against BP+RR when present, else against the
/// first run — for runtime-selected protocol sets where the baseline is
/// not guaranteed to be in the mix.
pub fn transmission_rows_vs_best(runs: &[Run]) -> Vec<Vec<String>> {
    let base = runs
        .iter()
        .find(|r| r.name == ProtocolKind::BpRr.name())
        .unwrap_or(&runs[0]);
    transmission_rows_vs(runs, &base.metrics.clone())
}

fn transmission_rows_vs(runs: &[Run], base: &RunMetrics) -> Vec<Vec<String>> {
    let (base_elems, base_bytes) = (base.total_elements(), base.total_bytes());
    runs.iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.metrics.total_elements().to_string(),
                fmt_ratio(ratio(r.metrics.total_elements(), base_elems)),
                fmt_bytes(r.metrics.total_bytes()),
                fmt_ratio(ratio(r.metrics.total_bytes(), base_bytes)),
                format!("{:.1}%", 100.0 * r.metrics.metadata_fraction()),
            ]
        })
        .collect()
}

/// Headers matching [`transmission_ratio_rows`]. The paper's transmission
/// figures compare *all* traffic — payload plus synchronization metadata —
/// which is why the bytes ratio (not the element count) is the headline
/// column: vector-based protocols pay for their digests.
pub const TRANSMISSION_HEADERS: &[&str] = &[
    "protocol",
    "elements",
    "elem ratio",
    "total bytes",
    "bytes ratio vs BP+RR",
    "metadata %",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{gate_limit, Family, Report};
    use crate::json::Json;
    use crdt_lattice::ReplicaId;
    use crdt_types::{GSet, GSetOp};

    fn unique_adds(n: usize, events: usize) -> impl FnMut(ReplicaId, usize) -> Vec<GSetOp<u64>> {
        move |node: ReplicaId, round: usize| {
            if round >= events {
                return Vec::new();
            }
            vec![GSetOp::Add((round * n + node.index()) as u64)]
        }
    }

    #[test]
    fn full_suite_runs_and_converges() {
        let n = 6;
        let topo = Topology::partial_mesh(n, 4);
        let runs =
            run_suite::<GSet<u64>, _>(Suite::Full, &topo, 1, SizeModel::compact(), 5, || {
                unique_adds(n, 5)
            });
        assert_eq!(runs.len(), 8);
        for r in &runs {
            assert!(r.metrics.total_messages() > 0, "{} sent nothing", r.name);
        }
        let classic = find(&runs, "delta").metrics.total_elements();
        let bprr = find(&runs, "delta+BP+RR").metrics.total_elements();
        assert!(bprr < classic);
        let rows = transmission_ratio_rows(&runs);
        assert_eq!(rows.len(), 8);
    }

    #[test]
    fn gate_limit_floors_zero_and_tiny_baselines() {
        // Zero baseline: the epsilon is the whole limit.
        assert_eq!(gate_limit(0.0, 256.0), 256.0);
        // Tiny integer baseline (1 convergence round): the floor keeps
        // ±1 absolute jitter from failing a 25% gate.
        assert_eq!(gate_limit(1.0, 2.0), 2.0);
        // Ordinary baselines gate multiplicatively.
        assert_eq!(gate_limit(1000.0, 256.0), 1250.0);
    }

    const TOY: Family = Family {
        name: "toy",
        schema: "bench-toy/v1",
        key_fields: &["k"],
        gated: &[("bytes", 256.0), ("convergence_rounds", 2.0)],
        run: |_| Report::default(),
    };

    fn toy_row(fields: &[(&str, Json)]) -> Json {
        let mut row = vec![
            ("k".to_string(), Json::str("a")),
            ("converged".to_string(), Json::Bool(true)),
        ];
        row.extend(fields.iter().map(|(k, v)| (k.to_string(), v.clone())));
        Json::Obj(row)
    }

    #[test]
    fn gate_fails_a_vanished_metric_but_skips_a_null_one() {
        let base = [toy_row(&[
            ("bytes", Json::num(1000)),
            ("convergence_rounds", Json::num(3)),
        ])];
        // `bytes` renamed away in the current run: a violation, not a
        // silent pass.
        let renamed = [toy_row(&[
            ("total_bytes", Json::num(1000)),
            ("convergence_rounds", Json::num(3)),
        ])];
        let violations = TOY.violations(&renamed, &base);
        assert_eq!(violations, ["k=a: bytes missing from current run"]);
        // A null value is the one legitimate skip.
        let null = [toy_row(&[
            ("bytes", Json::num(1000)),
            ("convergence_rounds", Json::Null),
        ])];
        assert!(TOY.violations(&null, &base).is_empty());
        // A metric the baseline row never carried is not demanded.
        assert!(TOY.violations(&base, &renamed).is_empty());
    }

    #[test]
    fn every_failure_and_every_violation_is_reported() {
        let report = Report {
            rows: vec![toy_row(&[("bytes", Json::num(5000))])],
            failures: vec!["a did not converge".into(), "b allocated".into()],
            metrics_artifact: None,
        };
        let baseline = TOY.document(&[toy_row(&[("bytes", Json::num(1000))])], true);
        let problems = TOY.problems(&report, Some(&baseline));
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert_eq!(problems[..2], report.failures[..]);
        assert!(problems[2].contains("bytes regressed"), "{problems:?}");
        // Without a baseline only the invariants speak.
        assert_eq!(TOY.problems(&report, None), report.failures);
    }

    #[test]
    fn ratio_and_formatting() {
        assert_eq!(ratio(10, 5), 2.0);
        assert_eq!(ratio(0, 0), 1.0);
        assert!(ratio(1, 0).is_infinite());
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KB");
        assert_eq!(fmt_ratio(1.5), "1.50");
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::default(), Scale::Full);
        assert_eq!(Scale::Full.pick(100, 5), 100);
        assert_eq!(Scale::Quick.pick(100, 5), 5);
    }
}

pub mod codec_bench;
pub mod experiments;
pub mod gate;
pub mod json;
pub mod merge_throughput;
pub mod net_loopback;
pub mod netload;
pub mod repair_scaling;
pub mod retwis_sharded;
pub mod scenarios;
