//! # crdt-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§V). Each `src/bin/figN_*.rs` binary reproduces one
//! artifact; this library holds the shared machinery: running the full
//! protocol suite over a workload factory, ratio computation, and aligned
//! table printing.
//!
//! Run everything (reduced scale) with:
//!
//! ```text
//! cargo run --release -p crdt-bench --bin all_experiments
//! ```
//!
//! ## Beyond the paper: the `scenarios` experiment family
//!
//! The paper's evaluation is a static 15-node topology. The `scenarios`
//! binary (module [`scenarios`]) extends the BP/RR ablation into fault
//! regimes, driving every [`crdt_sync::ProtocolKind`] through built-in
//! fault schedules and emitting machine-readable `BENCH_scenarios.json`
//! (consumed by CI's `bench-smoke` regression gate):
//!
//! | scenario | shape | what it stresses |
//! |---|---|---|
//! | `partition_heal` | cluster splits in half at ¼ of the run, heals at ¾ | staleness windows, repair traffic vs. built-in recovery |
//! | `churn` | durable crash/restart + non-durable crash/restart + a join | bootstrap cost, stale-ack/vector handling after cold restarts |
//! | `flapping_link` | one edge flaps lossy (drop+dup+reorder) three times | loss tolerance: acked/anti-entropy self-heal, delta family needs repair |
//! | `rolling_restart` | every node durably restarted, one at a time | steady-state recovery cost of operational maintenance |
//!
//! ```text
//! cargo run --release -p crdt-bench --bin scenarios -- \
//!     --scenario partition_heal --protocol all --quick
//! ```
//!
//! ## Real sockets: the `net_loopback` experiment family
//!
//! The `net_loopback` binary (module [`net_loopback`]) runs the same
//! deterministic workload through the in-process simulator **and** a
//! real-TCP `crdt_net::LoopbackCluster`, reporting both ledgers in
//! `BENCH_net.json`: model-view bytes (byte-identical between the two
//! for the raw-δ kinds), the socket ledger (frames, wire bytes), and
//! artifact-only wall-clock convergence for the free-running scheduler
//! threads. CI gates the deterministic metrics against
//! `ci/bench-baseline/BENCH_net.json`:
//!
//! ```text
//! cargo run --release -p crdt-bench --bin net_loopback -- --quick --protocol all
//! ```

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

/// Parse every `--protocol <kind>` (repeatable, any [`ProtocolKind`]
/// spelling) from `std::env::args`; `default` when none given.
///
/// `--protocol all` selects the full suite. Invalid or missing values
/// print the accepted spellings to stderr and exit with status 2.
pub fn protocols_from_args(default: &[ProtocolKind]) -> Vec<ProtocolKind> {
    let usage_exit = |msg: &str| -> ! {
        eprintln!("error: {msg}");
        eprintln!(
            "usage: --protocol <kind> (repeatable), where <kind> is `all` or one of: {}",
            ProtocolKind::ALL.map(|k| k.id()).join(", ")
        );
        std::process::exit(2);
    };
    let args: Vec<String> = std::env::args().collect();
    let mut kinds = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--protocol" {
            let Some(value) = args.get(i + 1) else {
                usage_exit("--protocol needs a value");
            };
            if value == "all" {
                kinds.extend(ProtocolKind::ALL);
            } else {
                match value.parse() {
                    Ok(kind) => kinds.push(kind),
                    Err(e) => usage_exit(&format!("{e}")),
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    if kinds.is_empty() {
        kinds.extend_from_slice(default);
    }
    kinds
}

/// Find a run by protocol name.
pub fn find<'a>(runs: &'a [Run], name: &str) -> &'a Run {
    runs.iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("protocol {name} missing from suite"))
}

/// The pass limit for a gated regression metric:
/// `max(base × (1 + tolerance), epsilon)`.
///
/// The multiplicative rule alone misbehaves at the bottom of the range.
/// At a **zero** baseline it degenerates to `limit = 0` — a ratio-based
/// formulation divides by zero, and any non-zero current value (or
/// none, under `>=` spellings) trips the gate — yet several metrics are
/// legitimately zero (the self-healing kinds report zero repair bytes)
/// and must still be caught if they suddenly need kilobytes of repair.
/// At **tiny** baselines it forbids harmless absolute jitter: a
/// convergence-rounds baseline of 1 would fail on any +1. The absolute
/// `epsilon` is therefore a floor on the limit, sized per metric to the
/// smallest regression worth failing CI over.
pub fn gate_limit(base: f64, tolerance: f64, epsilon: f64) -> f64 {
    (base * (1.0 + tolerance)).max(epsilon)
}

/// Shared regression-gate core for `BENCH_*.json` reports.
///
/// Rows are matched by rendering each of `key_fields` (strings verbatim,
/// numbers as `{:.3}`). For every baseline row, the current report must
/// contain the row, the row must have `"converged": true`, and each
/// `(metric, epsilon)` of `gated` must satisfy
/// `current ≤ gate_limit(baseline, tolerance, epsilon)`. A metric absent
/// from the *current* row is skipped — the only such case in practice is
/// a `null` `convergence_rounds`, which the converged check already
/// reports. Improvements always pass. Returns human-readable violations.
pub fn check_regression_gate(
    current: &json::Json,
    baseline: &json::Json,
    tolerance: f64,
    key_fields: &[&str],
    gated: &[(&str, f64)],
) -> Vec<String> {
    use json::Json;
    let mut violations = Vec::new();
    let empty: &[Json] = &[];
    let rows = |doc: &Json| -> Vec<Json> {
        doc.get("results")
            .and_then(Json::as_array)
            .unwrap_or(empty)
            .to_vec()
    };
    let key = |row: &Json| -> Vec<String> {
        key_fields
            .iter()
            .map(|f| match row.get(f) {
                Some(Json::Str(s)) => s.clone(),
                Some(v) => v.as_f64().map_or_else(String::new, |n| format!("{n:.3}")),
                None => String::new(),
            })
            .collect()
    };
    let label = |row: &Json| -> String {
        key_fields
            .iter()
            .zip(key(row))
            .map(|(f, v)| format!("{f}={v}"))
            .collect::<Vec<_>>()
            .join("/")
    };
    let current_rows = rows(current);
    for base in rows(baseline) {
        let label = label(&base);
        let Some(cur) = current_rows.iter().find(|r| key(r) == key(&base)) else {
            violations.push(format!("{label}: missing from current run"));
            continue;
        };
        if cur.get("converged").and_then(Json::as_bool) != Some(true) {
            violations.push(format!("{label}: did not converge"));
            continue;
        }
        for &(metric, epsilon) in gated {
            let base_v = base.get(metric).and_then(Json::as_f64).unwrap_or(0.0);
            let Some(cur_v) = cur.get(metric).and_then(Json::as_f64) else {
                continue;
            };
            let limit = gate_limit(base_v, tolerance, epsilon);
            if cur_v > limit {
                violations.push(format!(
                    "{label}: {metric} regressed {base_v:.0} → {cur_v:.0} \
                     (limit {limit:.0} at {:.0}% tolerance)",
                    tolerance * 100.0
                ));
            }
        }
    }
    violations
}

/// The value following a `--flag` in `std::env::args`, if the flag is
/// present; exits with status 2 when the flag is given without a value.
pub fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .map(|i| match args.get(i + 1) {
            Some(v) => v.clone(),
            None => {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            }
        })
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale parameters.
    Full,
    /// Reduced parameters for smoke runs.
    Quick,
}

impl Scale {
    /// Parse from `std::env::args`.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

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
        assert_eq!(gate_limit(0.0, 0.25, 256.0), 256.0);
        // Tiny integer baseline (1 convergence round): the floor keeps
        // ±1 absolute jitter from failing a 25% gate.
        assert_eq!(gate_limit(1.0, 0.25, 2.0), 2.0);
        // Ordinary baselines gate multiplicatively.
        assert_eq!(gate_limit(1000.0, 0.25, 256.0), 1250.0);
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
        assert_eq!(Scale::Full.pick(100, 5), 100);
        assert_eq!(Scale::Quick.pick(100, 5), 5);
    }
}

pub mod codec_bench;
pub mod experiments;
pub mod json;
pub mod merge_throughput;
pub mod net_loopback;
pub mod netload;
pub mod repair_scaling;
pub mod retwis_sharded;
pub mod scenarios;
