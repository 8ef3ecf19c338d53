//! The `scenarios` experiment family: the BP/RR ablation extended into
//! fault regimes the paper never measured.
//!
//! Each scenario (see the table in the crate docs) drives every requested
//! [`ProtocolKind`] through the same fault schedule on the paper's
//! partial-mesh topology with the unique-adds GSet workload, and records
//! a [`ScenarioOutcome`] per protocol: convergence rounds, bytes to
//! re-converge, out-of-band repair traffic, staleness windows. Results
//! are printed as tables and emitted as `BENCH_scenarios.json`
//! ([`write_report`]); [`check_regression`] gates CI against a checked-in
//! baseline.
//!
//! Everything here is **deterministic** — seeded RNG, round-based clock —
//! so the JSON is machine-comparable across runs and machines, which is
//! what makes a checked-in baseline meaningful (wall-clock benchmarks
//! like `engine_overhead` are uploaded as artifacts instead of gated).

use crdt_lattice::{ReplicaId, SizeModel};
use crdt_sim::{run_scenario, NetworkConfig, ScenarioOutcome, ScenarioSchedule, Topology};
use crdt_sync::ProtocolKind;
use crdt_types::{GSet, GSetOp};

use crate::json::Json;
use crate::{fmt_bytes, print_table, Scale};

/// Scenario names accepted by `--scenario` (plus `all`).
pub const SCENARIO_NAMES: [&str; 4] = ScenarioSchedule::BUILTIN_NAMES;

/// Parse every `--scenario <name>` flag (repeatable; `all` selects the
/// whole suite); `default` when none given. Unknown names print the
/// accepted set and exit with status 2.
pub fn scenarios_from_args(default: &[&str]) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--scenario" {
            let Some(value) = args.get(i + 1) else {
                eprintln!("error: --scenario needs a value");
                std::process::exit(2);
            };
            if value == "all" {
                names.extend(SCENARIO_NAMES.iter().map(|s| s.to_string()));
            } else if SCENARIO_NAMES.contains(&value.as_str()) {
                names.push(value.clone());
            } else {
                eprintln!(
                    "error: unknown scenario {value:?} (expected `all` or one of: {})",
                    SCENARIO_NAMES.join(", ")
                );
                std::process::exit(2);
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    if names.is_empty() {
        names.extend(default.iter().map(|s| s.to_string()));
    }
    names
}

/// Run `scenarios` × `kinds` at `scale`, printing one table per scenario.
pub fn run_scenario_suite(
    scale: Scale,
    scenarios: &[String],
    kinds: &[ProtocolKind],
) -> Vec<ScenarioOutcome> {
    let n = scale.pick(15, 6);
    let rounds = scale.pick(60, 12);
    let mut outcomes = Vec::new();
    for name in scenarios {
        let schedule =
            ScenarioSchedule::builtin(name, n, rounds).expect("scenario names are pre-validated");
        let mut rows = Vec::new();
        for &kind in kinds {
            // A fresh deterministic workload per protocol: every kind
            // sees the identical operation stream.
            let mut workload = |node: ReplicaId, round: usize| {
                vec![((), GSetOp::Add((round * 64 + node.index()) as u64))]
            };
            let outcome = run_scenario::<(), GSet<u64>>(
                kind,
                Topology::partial_mesh(n, 4),
                &schedule,
                NetworkConfig::reliable(1),
                SizeModel::compact(),
                1,
                &mut workload,
            );
            rows.push(vec![
                kind.name().to_string(),
                outcome
                    .convergence_rounds
                    .map_or("NEVER".to_string(), |r| r.to_string()),
                fmt_bytes(outcome.total_bytes),
                fmt_bytes(outcome.bytes_to_reconverge),
                fmt_bytes(outcome.repair_bytes),
                outcome.staleness_rounds.to_string(),
                outcome.max_staleness_window.to_string(),
                outcome.undeliverable.to_string(),
            ]);
            outcomes.push(outcome);
        }
        print_table(
            &format!("Scenario `{name}` ({n} nodes, {rounds} rounds, mesh deg 4)"),
            &[
                "protocol",
                "conv rounds",
                "total bytes",
                "reconverge bytes",
                "repair bytes",
                "stale rounds",
                "max window",
                "dropped",
            ],
            &rows,
        );
    }
    outcomes
}

/// Render outcomes as the `BENCH_scenarios.json` document.
pub fn report_to_json(outcomes: &[ScenarioOutcome], quick: bool) -> Json {
    let results = outcomes
        .iter()
        .map(|o| {
            Json::Obj(vec![
                ("scenario".into(), Json::str(o.scenario.clone())),
                ("protocol".into(), Json::str(o.protocol.id())),
                ("protocol_name".into(), Json::str(o.protocol.name())),
                (
                    "workload_rounds".into(),
                    Json::num(o.workload_rounds as u64),
                ),
                ("converged".into(), Json::Bool(o.converged)),
                (
                    "convergence_rounds".into(),
                    o.convergence_rounds
                        .map_or(Json::Null, |r| Json::num(r as u64)),
                ),
                ("total_bytes".into(), Json::num(o.total_bytes)),
                ("total_elements".into(), Json::num(o.total_elements)),
                ("total_messages".into(), Json::num(o.total_messages)),
                (
                    "bytes_to_reconverge".into(),
                    Json::num(o.bytes_to_reconverge),
                ),
                ("repair_messages".into(), Json::num(o.repair_messages)),
                ("repair_elements".into(), Json::num(o.repair_elements)),
                ("repair_bytes".into(), Json::num(o.repair_bytes)),
                ("undeliverable".into(), Json::num(o.undeliverable)),
                (
                    "staleness_rounds".into(),
                    Json::num(o.staleness_rounds as u64),
                ),
                (
                    "max_staleness_window".into(),
                    Json::num(o.max_staleness_window as u64),
                ),
                ("final_nodes".into(), Json::num(o.final_nodes as u64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::str("bench-scenarios/v1")),
        ("quick".into(), Json::Bool(quick)),
        ("results".into(), Json::Arr(results)),
    ])
}

/// Write the JSON report to `path`.
pub fn write_report(path: &str, outcomes: &[ScenarioOutcome], quick: bool) -> std::io::Result<()> {
    std::fs::write(path, report_to_json(outcomes, quick).pretty())
}

/// Compare a current report against a checked-in baseline.
///
/// For every `(scenario, protocol)` row of the baseline, the current run
/// must (a) exist, (b) have converged, and (c) keep the gated metrics —
/// `total_bytes`, `bytes_to_reconverge`, `repair_bytes`, and
/// `convergence_rounds` — within `(1 + tolerance)×` of the baseline,
/// floored by a per-metric absolute epsilon (see [`crate::gate_limit`]):
/// zero baselines would otherwise flag any non-zero current value — or,
/// in ratio form, divide by zero — and several metrics are legitimately
/// zero (the self-healing kinds report zero repair bytes; full-mesh
/// scenarios converge in zero extra rounds), while tiny integer
/// baselines (1 convergence round) would fail on harmless ±1 jitter.
/// Improvements always pass; returns the list of violations.
pub fn check_regression(current: &Json, baseline: &Json, tolerance: f64) -> Vec<String> {
    crate::check_regression_gate(
        current,
        baseline,
        tolerance,
        &["scenario", "protocol"],
        &[
            ("total_bytes", 256.0),
            ("bytes_to_reconverge", 256.0),
            ("repair_bytes", 256.0),
            ("convergence_rounds", 2.0),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_outcomes() -> Vec<ScenarioOutcome> {
        run_scenario_suite(
            Scale::Quick,
            &["partition_heal".to_string()],
            &[ProtocolKind::BpRr, ProtocolKind::Scuttlebutt],
        )
    }

    #[test]
    fn suite_runs_and_reports() {
        let outcomes = quick_outcomes();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.converged));
        let json = report_to_json(&outcomes, true);
        let text = json.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(
            back.get("schema").unwrap().as_str(),
            Some("bench-scenarios/v1")
        );
        assert_eq!(back.get("results").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let outcomes = quick_outcomes();
        let json = report_to_json(&outcomes, true);
        assert!(check_regression(&json, &json, 0.25).is_empty());
    }

    #[test]
    fn regressions_and_missing_rows_fail_the_gate() {
        let outcomes = quick_outcomes();
        let baseline = report_to_json(&outcomes, true);
        // Current run with total_bytes inflated 2× on the first row, and
        // the second row deleted.
        let mut rows = baseline
            .get("results")
            .unwrap()
            .as_array()
            .unwrap()
            .to_vec();
        rows.truncate(1);
        if let Json::Obj(fields) = &mut rows[0] {
            for (k, v) in fields.iter_mut() {
                if k == "total_bytes" {
                    let doubled = v.as_f64().unwrap() * 2.0;
                    *v = Json::Num(doubled);
                }
            }
        }
        let current = Json::Obj(vec![
            ("schema".into(), Json::str("bench-scenarios/v1")),
            ("quick".into(), Json::Bool(true)),
            ("results".into(), Json::Arr(rows)),
        ]);
        let violations = check_regression(&current, &baseline, 0.25);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("total_bytes")));
        assert!(violations.iter().any(|v| v.contains("missing")));
    }

    #[test]
    fn zero_baselines_gate_on_the_absolute_epsilon() {
        // Scuttlebutt self-heals a partition: its baseline repair_bytes
        // is genuinely 0. The multiplicative rule degenerates there
        // (`0 × (1 + t) = 0` flags any jitter; a ratio divides by zero),
        // so zero baselines use the defined absolute epsilon instead.
        let outcomes = quick_outcomes();
        let sb = outcomes
            .iter()
            .find(|o| o.protocol == ProtocolKind::Scuttlebutt)
            .unwrap();
        assert_eq!(sb.repair_bytes, 0, "precondition: self-healing baseline");
        let baseline = report_to_json(&outcomes, true);

        // Within the epsilon: passes.
        let mut nudged = outcomes.clone();
        nudged
            .iter_mut()
            .find(|o| o.protocol == ProtocolKind::Scuttlebutt)
            .unwrap()
            .repair_bytes = 200;
        let current = report_to_json(&nudged, true);
        assert!(
            check_regression(&current, &baseline, 0.25).is_empty(),
            "≤ epsilon over a zero baseline is not a regression"
        );

        // Beyond the epsilon: a real regression, caught.
        nudged
            .iter_mut()
            .find(|o| o.protocol == ProtocolKind::Scuttlebutt)
            .unwrap()
            .repair_bytes = 10_000;
        let current = report_to_json(&nudged, true);
        let violations = check_regression(&current, &baseline, 0.25);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("repair_bytes"), "{violations:?}");
    }

    #[test]
    fn improvements_pass_the_gate() {
        let outcomes = quick_outcomes();
        let current = report_to_json(&outcomes, true);
        // A baseline that was strictly worse.
        let mut worse = outcomes.clone();
        for o in &mut worse {
            o.total_bytes *= 3;
            o.bytes_to_reconverge *= 3;
        }
        let baseline = report_to_json(&worse, true);
        assert!(check_regression(&current, &baseline, 0.25).is_empty());
    }
}
