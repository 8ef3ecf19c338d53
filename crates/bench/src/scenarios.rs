//! The `scenarios` experiment family: the BP/RR ablation extended into
//! fault regimes the paper never measured.
//!
//! Each scenario (table below) drives every requested
//! [`ProtocolKind`] through the same fault schedule on the paper's
//! partial-mesh topology with the unique-adds GSet workload, and records
//! a [`ScenarioOutcome`] per protocol: convergence rounds, bytes to
//! re-converge, out-of-band repair traffic, staleness windows. Results
//! are emitted as `BENCH_scenarios.json`, gated in CI against `ci/bench-baseline/BENCH_scenarios.json`.
//!
//! | scenario | shape | what it stresses |
//! |---|---|---|
//! | `partition_heal` | cluster splits in half at ¼ of the run, heals at ¾ | staleness windows, repair traffic vs. built-in recovery |
//! | `churn` | durable crash/restart + non-durable crash/restart + a join | bootstrap cost, stale-ack/vector handling after cold restarts |
//! | `flapping_link` | one edge flaps lossy (drop+dup+reorder) three times | loss tolerance: acked/anti-entropy self-heal, delta family needs repair |
//! | `rolling_restart` | every node durably restarted, one at a time | steady-state recovery cost of operational maintenance |
//!
//! Everything here is **deterministic** — seeded RNG, round-based clock —
//! so the JSON is machine-comparable across runs and machines, which is
//! what makes a checked-in baseline meaningful.

use crdt_lattice::{ReplicaId, SizeModel};
use crdt_sim::{run_scenario, NetworkConfig, ScenarioOutcome, ScenarioSchedule, Topology};
use crdt_sync::ProtocolKind;
use crdt_types::{GSet, GSetOp};

use crate::gate::{or_default, Args, Report};
use crate::json::Json;
use crate::Scale;

/// Run `scenarios` × `kinds` at `scale`.
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
        for &kind in kinds {
            // A fresh deterministic workload per protocol: every kind
            // sees the identical operation stream.
            let mut workload = |node: ReplicaId, round: usize| {
                vec![((), GSetOp::Add((round * 64 + node.index()) as u64))]
            };
            outcomes.push(run_scenario::<(), GSet<u64>>(
                kind,
                Topology::partial_mesh(n, 4),
                &schedule,
                NetworkConfig::reliable(1),
                SizeModel::compact(),
                1,
                &mut workload,
            ));
        }
    }
    outcomes
}

/// Render outcomes as the `BENCH_scenarios.json` rows.
pub fn rows_json(outcomes: &[ScenarioOutcome]) -> Vec<Json> {
    outcomes
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
        .collect()
}

/// `perf scenarios`: `--scenario` (default `partition_heal`) ×
/// `--protocol` (default all). Every kind must re-converge under every
/// schedule.
pub fn run(args: &Args) -> Report {
    let scenarios = or_default(&args.scenarios, &["partition_heal".to_string()]);
    let kinds = or_default(&args.protocols, &ProtocolKind::ALL);
    let outcomes = run_scenario_suite(args.scale, &scenarios, &kinds);
    Report {
        rows: rows_json(&outcomes),
        failures: outcomes
            .iter()
            .filter(|o| !o.converged)
            .map(|o| format!("{} did not re-converge under `{}`", o.protocol, o.scenario))
            .collect(),
        metrics_artifact: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{family, results, Family};

    fn gate() -> &'static Family {
        family("scenarios").unwrap()
    }

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
        let text = gate().document(&rows_json(&outcomes), true).pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(
            back.get("schema").unwrap().as_str(),
            Some("bench-scenarios/v1")
        );
        assert_eq!(results(&back).len(), 2);
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let rows = rows_json(&quick_outcomes());
        assert!(gate().violations(&rows, &rows).is_empty());
    }

    #[test]
    fn regressions_and_missing_rows_fail_the_gate() {
        let mut outcomes = quick_outcomes();
        let baseline = rows_json(&outcomes);
        // Current run with total_bytes inflated 2× on the first row, and
        // the second row deleted.
        outcomes.truncate(1);
        outcomes[0].total_bytes *= 2;
        let violations = gate().violations(&rows_json(&outcomes), &baseline);
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
            .position(|o| o.protocol == ProtocolKind::Scuttlebutt)
            .unwrap();
        assert_eq!(
            outcomes[sb].repair_bytes, 0,
            "precondition: self-healing baseline"
        );
        let baseline = rows_json(&outcomes);

        // Within the epsilon: passes.
        let mut nudged = outcomes.clone();
        nudged[sb].repair_bytes = 200;
        assert!(
            gate().violations(&rows_json(&nudged), &baseline).is_empty(),
            "≤ epsilon over a zero baseline is not a regression"
        );

        // Beyond the epsilon: a real regression, caught.
        nudged[sb].repair_bytes = 10_000;
        let violations = gate().violations(&rows_json(&nudged), &baseline);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("repair_bytes"), "{violations:?}");
    }

    #[test]
    fn improvements_pass_the_gate() {
        let outcomes = quick_outcomes();
        // A baseline that was strictly worse.
        let mut worse = outcomes.clone();
        for o in &mut worse {
            o.total_bytes *= 3;
            o.bytes_to_reconverge *= 3;
        }
        assert!(gate()
            .violations(&rows_json(&outcomes), &rows_json(&worse))
            .is_empty());
    }
}
