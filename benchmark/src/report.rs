//! Metric names, units and the two output formats: a table for people
//! and, as the last line of standard output, one JSON object for the
//! driver.

use std::collections::BTreeMap;

/// The workloads, by their fixed names.
pub const WORKLOADS: [&str; 4] = [
    "retwis30k-tcp",
    "hot64-tcp",
    "retwis-mesh-mem",
    "repair30k-mem",
];

/// End-to-end metrics `(name, unit)`, measured by the untraced run.
/// `BENCHMARK.json` lists the same names with their bounds; a unit test
/// keeps the two in step.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("visibility_p50_us", "us"),
    ("visibility_p99_us", "us"),
    ("update_ops_per_s", "1/s"),
    ("wire_bytes_per_update", "B"),
    ("classic_tx_ratio", "count"),
    ("repair_ms_p50", "ms"),
    ("repair_bytes_per_key", "B"),
    ("cpu_ms_per_kop", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, measured by the traced run. The
/// prefix of a name is the crate it describes.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("lattice.join_ns_per_elem", "ns"),
    ("lattice.delta_ns_per_elem", "ns"),
    ("lattice.encode_ns_per_byte", "ns"),
    ("lattice.decode_ns_per_byte", "ns"),
    ("lattice.join_allocs_per_call", "count"),
    ("lattice.decode_allocs_per_call", "count"),
    ("crdt.mutate_ns_per_op", "ns"),
    ("core.on_op_ns", "ns"),
    ("core.on_sync_idle_ns_per_object", "ns"),
    ("core.on_sync_dirty_ns_per_object", "ns"),
    ("core.on_msg_ns_per_entry", "ns"),
    ("core.on_msg_allocs_per_entry", "count"),
    ("core.batch_encode_ns_per_entry", "ns"),
    ("core.batch_decode_ns_per_entry", "ns"),
    ("core.envelopes_per_frame", "count"),
    ("core.useful_elems_share", "count"),
    ("core.state_hash_ns_per_object", "ns"),
    ("core.digest_ns_per_elem", "ns"),
    ("core.digest_allocs_per_object", "count"),
    ("core.merkle_flush_ns_per_dirty_key", "ns"),
    ("core.merkle_diff_us", "us"),
    ("store.update_ns", "ns"),
    ("store.get_ns", "ns"),
    ("store.sync_step_idle_us", "us"),
    ("store.sync_step_ns_per_dirty_object", "ns"),
    ("store.absorb_ns_per_entry", "ns"),
    ("store.merkle_repair_ms", "ms"),
    ("store.digest_repair_ms", "ms"),
    ("store.mem_bytes_per_object", "B"),
    ("net.update_rtt_idle_us", "us"),
    ("net.get_rtt_idle_us", "us"),
    ("net.frame_write_ns_per_kb", "ns"),
    ("net.frame_read_ns_per_kb", "ns"),
    ("net.sync_now_us", "us"),
    ("net.sync_now_store_us", "us"),
    ("net.sync_now_codec_us", "us"),
    ("net.sync_now_self_us", "us"),
    ("net.flight_us", "us"),
    ("net.absorb_us_per_frame", "us"),
    ("net.idle_cpu_ms_per_s", "ms"),
    ("net.frames_per_update", "count"),
    ("net.bytes_per_frame", "B"),
    ("net.stall_events", "count"),
    ("net.coalesced_frames", "count"),
    ("net.queue_dropped_frames", "count"),
    ("net.bad_frames", "count"),
    ("obs.counter_inc_ns", "ns"),
    ("obs.exposition_us", "us"),
    ("obs.stats_pull_rtt_us", "us"),
    ("workloads.trace_gen_ms", "ms"),
    ("trace.round_us", "us"),
    ("trace.residual_share", "count"),
    ("trace.overhead_share", "count"),
    ("trace.share.store_update", "count"),
    ("trace.share.store_sync_step", "count"),
    ("trace.share.core_batch_encode", "count"),
    ("trace.share.core_batch_decode", "count"),
    ("trace.share.store_absorb", "count"),
    ("trace.tcp_round_us", "us"),
    ("trace.tcp_residual_share", "count"),
    ("trace.tcp_share.client_update", "count"),
    ("trace.tcp_share.sync_now", "count"),
    ("trace.tcp_share.flight", "count"),
    ("trace.tcp_share.absorb", "count"),
    ("calib.kernel_us", "us"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the generator issued.
    pub attempted: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
    /// Correctness checks that did not hold, in words.
    pub violations: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and other context for the table, by metric name.
    pub notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Record one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record one metric with a note for the table (sample count, …).
    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.set(name, value);
        self.notes.insert(name, note);
    }

    /// Record a failed correctness check when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Did every correctness check hold and every metric come out a
    /// finite number?
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }
}

/// The table for people, one metric per line, in `order`.
pub fn table(workload: &str, order: &[(&str, &str)], outcome: &Outcome) -> String {
    let mut out = format!("== {workload}\n");
    for (name, unit) in order {
        let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
        let note = outcome.notes.get(name).map_or("", String::as_str);
        out.push_str(&format!("{name:<34} {value:>16.4} {unit:<6} {note}\n"));
    }
    for (name, value) in &outcome.metrics {
        if !order.iter().any(|(n, _)| n == name) {
            out.push_str(&format!("  ({name} {value:.4})\n"));
        }
    }
    out.push_str(&format!(
        "attempted {}  failed {}  failed_ops_share {:.6}\n",
        outcome.attempted,
        outcome.failed,
        if outcome.correct() {
            0.0
        } else if outcome.violations.is_empty() {
            outcome.failed as f64 / outcome.attempted.max(1) as f64
        } else {
            1.0
        }
    ));
    for v in &outcome.violations {
        out.push_str(&format!("CHECK FAILED: {v}\n"));
    }
    out
}

/// The driver's result line. `None` when a listed metric is missing or
/// not a finite number — a run that could not measure must not report.
pub fn result_line(order: &[(&str, &str)], outcome: &Outcome) -> Option<String> {
    let mut metrics = Vec::with_capacity(order.len());
    for (name, unit) in order {
        let value = *outcome.metrics.get(name)?;
        if !value.is_finite() {
            return None;
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Some(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_needs_every_metric_finite() {
        let order = [("a_us", "us"), ("b", "count")];
        let mut o = Outcome {
            attempted: 5,
            ..Outcome::default()
        };
        o.set("a_us", 1.25);
        assert_eq!(result_line(&order, &o), None);
        o.set("b", f64::NAN);
        assert_eq!(result_line(&order, &o), None);
        o.set("b", 3.0);
        assert_eq!(
            result_line(&order, &o).unwrap(),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {\"a_us\": {\"value\": 1.25, \"unit\": \"us\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        o.check(false, || "replicas differ".into());
        assert!(result_line(&order, &o)
            .unwrap()
            .starts_with("{\"correct\": false"));
        assert!(table("w", &order, &o).contains("failed_ops_share 1.000000"));
    }
}

#[cfg(test)]
mod manifest {
    //! `BENCHMARK.json` at the repository root names the metrics a second
    //! time; these tests keep the two lists in step.

    use super::{END_TO_END, PER_LAYER, WORKLOADS};

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    /// The `"name"` and `"unit"` of every object in the array at `key`.
    fn section(key: &str) -> Vec<(String, String)> {
        let start = MANIFEST
            .find(&format!("\"{key}\": ["))
            .expect("section present");
        let body = &MANIFEST[start..];
        let body = &body[..body.find("\n  ]").expect("section closes")];
        let field = |line: &str, name: &str| {
            let at = line.find(&format!("\"{name}\": \""))? + name.len() + 5;
            Some(line[at..at + line[at..].find('"')?].to_string())
        };
        body.lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit").unwrap_or_default())))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn manifest_lists_the_same_metrics_and_workloads() {
        assert_eq!(section("end_to_end"), owned(&END_TO_END));
        assert_eq!(section("per_layer"), owned(&PER_LAYER));
        let names: Vec<String> = section("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        all.extend(WORKLOADS);
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(all.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }
}
