//! The one gate harness behind `perf <family>`: a single command line,
//! a single table of gated experiment families, and a single verdict.
//!
//! A family run yields a [`Report`]: seed-determined JSON rows, every
//! in-process invariant it found broken, and (socket families) a
//! metrics-exposition artifact. [`perf_main`] writes the rows as
//! `BENCH_<family>.json`, compares them with `--baseline`, reports
//! *all* failures and *all* violations, and exits once. Nothing here is
//! timed — `benchmark/` owns every wall-clock number — so a report is
//! its own baseline: a fresh run reproduces the checked-in file byte
//! for byte.

use std::process::ExitCode;

use crdt_sim::ScenarioSchedule;
use crdt_sync::ProtocolKind;

use crate::json::Json;
use crate::{print_table, Scale};

/// How far a gated metric may grow over its baseline before the gate
/// fails (improvements always pass).
pub const TOLERANCE: f64 = 0.25;

/// The command line both bins share, parsed once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// Positional arguments: the `perf` family, or `all_experiments`
    /// artifact names.
    pub names: Vec<String>,
    /// `--quick` shrinks every experiment to CI scale.
    pub scale: Scale,
    /// Every `--protocol <kind>` (`all` = the nine kinds); empty means
    /// the caller's default.
    pub protocols: Vec<ProtocolKind>,
    /// Every `--scenario <name>` (`all` = the four built-ins).
    pub scenarios: Vec<String>,
    /// Every `--threads <n>`.
    pub threads: Vec<usize>,
    /// `--out <path>`: where `perf` writes the report.
    pub out: Option<String>,
    /// `--baseline <path>`: the checked-in report to gate against.
    pub baseline: Option<String>,
    /// `--metrics-out <path>`: where to write the metrics artifact.
    pub metrics_out: Option<String>,
    /// `--require-c10k`: a missed c10k bar fails the `netload` run.
    pub require_c10k: bool,
}

impl Args {
    /// Parse a command line (without the program name). Unknown flags,
    /// missing values and unknown protocol/scenario names are errors.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let mut value = || argv.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--quick" => args.scale = Scale::Quick,
                "--require-c10k" => args.require_c10k = true,
                "--out" => args.out = Some(value()?),
                "--baseline" => args.baseline = Some(value()?),
                "--metrics-out" => args.metrics_out = Some(value()?),
                "--protocol" => match value()?.as_str() {
                    "all" => args.protocols.extend(ProtocolKind::ALL),
                    kind => args
                        .protocols
                        .push(kind.parse().map_err(|e| format!("{e}, or `all`"))?),
                },
                "--scenario" => match value()?.as_str() {
                    "all" => args
                        .scenarios
                        .extend(ScenarioSchedule::BUILTIN_NAMES.map(String::from)),
                    name if ScenarioSchedule::BUILTIN_NAMES.contains(&name) => {
                        args.scenarios.push(name.to_string())
                    }
                    name => {
                        return Err(format!(
                            "unknown scenario {name:?} (expected `all` or one of: {})",
                            ScenarioSchedule::BUILTIN_NAMES.join(", ")
                        ))
                    }
                },
                "--threads" => args.threads.push(
                    value()?
                        .parse()
                        .map_err(|_| "--threads needs a numeric value")?,
                ),
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                name => args.names.push(name.to_string()),
            }
        }
        Ok(args)
    }

    /// Parse `std::env::args`, exiting with status 2 on a bad command
    /// line.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1)).unwrap_or_else(|msg| usage_exit(&msg))
    }
}

/// Print `msg` and the accepted flags to stderr, exit with status 2.
pub fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: [name …] [--quick] [--protocol <kind|all>]… [--scenario <name|all>]… \
         [--threads <n>]… [--out <path>] [--baseline <path>] [--metrics-out <path>] \
         [--require-c10k]"
    );
    std::process::exit(2)
}

/// `given`, or `default` when the flag was never passed.
pub fn or_default<T: Clone>(given: &[T], default: &[T]) -> Vec<T> {
    if given.is_empty() { default } else { given }.to_vec()
}

/// What one family run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The `results` rows of `BENCH_<family>.json` — seed-determined
    /// values only.
    pub rows: Vec<Json>,
    /// Every in-process invariant the run found broken.
    pub failures: Vec<String>,
    /// Node 0's metrics exposition per protocol (`--metrics-out`).
    pub metrics_artifact: Option<String>,
}

/// One `=== <protocol> … ===` block per exposition, for `--metrics-out`.
pub(crate) fn metrics_artifact<'a>(
    blocks: impl Iterator<Item = (ProtocolKind, &'a str)>,
) -> String {
    blocks
        .map(|(kind, text)| format!("=== {kind} (node 0, lockstep) ===\n{text}\n"))
        .collect()
}

/// One gated experiment family.
#[derive(Debug)]
pub struct Family {
    /// `perf <name>`; the report is `BENCH_<name>.json`.
    pub name: &'static str,
    /// The report's `schema` string.
    pub schema: &'static str,
    /// Fields that identify a row (strings verbatim, numbers as
    /// `{:.3}`).
    pub key_fields: &'static [&'static str],
    /// Gated `(metric, epsilon)` pairs: `current ≤ gate_limit(baseline,
    /// epsilon)`. Byte metrics floor at 256 B (64 for a single frame),
    /// counts at 2–64 by their natural size; `0.0` on a zero baseline
    /// means any non-zero value fails.
    pub gated: &'static [(&'static str, f64)],
    /// Run the family.
    pub run: fn(&Args) -> Report,
}

/// Every gated family, in `ci/bench-baseline/` order.
pub static FAMILIES: [Family; 7] = [
    Family {
        name: "codec",
        schema: "bench-codec/v1",
        key_fields: &["row", "entries", "elems_per_entry"],
        gated: &[
            ("frame_bytes", 64.0),
            ("decode_allocs", 8.0),
            ("decode_shared_allocs", 8.0),
            ("corrupt_alloc_ratio", 8.0),
            ("idle_round_allocs", 64.0),
            ("active_round_allocs", 64.0),
        ],
        run: crate::codec_bench::run,
    },
    Family {
        name: "merge",
        schema: "bench-merge/v1",
        key_fields: &["elements"],
        // The two steady-state counts are pinned at zero: a covered
        // join or a cached re-encode that allocates at all fails.
        gated: &[
            ("join_fresh_allocs", 64.0),
            ("join_unchanged_allocs", 0.0),
            ("delta_apply_allocs", 16.0),
            ("encode_fresh_allocs", 16.0),
            ("encode_cached_allocs", 0.0),
            ("digest_allocs", 64.0),
            ("merkle_rehash_allocs", 64.0),
        ],
        run: crate::merge_throughput::run,
    },
    Family {
        name: "net",
        schema: "bench-net/v1",
        key_fields: &["protocol", "nodes"],
        gated: &[
            ("messages", 8.0),
            ("payload_bytes", 256.0),
            ("metadata_bytes", 256.0),
            ("total_bytes", 256.0),
            ("frames", 8.0),
            ("wire_bytes", 256.0),
            ("rounds", 2.0),
        ],
        run: crate::net_loopback::run,
    },
    Family {
        name: "netload",
        schema: "bench-netload/v1",
        key_fields: &["protocol", "stage"],
        // Lockstep traffic must stay stall-free and un-coalesced (the
        // eager flush keeps queues empty); the coalesce row must keep
        // folding its backlog.
        gated: &[
            ("messages", 8.0),
            ("payload_bytes", 256.0),
            ("metadata_bytes", 256.0),
            ("total_bytes", 256.0),
            ("frames", 2.0),
            ("wire_bytes", 256.0),
            ("rounds", 2.0),
            ("stalls", 0.0),
            ("coalesced_frames", 8.0),
        ],
        run: crate::netload::run,
    },
    Family {
        name: "repair",
        schema: "bench-repair/v1",
        key_fields: &["keyspace", "diverged"],
        gated: &[
            ("descent_frames", 8.0),
            ("control_bytes", 256.0),
            ("leaf_bytes", 256.0),
            ("merkle_messages", 8.0),
            ("merkle_metadata_bytes", 256.0),
            ("merkle_payload_bytes", 256.0),
            ("digest_messages", 8.0),
            ("digest_metadata_bytes", 256.0),
        ],
        run: crate::repair_scaling::run,
    },
    Family {
        name: "retwis_sharded",
        schema: "bench-retwis-sharded/v1",
        key_fields: &["protocol", "zipf", "threads"],
        gated: &[
            ("total_bytes", 256.0),
            ("total_elements", 16.0),
            ("frames", 4.0),
            ("envelopes", 16.0),
        ],
        run: crate::retwis_sharded::run,
    },
    Family {
        name: "scenarios",
        schema: "bench-scenarios/v1",
        key_fields: &["scenario", "protocol"],
        gated: &[
            ("total_bytes", 256.0),
            ("bytes_to_reconverge", 256.0),
            ("repair_bytes", 256.0),
            ("convergence_rounds", 2.0),
        ],
        run: crate::scenarios::run,
    },
];

/// The family called `name`.
pub fn family(name: &str) -> Option<&'static Family> {
    FAMILIES.iter().find(|f| f.name == name)
}

/// The pass limit for a gated metric:
/// `max(base × (1 + TOLERANCE), epsilon)`.
///
/// The multiplicative rule alone misbehaves at the bottom of the range.
/// At a **zero** baseline it degenerates to `limit = 0` — a ratio-based
/// formulation divides by zero, and any non-zero current value trips
/// the gate — yet several metrics are legitimately zero (the
/// self-healing kinds report zero repair bytes) and must still be
/// caught if they suddenly need kilobytes of repair. At **tiny**
/// baselines it forbids harmless absolute jitter: a convergence-rounds
/// baseline of 1 would fail on any +1. The absolute `epsilon` is
/// therefore a floor on the limit, sized per metric to the smallest
/// regression worth failing CI over.
pub(crate) fn gate_limit(base: f64, epsilon: f64) -> f64 {
    (base * (1.0 + TOLERANCE)).max(epsilon)
}

/// The `results` rows of a report document.
pub(crate) fn results(doc: &Json) -> &[Json] {
    doc.get("results").and_then(Json::as_array).unwrap_or(&[])
}

impl Family {
    /// The `BENCH_<name>.json` document over `rows`.
    pub fn document(&self, rows: &[Json], quick: bool) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::str(self.schema)),
            ("quick".into(), Json::Bool(quick)),
            ("results".into(), Json::Arr(rows.to_vec())),
        ])
    }

    /// Print `rows` as one table: key fields, gated metrics, converged —
    /// what the gate reads, so the table cannot drift from the report.
    pub fn print_rows(&self, rows: &[Json]) {
        let gated = self.gated.iter().map(|(metric, _)| *metric);
        let columns: Vec<&str> = (self.key_fields.iter().copied())
            .chain(gated)
            .chain(["converged"])
            .collect();
        let cell = |value: Option<&Json>| match value {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Bool(b)) => if *b { "yes" } else { "NO" }.to_string(),
            Some(Json::Num(n)) if n.fract() == 0.0 => format!("{n:.0}"),
            Some(Json::Num(n)) => format!("{n:.2}"),
            _ => "-".to_string(),
        };
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|row| columns.iter().map(|c| cell(row.get(c))).collect())
            .collect();
        print_table(self.name, &columns, &table);
    }

    /// Compare `current` rows with `baseline` rows; returns
    /// human-readable violations.
    ///
    /// Rows carrying `"measured": false` (allocation counts from a
    /// binary without the counting allocator) are dropped from both
    /// sides first, so a run that stopped measuring against a measured
    /// baseline fails as "missing" instead of going blind. Every
    /// remaining baseline row must exist in `current`, have
    /// `"converged": true`, and keep each gated metric the baseline row
    /// carries within [`gate_limit`]. A metric the current row lost is
    /// a violation; the one skip is a `null` value (`convergence_rounds`
    /// of a run the converged check already reported).
    pub fn violations(&self, current: &[Json], baseline: &[Json]) -> Vec<String> {
        let measured = |r: &&Json| r.get("measured").and_then(Json::as_bool) != Some(false);
        let key = |row: &Json| -> Vec<String> {
            self.key_fields
                .iter()
                .map(|f| match row.get(f) {
                    Some(Json::Str(s)) => s.clone(),
                    Some(v) => v.as_f64().map_or_else(String::new, |n| format!("{n:.3}")),
                    None => String::new(),
                })
                .collect()
        };
        let mut violations = Vec::new();
        for base in baseline.iter().filter(measured) {
            let base_key = key(base);
            let label = self
                .key_fields
                .iter()
                .zip(&base_key)
                .map(|(f, v)| format!("{f}={v}"))
                .collect::<Vec<_>>()
                .join("/");
            let Some(cur) = current.iter().filter(measured).find(|r| key(r) == base_key) else {
                violations.push(format!("{label}: missing from current run"));
                continue;
            };
            if cur.get("converged").and_then(Json::as_bool) != Some(true) {
                violations.push(format!("{label}: did not converge"));
                continue;
            }
            for &(metric, epsilon) in self.gated {
                let Some(base_v) = base.get(metric).and_then(Json::as_f64) else {
                    continue;
                };
                let cur_v = match cur.get(metric) {
                    Some(Json::Null) => continue,
                    Some(v) => v.as_f64(),
                    None => None,
                };
                let Some(cur_v) = cur_v else {
                    violations.push(format!("{label}: {metric} missing from current run"));
                    continue;
                };
                let limit = gate_limit(base_v, epsilon);
                if cur_v > limit {
                    violations.push(format!(
                        "{label}: {metric} regressed {base_v:.0} → {cur_v:.0} \
                         (limit {limit:.0} at {:.0}% tolerance)",
                        TOLERANCE * 100.0
                    ));
                }
            }
        }
        violations
    }

    /// Everything wrong with a run: every broken invariant, then every
    /// gate violation against `baseline` (a report document), if any.
    pub fn problems(&self, report: &Report, baseline: Option<&Json>) -> Vec<String> {
        let mut problems = report.failures.clone();
        if let Some(baseline) = baseline {
            problems.extend(self.violations(&report.rows, results(baseline)));
        }
        problems
    }
}

/// `perf <family>`: run, write `BENCH_<family>.json`, judge, exit once.
pub fn perf_main(args: &Args) -> ExitCode {
    let names = FAMILIES.each_ref().map(|f| f.name).join(", ");
    let [name] = args.names.as_slice() else {
        usage_exit(&format!("expected one family: {names}, or metric_names"));
    };
    let Some(family) = family(name) else {
        usage_exit(&format!(
            "unknown family {name:?} (expected one of: {names}, or metric_names)"
        ));
    };
    let report = (family.run)(args);
    family.print_rows(&report.rows);

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{name}.json"));
    let doc = family.document(&report.rows, args.scale == Scale::Quick);
    std::fs::write(&out, doc.pretty()).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("\nwrote {out} ({} rows)", report.rows.len());
    if let Some(path) = &args.metrics_out {
        let Some(text) = &report.metrics_artifact else {
            usage_exit(&format!("family {name} has no metrics artifact"));
        };
        std::fs::write(path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }

    let baseline = args.baseline.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
    });
    let problems = family.problems(&report, baseline.as_ref());
    if problems.is_empty() {
        match &args.baseline {
            Some(path) => println!(
                "invariants hold; regression gate vs {path}: OK ({:.0}% tolerance)",
                TOLERANCE * 100.0
            ),
            None => println!("invariants hold (no --baseline: gate not run)"),
        }
        return ExitCode::SUCCESS;
    }
    for p in &problems {
        eprintln!("FAIL: {p}");
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline_dir() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/bench-baseline")
    }

    fn checked_in(family: &Family) -> String {
        let path = baseline_dir().join(format!("BENCH_{}.json", family.name));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// The table and `ci/bench-baseline/` stay in step: one file per
    /// family and no strays, the family's schema, its key fields in
    /// every row, and every gated metric carried (the `codec` and
    /// `netload` files mix two row kinds, so "carried" is per file:
    /// each metric in some row, each row with some metric).
    #[test]
    fn families_match_the_checked_in_baselines() {
        let mut files: Vec<String> = std::fs::read_dir(baseline_dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        let expected: Vec<String> = FAMILIES
            .iter()
            .map(|f| format!("BENCH_{}.json", f.name))
            .collect();
        assert_eq!(files, expected);
        for family in &FAMILIES {
            let doc = Json::parse(&checked_in(family)).unwrap();
            assert_eq!(
                doc.get("schema").and_then(Json::as_str),
                Some(family.schema)
            );
            let rows = results(&doc);
            assert!(!rows.is_empty(), "{}: empty baseline", family.name);
            for row in rows {
                for key in family.key_fields {
                    assert!(row.get(key).is_some(), "{}: row lacks {key}", family.name);
                }
                assert!(
                    family.gated.iter().any(|(m, _)| row.get(m).is_some()),
                    "{}: a row carries no gated metric",
                    family.name
                );
            }
            for (metric, _) in family.gated {
                assert!(
                    rows.iter().any(|r| r.get(metric).is_some()),
                    "{}: no row carries {metric}",
                    family.name
                );
            }
        }
    }

    /// A report is its own baseline: the cheapest in-process family,
    /// run with the flags CI passes, reproduces the checked-in file
    /// byte for byte.
    #[test]
    fn scenarios_quick_reproduces_its_baseline_byte_for_byte() {
        let family = family("scenarios").unwrap();
        let args =
            Args::parse(["--scenario", "all", "--protocol", "all", "--quick"].map(String::from))
                .unwrap();
        let report = (family.run)(&args);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(
            family.document(&report.rows, true).pretty(),
            checked_in(family)
        );
    }

    #[test]
    fn args_parse_flags_and_reject_garbage() {
        let parse = |line: &str| Args::parse(line.split_whitespace().map(String::from));
        let args = parse("netload --quick --protocol bp_rr --protocol delta+BP --threads 4 --out x.json --require-c10k").unwrap();
        assert_eq!(args.names, ["netload"]);
        assert_eq!(args.scale, Scale::Quick);
        assert_eq!(args.protocols, [ProtocolKind::BpRr, ProtocolKind::Bp]);
        assert_eq!(args.threads, [4]);
        assert_eq!(args.out.as_deref(), Some("x.json"));
        assert!(args.require_c10k);
        assert_eq!(parse("--scenario all").unwrap().scenarios.len(), 4);
        assert_eq!(parse("--protocol all").unwrap().protocols.len(), 9);
        for bad in [
            "--tolerance 0.25",
            "--out",
            "--protocol nope",
            "--scenario nope",
            "--threads x",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
