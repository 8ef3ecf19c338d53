//! The repo benchmark: four workloads measured end to end (untraced) and
//! layer by layer (traced), entirely from outside the crates — by timing
//! calls into their public functions and reading their registries.
//!
//! `README.md` beside this crate explains the workloads, the metrics and
//! how they are expected to interact.

pub mod calib;
pub mod load;
pub mod mem;
pub mod openloop;
pub mod replay;
pub mod report;
pub mod span;
pub mod stats;
pub mod sys;
pub mod tcp;
pub mod traced;

use std::io;
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

/// Command line of both binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// One of [`report::WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds one run measures for (default 30, or 1 with `--smoke`).
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Small sizes, for a quick look at the plumbing; not comparable.
    pub smoke: bool,
}

const USAGE: &str =
    "usage: bench --workload <retwis30k-tcp|hot64-tcp|retwis-mesh-mem|repair30k-mem> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

impl Args {
    /// Parse `args` (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 42,
            seconds: 30,
            trace: false,
            smoke: false,
        };
        let mut seconds = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => out.workload = value()?,
                "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    out.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--smoke" => out.smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !report::WORKLOADS.contains(&out.workload.as_str()) {
            return Err(format!("unknown workload {:?}", out.workload));
        }
        out.seconds = seconds.unwrap_or(if out.smoke { 1 } else { 30 });
        if out.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(out)
    }
}

/// The end-to-end run of one workload.
fn untraced(args: &Args) -> io::Result<Outcome> {
    let window = Duration::from_secs(args.seconds);
    let objects = if args.smoke { 2_000 } else { 30_000 };
    Ok(match args.workload.as_str() {
        "retwis30k-tcp" => tcp::run(
            tcp::Spec {
                objects,
                sched: Duration::from_millis(10),
                open_rate: Some(600),
                calibrate_repair: true,
                calibrate_cpu: false,
            },
            args.seed,
            window,
        )?,
        "hot64-tcp" => tcp::run(
            tcp::Spec {
                objects: 64,
                sched: Duration::from_millis(1),
                open_rate: None,
                calibrate_repair: false,
                calibrate_cpu: true,
            },
            args.seed,
            window,
        )?,
        "retwis-mesh-mem" => mem::run_mesh(
            mem::MeshSpec {
                users: objects / 3,
                rounds: if args.smoke { 20 } else { 100 },
            },
            args.seed,
            window,
        ),
        "repair30k-mem" => mem::run_repair(objects, args.seed, window),
        other => unreachable!("Args::parse admitted workload {other}"),
    })
}

/// The update stream of `args.workload` as lockstep rounds, for the
/// traced pipeline.
fn traced_inputs(args: &Args) -> traced::Inputs {
    use load::full_mesh;
    let objects = if args.smoke { 2_000 } else { 30_000 };
    // Smoke runs replay a quarter of the rounds.
    let shrink = if args.smoke { 4 } else { 1 };
    // One update per node per round: what a TCP node sees between two
    // ticks of its sync timer in the untraced run.
    let tcp_rounds = |objects: usize, rounds: usize| -> Vec<traced::Round> {
        let mut stream = load::UpdateStream::new(args.seed, objects);
        (0..rounds)
            .map(|_| {
                (0..tcp::NODES)
                    .map(|node| {
                        let (key, op) = stream.update();
                        (node, key, op)
                    })
                    .collect()
            })
            .collect()
    };
    let start = std::time::Instant::now();
    let (objects, keyspace, neighbors, rounds, sched_ms) = match args.workload.as_str() {
        "retwis30k-tcp" => (
            objects,
            objects,
            full_mesh(3),
            tcp_rounds(objects, 100 / shrink),
            10,
        ),
        "hot64-tcp" => (64, 64, full_mesh(3), tcp_rounds(64, 600 / shrink), 1),
        "retwis-mesh-mem" => {
            let users = objects / 3;
            let spec = mem::MeshSpec {
                users,
                rounds: 30 / shrink,
            };
            let rounds = mem::mesh_trace(spec, args.seed)
                .rounds
                .into_iter()
                .map(|per_node| {
                    per_node
                        .into_iter()
                        .enumerate()
                        .flat_map(|(i, ops)| {
                            ops.timelines.into_iter().map(move |(k, op)| (i, k, op))
                        })
                        .collect()
                })
                .collect();
            (0, users, load::partial_mesh(mem::MESH_NODES), rounds, 10)
        }
        "repair30k-mem" => {
            let per_round = tcp::divergent_keys(objects);
            let mut stream = load::UpdateStream::new(args.seed, objects);
            let rounds = (0..40 / shrink as u64)
                .map(|c| {
                    tcp::strided_keys(objects, per_round, stream.below(objects as u64))
                        .map(|key| (c as usize % 2, key, stream.update().1))
                        .collect()
                })
                .collect();
            (objects, objects, full_mesh(2), rounds, 10)
        }
        other => unreachable!("Args::parse admitted workload {other}"),
    };
    traced::Inputs {
        objects,
        keyspace,
        neighbors,
        rounds,
        sched: Duration::from_millis(sched_ms),
        gen_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// The per-layer run of one workload; spans go to
/// `benchmark/out/trace-<workload>.jsonl`.
fn traced(args: &Args) -> io::Result<Outcome> {
    let inputs = traced_inputs(args);
    let mut spans = Vec::new();
    let outcome = traced::run(&inputs, Duration::from_secs(args.seconds), &mut spans)?;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let file = std::fs::File::create(dir.join(format!("trace-{}.jsonl", args.workload)))?;
    span::write_jsonl(&mut io::BufWriter::new(file), &spans)?;
    Ok(outcome)
}

/// Entry point shared by the untraced and the traced binary.
pub fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = sys::cores();
    println!(
        "workload {}  seed {}  window {} s  trace {}  cores {cores}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke {
            "  SMOKE (not comparable)"
        } else {
            ""
        }
    );
    if args.trace && !testkit_alloc::is_installed() {
        eprintln!("--trace 1 needs the counting allocator: run the bench-traced binary");
        return ExitCode::from(2);
    }
    if cores < 2 {
        // Three nodes and two generator threads on one core measure the
        // scheduler, not the system.
        eprintln!("{cores} core: timed metrics would be meaningless; nothing reported");
        return ExitCode::from(3);
    }
    let order: &[(&str, &str)] = match args.trace {
        true => &report::PER_LAYER,
        false => &report::END_TO_END,
    };
    let outcome = match if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    } {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark could not run: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report::table(&args.workload, order, &outcome));
    match report::result_line(order, &outcome) {
        Some(line) if outcome.correct() => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Some(line) => {
            println!("{line}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("a listed metric is missing or not finite; no result reported");
            ExitCode::FAILURE
        }
    }
}
