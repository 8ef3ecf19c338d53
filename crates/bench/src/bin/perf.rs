//! `perf <family>`: run one gated family of `crdt_bench::gate::FAMILIES`
//! through the shared harness, or `perf metric_names`.
//!
//! ```text
//! cargo run --release -p crdt-bench --bin perf -- scenarios \
//!     --scenario all --protocol all --quick \
//!     --out BENCH_scenarios.json --baseline ci/bench-baseline/BENCH_scenarios.json
//! cargo run --release -p crdt-bench --bin perf -- metric_names \
//!     | diff -u ci/metric-names.txt -
//! ```
//!
//! `metric_names` enumerates every metric name the workspace can
//! register, one per line, sorted — `ci/metric-names.txt` is a diff
//! against this output, so renaming or dropping a metric (or adding one
//! without updating the golden) fails CI instead of silently breaking
//! dashboards and parsers downstream.
//!
//! This binary installs [`testkit_alloc::CountingAllocator`] so the
//! `codec` and `merge` families' allocation counts are real.

use std::process::ExitCode;

use crdt_bench::gate::{perf_main, Args};

#[global_allocator]
static ALLOC: testkit_alloc::CountingAllocator = testkit_alloc::CountingAllocator;

fn metric_names() {
    let reg = crdt_obs::Registry::new();
    let _ = crdt_sync::EngineMetrics::register(&reg);
    let _ = crdt_sync::MerkleRepairMetrics::register(&reg);
    let _ = delta_store::StoreMetrics::register(&reg);
    crdt_net::register_net_metrics(&reg);
    crdt_sim::register_runner_metrics(&reg);
    for name in reg.names() {
        println!("{name}");
    }
}

fn main() -> ExitCode {
    let args = Args::from_env();
    if args.names == ["metric_names"] {
        metric_names();
        return ExitCode::SUCCESS;
    }
    perf_main(&args)
}
