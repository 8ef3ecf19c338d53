//! `all_experiments [name …]`: regenerate the paper's tables and
//! figures. No name runs every paper artifact; `--quick` shrinks them to
//! smoke scale (the default is paper scale). See the `all_experiments`
//! section of ARCHITECTURE.md.
//!
//! ```text
//! cargo run --release -p crdt-bench --bin all_experiments -- --quick
//! cargo run --release -p crdt-bench --bin all_experiments -- fig11 fig12
//! cargo run --release -p crdt-bench --bin all_experiments -- \
//!     protocol_select --protocol bp_rr --protocol scuttlebutt --quick
//! ```

use crdt_bench::experiments;
use crdt_bench::gate::{or_default, usage_exit, Args};
use crdt_sync::ProtocolKind;

/// Every artifact name, in the order a full run prints them.
const NAMES: [&str; 12] = [
    "table1",
    "table2",
    "fig1",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ablation_topologies",
    "ext_deltacrdt",
    "fig11",
    "fig12",
    "protocol_select",
];

fn main() {
    let args = Args::from_env();
    if let Some(bad) = args.names.iter().find(|n| !NAMES.contains(&n.as_str())) {
        usage_exit(&format!(
            "unknown experiment {bad:?} (expected any of: {})",
            NAMES.join(", ")
        ));
    }
    // `protocol_select` compares a caller-chosen `--protocol` set
    // through the erased engines; it is not a paper artifact, so a run
    // without names leaves it out.
    let paper: Vec<String> = NAMES[..11].iter().map(|n| n.to_string()).collect();
    let selected = or_default(&args.names, &paper);
    let scale = args.scale;
    println!("running {} at {scale:?} scale\n", selected.join(" "));

    // Figs. 11 and 12 read one Retwis sweep; run it once for both.
    let mut sweep = None;
    let retwis = || experiments::run_retwis_sweep(scale);
    for name in &selected {
        match name.as_str() {
            "table1" => experiments::table1(),
            "table2" => experiments::table2(scale),
            "fig1" => experiments::fig1(scale),
            "fig7" => experiments::fig7(scale),
            "fig8" => experiments::fig8(scale),
            "fig9" => experiments::fig9(scale),
            "fig10" => experiments::fig10(scale),
            "ablation_topologies" => experiments::ablation_topologies(scale),
            "ext_deltacrdt" => experiments::ext_deltacrdt(scale),
            "fig11" => experiments::fig11_from(sweep.get_or_insert_with(retwis)),
            "fig12" => experiments::fig12_from(sweep.get_or_insert_with(retwis)),
            "protocol_select" => experiments::protocol_select(
                scale,
                &or_default(
                    &args.protocols,
                    &[
                        ProtocolKind::Classic,
                        ProtocolKind::BpRr,
                        ProtocolKind::State,
                    ],
                ),
            ),
            _ => unreachable!("names were validated against NAMES"),
        }
    }
    println!("\nall experiments done.");
}
