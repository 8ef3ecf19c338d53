//! Compare synchronization protocols on the paper's GSet micro-benchmark
//! over both Fig. 6 topologies — with the protocol set chosen **at
//! runtime** through the type-erased engine layer.
//!
//! ```text
//! cargo run --release --example protocol_comparison
//! cargo run --release --example protocol_comparison -- \
//!     --protocol bp_rr --protocol scuttlebutt-gc
//! cargo run --release --example protocol_comparison -- --protocol all
//! ```
//!
//! Prints the Fig. 7 style transmission table — watch how BP alone
//! matches BP+RR on the (acyclic) tree, while the mesh needs RR. Every
//! run goes through `Box<dyn SyncEngine>` over encoded wire envelopes:
//! the deployment path, selected per run like a `--protocol` flag in a
//! real cluster — no per-protocol monomorphization in this binary.

use crdt_bench::gate::{or_default, Args};
use crdt_bench::{print_table, run_dyn_suite, transmission_rows_vs_best, TRANSMISSION_HEADERS};
use crdt_lattice::SizeModel;
use crdt_sim::Topology;
use crdt_sync::ProtocolKind;
use crdt_types::GSet;
use crdt_workloads::GSetWorkload;

fn main() {
    let kinds = or_default(&Args::from_env().protocols, &ProtocolKind::ALL);
    let events = 30;
    for topo in [Topology::binary_tree(15), Topology::partial_mesh(15, 4)] {
        let n = topo.len();
        let runs =
            run_dyn_suite::<GSet<u64>, _>(&kinds, &topo, 7, SizeModel::compact(), events, || {
                GSetWorkload::with_events(n, events)
            });
        print_table(
            &format!(
                "GSet transmission on {} (cycles: {}) — dyn engines",
                topo.name(),
                topo.has_cycle()
            ),
            TRANSMISSION_HEADERS,
            &transmission_rows_vs_best(&runs),
        );
    }
    println!(
        "\nreading guide: on the tree, delta+BP ≈ delta+BP+RR (no cycles, nothing to\n\
         extract); on the mesh, only RR reins in the redundant δ-groups and classic\n\
         delta degenerates towards state-based — §V-B of the paper."
    );
}
