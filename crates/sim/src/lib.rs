//! # crdt-sim
//!
//! Deterministic round-based network simulator for CRDT synchronization
//! experiments — the substrate standing in for the paper's Emulab/
//! Kubernetes cluster (§V-A).
//!
//! * [`Topology`] — the paper's 15-node partial mesh and tree (Fig. 6)
//!   plus rings, lines, stars, full meshes and seeded random graphs;
//! * [`Network`] — a message fabric with seeded duplication/reordering
//!   (the §II channel model) and optional drops for the acked variant;
//! * [`Runner`] — drives one [`crdt_sync::Protocol`] per node through
//!   rounds of "update, synchronize, deliver" over in-process values: the
//!   monomorphized, zero-codec reference the parity tests compare
//!   against;
//! * [`ShardedEngineRunner`] — the one type-erased driver: per-object
//!   engines of any runtime-selected [`crdt_sync::ProtocolKind`] (one
//!   object per node at `K = ()`, the paper's 30 K-object Retwis
//!   granularity at `K = UserId`), frames carried by [`Network`] as
//!   per-destination [`crdt_sync::BatchEnvelope`]s so wire frames per
//!   round are O(links), not O(objects), thread-parallel phases, and
//!   every scenario event at node level; both collect
//! * [`RunMetrics`] — transmission in elements and payload/metadata bytes,
//!   per-round memory snapshots, and protocol CPU time: exactly the
//!   quantities of Figs. 1 and 7–12;
//! * [`ScenarioSchedule`] / [`run_scenario`] — fault & churn scenarios
//!   beyond the paper's static setup: partitions that heal, crashes with
//!   and without durable state, joins with bootstrap, flapping links —
//!   driven on the clock against [`ShardedEngineRunner`], measuring
//!   convergence rounds, bytes to re-converge, repair traffic and
//!   staleness windows.
//!
//! Every quantity the paper reports is a *protocol* property, not a
//! network property, so a deterministic simulation reproduces the shapes
//! (who wins, by what factor) without a testbed; see DESIGN.md for the
//! substitution argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod metrics;
mod network;
mod parallel;
mod runner;
mod scenario;
mod sharded_engine;
mod topology;

pub use metrics::{RoundMetrics, RunMetrics};
pub use network::{Envelope, LinkFault, Network, NetworkConfig};
pub use runner::{run_experiment, Runner, Workload};
pub use scenario::{run_scenario, ScenarioEvent, ScenarioOutcome, ScenarioSchedule};
pub use sharded_engine::{
    register_runner_metrics, run_engine_experiment, KeyedOp, ShardedEngineRunner,
};
pub use topology::{DynamicTopology, Topology};
