//! Parity and invariance property tests for the type-erased driver.
//!
//! 1. **Accounting parity with the generic reference.** For the δ-kinds
//!    (`classic`, `bp`, `rr`, `bp_rr`), a K-object
//!    [`ShardedEngineRunner`] run at `threads = 1` over a random keyed
//!    schedule accounts, round by round, exactly like K independent
//!    single-object [`Runner`] runs summed: per-object envelopes (the
//!    reference's messages), payload elements, payload bytes, metadata
//!    bytes (plus one key per envelope), and final states. Only the frame
//!    count differs — batching collapses it to O(links) — which is
//!    exactly the claim the `retwis_sharded` bench measures.
//!
//! 2. **Thread-count invariance for every kind**, on a reliable fabric,
//!    on the §II channel (duplication + reordering), and through a
//!    `flapping_link` schedule: identical final states, accounting and
//!    fabric RNG draws at 1 and 4 threads.

use crdt_lattice::{ReplicaId, SizeModel, Sizeable};
use crdt_sim::{
    run_scenario, KeyedOp, NetworkConfig, Runner, ScenarioSchedule, ShardedEngineRunner, Topology,
};
use crdt_sync::{BpDelta, BpRrDelta, ClassicDelta, Protocol, ProtocolKind, RrDelta};
use crdt_types::{GSet, GSetOp};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

const N: usize = 5;
const KEYS: u32 = 4;
const MODEL: SizeModel = SizeModel::compact();

/// One round's keyed ops per node, from a flat (node, key, elem) list.
type Schedule = Vec<Vec<Vec<KeyedOp<u32, GSet<u64>>>>>;

/// `rounds` rounds; per round up to 8 keyed ops spread over N nodes and
/// a 4-key space. Element values collide across nodes on purpose
/// (concurrent duplicate adds exercise RR extraction).
fn schedule_strategy(rounds: std::ops::Range<usize>) -> impl Strategy<Value = Schedule> {
    pvec(pvec((0usize..N, 0..KEYS, 0u64..16), 0..8), rounds).prop_map(|rounds| {
        rounds
            .into_iter()
            .map(|ops| {
                let mut per_node = vec![Vec::new(); N];
                for (node, key, elem) in ops {
                    per_node[node].push((key, GSetOp::Add(elem)));
                }
                per_node
            })
            .collect()
    })
}

fn topo() -> Topology {
    Topology::partial_mesh(N, 4)
}

/// Everything deterministic a finished run exposes: totals, per-object
/// final states, and the extra rounds convergence took.
type Fingerprint = (u64, u64, u64, u64, Vec<Option<GSet<u64>>>, Option<usize>);

fn run_sharded(
    kind: ProtocolKind,
    net: NetworkConfig,
    threads: usize,
    schedule: &Schedule,
) -> Fingerprint {
    let mut r: ShardedEngineRunner<u32, GSet<u64>> =
        ShardedEngineRunner::new(kind, topo(), net, MODEL, threads);
    for round in schedule {
        r.step(round);
    }
    let extra = r.run_to_convergence(64);
    let states = (0..N)
        .flat_map(|node| (0..KEYS).map(move |key| (node, key)))
        .map(|(node, key)| r.object_state(ReplicaId::from(node), &key).cloned())
        .collect();
    let m = r.metrics();
    (
        m.total_elements(),
        m.total_bytes(),
        m.total_messages(),
        m.total_envelopes(),
        states,
        extra,
    )
}

/// Property 1 for one δ-kind: `P` is the generic protocol `kind` erases.
fn sharded_run_is_the_sum_of_reference_runs<P: Protocol<GSet<u64>>>(
    kind: ProtocolKind,
    schedule: &Schedule,
) {
    let mut unified: ShardedEngineRunner<u32, GSet<u64>> =
        ShardedEngineRunner::new(kind, topo(), NetworkConfig::reliable(1), MODEL, 1);
    for round in schedule {
        unified.step(round);
    }
    unified.run_to_convergence(64).expect("unified converges");
    let rounds = unified.metrics().rounds.len();

    // One reference run per object, over exactly as many rounds: the
    // ops that named this key, then idle.
    let references: Vec<Runner<GSet<u64>, P>> = (0..KEYS)
        .map(|key| {
            let mut r = Runner::new(topo(), NetworkConfig::reliable(1), MODEL);
            let mut workload = |node: ReplicaId, round: usize| -> Vec<GSetOp<u64>> {
                let ops = schedule.get(round).map(|r| r[node.index()].as_slice());
                ops.unwrap_or_default()
                    .iter()
                    .filter(|(k, _)| *k == key)
                    .map(|(_, op)| op.clone())
                    .collect()
            };
            r.run(&mut workload, rounds);
            r
        })
        .collect();

    let key_bytes = 0u32.payload_bytes(&MODEL);
    for (r, ur) in unified.metrics().rounds.iter().enumerate() {
        let sum = |f: fn(&crdt_sim::RoundMetrics) -> u64| -> u64 {
            references.iter().map(|x| f(&x.metrics().rounds[r])).sum()
        };
        // The reference's per-object messages are the unified runner's
        // pre-batching envelopes; each carries its key as metadata.
        let envelopes = sum(|m| m.messages);
        assert_eq!(ur.envelopes, envelopes, "{} round {}: envelopes", kind, r);
        assert_eq!(
            ur.payload_elements,
            sum(|m| m.payload_elements),
            "{} round {}: elements",
            kind,
            r
        );
        assert_eq!(
            ur.payload_bytes,
            sum(|m| m.payload_bytes),
            "{} round {}: payload bytes",
            kind,
            r
        );
        assert_eq!(
            ur.metadata_bytes,
            sum(|m| m.metadata_bytes) + envelopes * key_bytes,
            "{} round {}: metadata bytes",
            kind,
            r
        );
        // Batching can only reduce frame count.
        assert!(ur.messages <= envelopes, "{} round {}: frames", kind, r);
    }
    let bottom = GSet::default();
    for (key, reference) in (0..KEYS).zip(&references) {
        for node in (0..N).map(ReplicaId::from) {
            // A key this node never heard of is `⊥` in the reference.
            assert_eq!(
                unified.object_state(node, &key).unwrap_or(&bottom),
                reference.node(node).state(),
                "{} node {} key {}: state",
                kind,
                node,
                key
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn threads1_matches_independent_generic_runs_summed(schedule in schedule_strategy(1..4)) {
        sharded_run_is_the_sum_of_reference_runs::<ClassicDelta<_>>(ProtocolKind::Classic, &schedule);
        sharded_run_is_the_sum_of_reference_runs::<BpDelta<_>>(ProtocolKind::Bp, &schedule);
        sharded_run_is_the_sum_of_reference_runs::<RrDelta<_>>(ProtocolKind::Rr, &schedule);
        sharded_run_is_the_sum_of_reference_runs::<BpRrDelta<_>>(ProtocolKind::BpRr, &schedule);
    }

    #[test]
    fn every_kind_is_thread_count_invariant(schedule in schedule_strategy(1..4), seed in 0u64..1024) {
        for kind in ProtocolKind::ALL {
            for net in [NetworkConfig::reliable(seed), NetworkConfig::chaotic(seed)] {
                let one = run_sharded(kind, net, 1, &schedule);
                prop_assert!(one.5.is_some(), "{} did not converge under {:?}", kind, net);
                prop_assert_eq!(&one, &run_sharded(kind, net, 4, &schedule), "{}: threads 1 vs 4", kind);
            }
        }
    }

    #[test]
    fn flapping_link_outcomes_are_thread_count_invariant(
        schedule in schedule_strategy(8..11),
        seed in 0u64..1024,
    ) {
        let flapping = ScenarioSchedule::builtin("flapping_link", N, schedule.len()).unwrap();
        for kind in ProtocolKind::ALL {
            let run = |threads: usize| {
                run_scenario::<u32, GSet<u64>>(
                    kind,
                    topo(),
                    &flapping,
                    NetworkConfig::reliable(seed),
                    MODEL,
                    threads,
                    &mut |node: ReplicaId, round: usize| schedule[round][node.index()].clone(),
                )
            };
            let one = run(1);
            prop_assert!(one.converged, "{} did not re-converge: {:?}", kind, one);
            prop_assert_eq!(&one, &run(4), "{}: threads 1 vs 4", kind);
        }
    }
}
