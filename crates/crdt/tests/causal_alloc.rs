//! Allocation pins for the causal lattice's linear paths.
//!
//! Every causal type is a newtype over the one `Causal<S>` lattice, so
//! its mutators and its optimal delta must cost what a hand-written flat
//! store would: a mutation allocates for its delta and nothing
//! proportional to the state, `Δ(x, ⊥)` allocates per shipped part and
//! never re-joins what it has built so far, and `Δ(x, x)` allocates
//! next to nothing. The counting allocator is process-wide, so this
//! binary holds exactly one measuring test.

use crdt_lattice::{Bottom, Decompose, ReplicaId};
use crdt_types::{AWSet, ORMap, RWSet};
use testkit_alloc::{measure, AllocStats};

#[global_allocator]
static ALLOC: testkit_alloc::CountingAllocator = testkit_alloc::CountingAllocator;

const WRITERS: u32 = 4;
const ELEMENTS: u64 = 1024;

fn writer(e: u64) -> ReplicaId {
    ReplicaId((e % u64::from(WRITERS)) as u32)
}

/// The budget of a keyed (`DotMap`-backed) type: `Δ(x, ⊥)` may allocate
/// the nested store of each live part plus amortised growth, and no
/// more bytes than a small multiple of what cloning the state does; a
/// covered delta and a removal are O(1) allocations.
fn assert_keyed_budget<T: Decompose + Bottom + Clone>(label: &str, state: &T, remove: AllocStats) {
    let (copy, clone_stats) = measure(|| state.clone());
    drop(copy);
    let (full, full_stats) = measure(|| state.delta(&T::bottom()));
    assert!(
        full_stats.allocations <= 2 * ELEMENTS + 32,
        "{label}: delta(⊥) {full_stats:?}"
    );
    assert!(
        full_stats.allocated_bytes <= 4 * clone_stats.allocated_bytes,
        "{label}: delta(⊥) {full_stats:?} against a clone's {clone_stats:?}"
    );
    drop(full);
    let (covered, covered_stats) = measure(|| state.delta(state));
    assert!(covered.is_bottom(), "{label}: Δ(x, x) = ⊥");
    assert!(
        covered_stats.allocations <= 4,
        "{label}: covered delta {covered_stats:?}"
    );
    assert!(
        remove.allocations <= 4 && remove.allocated_bytes < 1024,
        "{label}: remove {remove:?}"
    );
}

#[test]
fn causal_paths_allocate_like_a_flat_store() {
    assert!(
        testkit_alloc::is_installed(),
        "the counting allocator must be this binary's global allocator"
    );

    let mut aw: AWSet<u64> = AWSet::new();
    for e in 0..ELEMENTS {
        let _ = aw.add(writer(e), e);
    }
    let (delta, stats) = measure(|| aw.add(writer(0), ELEMENTS));
    assert!(stats.allocations <= 3, "AWSet add {stats:?}");
    drop(delta);
    let (delta, stats) = measure(|| aw.remove(&(ELEMENTS / 2)));
    assert!(
        stats.allocations <= 1 && stats.allocated_bytes <= 256,
        "AWSet remove {stats:?}"
    );
    drop(delta);
    let (delta, stats) = measure(|| aw.delta(&AWSet::bottom()));
    assert!(stats.allocations <= 11, "AWSet delta(⊥) {stats:?}");
    drop(delta);
    let (delta, stats) = measure(|| aw.delta(&aw));
    assert!(stats.allocations <= 2, "AWSet covered delta {stats:?}");
    drop(delta);

    let mut rw: RWSet<u64> = RWSet::new();
    for e in 0..ELEMENTS {
        let _ = rw.add(writer(e), e);
    }
    let (delta, remove) = measure(|| rw.remove(writer(1), ELEMENTS / 2));
    drop(delta);
    assert_keyed_budget("RWSet", &rw, remove);

    let mut or: ORMap<u64, u64> = ORMap::new();
    for e in 0..ELEMENTS {
        let _ = or.put(writer(e), e, e);
    }
    let (delta, remove) = measure(|| or.remove(&(ELEMENTS / 2)));
    drop(delta);
    assert_keyed_budget("ORMap", &or, remove);
}
