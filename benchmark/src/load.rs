//! Seeded inputs shared by the workloads: timeline updates over a Zipf
//! key distribution, and the by-value model they are checked against.

use std::collections::BTreeMap;

use crdt_lattice::{Max, ReplicaId};
use crdt_sync::ProtocolKind;
use crdt_types::{Crdt, GMapOp};
use crdt_workloads::{Timeline, Zipf};
use delta_store::StoreConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Object key. Users are `0..objects`; the visibility probe owns
/// [`PROBE_KEY`].
pub type Key = u32;

/// An update to one [`Timeline`].
pub type TimelineOp = GMapOp<u64, Max<String>>;

/// The object only the visibility prober writes.
pub const PROBE_KEY: Key = Key::MAX;

/// Zipf coefficient of every workload (the paper's middle setting).
pub const ZIPF_S: f64 = 1.0;

/// Entries a timeline holds. Pre-population fills every slot and each
/// update overwrites one slot with a larger tweet id, so every update
/// inflates its object while object size — and with it the cost of a
/// `get`, a digest or a sync step — is the same from the first second of
/// a window to the last, however long it runs.
pub const SLOTS: u64 = 4;

/// The `seq`-th update overall: a 31-byte tweet id (the paper's size)
/// into slot `slot`. Ids grow with `seq`, so a later update always wins
/// its slot.
pub fn timeline_op(slot: u64, seq: u64) -> TimelineOp {
    GMapOp::Apply {
        key: slot % SLOTS,
        value: Max::new(format!("tweet:{seq:025}")),
    }
}

/// The prober's `seq`-th write.
pub fn probe_op(seq: u64) -> TimelineOp {
    GMapOp::Apply {
        key: 0,
        value: Max::new(format!("{seq:020}")),
    }
}

/// The sequence number a probe object currently shows.
pub fn probe_seq(object: Option<&Timeline>) -> Option<u64> {
    object?.get(&0)?.get().parse().ok()
}

/// Seeded stream of `(key, op)` updates, Zipf over `objects` keys.
#[derive(Debug)]
pub struct UpdateStream {
    rng: StdRng,
    zipf: Zipf,
    seq: u64,
}

impl UpdateStream {
    /// A stream whose sequence numbers start above those of the
    /// pre-populating writes, so it always overwrites them.
    pub fn new(seed: u64, objects: usize) -> Self {
        UpdateStream {
            rng: StdRng::seed_from_u64(seed),
            zipf: Zipf::new(objects, ZIPF_S),
            seq: objects as u64 * SLOTS,
        }
    }

    /// A Zipf-distributed key.
    pub fn key(&mut self) -> Key {
        self.zipf.sample(&mut self.rng) as Key
    }

    /// The next update.
    pub fn update(&mut self) -> (Key, TimelineOp) {
        self.seq += 1;
        let slot = self.rng.gen_range(0..SLOTS);
        (self.key(), timeline_op(slot, self.seq))
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.rng.gen_bool(0.5)
    }

    /// A uniform draw below `n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.rng.gen_range(0..n)
    }
}

/// The writes that pre-populate object `key`: one per slot, numbered
/// below every later update.
pub fn populate_ops(key: Key) -> impl Iterator<Item = TimelineOp> {
    (0..SLOTS).map(move |slot| timeline_op(slot, u64::from(key) * SLOTS + slot))
}

/// What every replica must hold once all of `updates` have propagated:
/// the join of the pre-population and each update, computed with the CRDT
/// itself, independent of any store or protocol.
pub fn model<'a>(
    objects: usize,
    updates: impl IntoIterator<Item = &'a (Key, TimelineOp)>,
) -> BTreeMap<Key, Timeline> {
    let mut model: BTreeMap<Key, Timeline> = BTreeMap::new();
    for key in 0..objects as Key {
        let object = model.entry(key).or_default();
        for op in populate_ops(key) {
            let _ = object.apply(&op);
        }
    }
    for (key, op) in updates {
        let _ = model.entry(*key).or_default().apply(op);
    }
    model
}

/// Objects on which a replica holding `held` objects differs from
/// `model` (missing, extra or unequal), by value. `holds(key, want)` says
/// whether the replica's object at `key` equals `want`.
pub fn mismatches<K: Ord, C>(
    model: &BTreeMap<K, C>,
    held: usize,
    holds: impl Fn(&K, &C) -> bool,
) -> usize {
    let unequal = model.iter().filter(|(k, want)| !holds(k, want)).count();
    unequal + held.abs_diff(model.len())
}

/// The configuration of every store in the benchmark: the paper's
/// proposal, default size model.
pub fn bp_rr() -> StoreConfig {
    StoreConfig::new(ProtocolKind::BpRr)
}

/// Every node linked to every other.
pub fn full_mesh(n: usize) -> Vec<Vec<ReplicaId>> {
    (0..n)
        .map(|i| (0..n).filter(|j| *j != i).map(ReplicaId::from).collect())
        .collect()
}

/// The paper's 15-node partial mesh of degree 4: a ring where each node
/// also links to its second neighbours.
pub fn partial_mesh(n: usize) -> Vec<Vec<ReplicaId>> {
    (0..n)
        .map(|i| {
            let mut links: Vec<usize> = [1, 2, n - 1, n - 2].iter().map(|d| (i + d) % n).collect();
            links.sort_unstable();
            links.dedup();
            links.into_iter().map(ReplicaId::from).collect()
        })
        .collect()
}

/// Hops between the two farthest nodes of [`partial_mesh`]: each hop
/// covers at most two ring positions.
pub fn partial_mesh_diameter(n: usize) -> usize {
    (n / 2).div_ceil(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let take = |seed| {
            let mut s = UpdateStream::new(seed, 100);
            (0..50).map(|_| s.update()).collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
    }

    #[test]
    fn every_update_inflates_its_object() {
        let mut s = UpdateStream::new(1, 4);
        let mut objects = model(4, []);
        for _ in 0..200 {
            let (k, op) = s.update();
            let delta = objects.get_mut(&k).unwrap().apply(&op);
            assert!(!crdt_lattice::Bottom::is_bottom(&delta), "a no-op update");
        }
        assert!(objects.values().all(|o| o.len() == SLOTS as usize));
    }

    #[test]
    fn probe_values_order_like_their_sequence_numbers() {
        let mut t = Timeline::default();
        let _ = t.apply(&probe_op(9));
        let _ = t.apply(&probe_op(10));
        let _ = t.apply(&probe_op(3));
        assert_eq!(probe_seq(Some(&t)), Some(10));
        assert_eq!(probe_seq(None), None);
    }

    #[test]
    fn partial_mesh_has_degree_four_and_the_stated_diameter() {
        let mesh = partial_mesh(15);
        assert!(mesh.iter().all(|l| l.len() == 4));
        assert!(
            mesh[0].contains(&ReplicaId::from(2usize))
                && mesh[0].contains(&ReplicaId::from(13usize))
        );
        // Breadth-first search from node 0.
        let mut dist = vec![usize::MAX; 15];
        dist[0] = 0;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(i) = queue.pop_front() {
            for peer in &mesh[i] {
                if dist[peer.index()] == usize::MAX {
                    dist[peer.index()] = dist[i] + 1;
                    queue.push_back(peer.index());
                }
            }
        }
        assert_eq!(dist.into_iter().max(), Some(partial_mesh_diameter(15)));
    }
}
