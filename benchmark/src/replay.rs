//! Lockstep in-memory replay of an update stream under two protocols:
//! the paper's headline ratio, as an exact count.

use std::hash::Hash;

use crdt_lattice::{ReplicaId, Sizeable, WireEncode};
use crdt_sync::ProtocolKind;
use crdt_types::Crdt;
use delta_store::{Cluster, StoreConfig};

/// Model bytes (payload + metadata) `protocol` ships when `rounds` —
/// each a list of `(node, key, op)` — are applied one round at a time
/// with a sync round after each, over `neighbors`.
pub fn tx_bytes<K, C>(
    protocol: ProtocolKind,
    neighbors: &[Vec<ReplicaId>],
    rounds: &[Vec<(usize, K, C::Op)>],
) -> u64
where
    K: Ord + Clone + Sizeable + Hash,
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + 'static,
{
    let mut cluster: Cluster<K, C> =
        Cluster::with_neighbors(neighbors.to_vec(), StoreConfig::new(protocol));
    for round in rounds {
        for (node, key, op) in round {
            cluster.update(*node, key.clone(), op);
        }
        cluster.sync_round();
    }
    cluster.stats().total_bytes()
}

/// Classic-delta bytes over BP+RR bytes on the same rounds.
pub fn classic_tx_ratio<K, C>(
    neighbors: &[Vec<ReplicaId>],
    rounds: &[Vec<(usize, K, C::Op)>],
) -> f64
where
    K: Ord + Clone + Sizeable + Hash,
    C: Crdt + WireEncode + Send + 'static,
    C::Op: WireEncode + Send + 'static,
{
    let classic = tx_bytes::<K, C>(ProtocolKind::Classic, neighbors, rounds);
    let bp_rr = tx_bytes::<K, C>(ProtocolKind::BpRr, neighbors, rounds);
    classic as f64 / bp_rr as f64
}
