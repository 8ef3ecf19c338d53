//! Reconnect storms: clients dialing and dropping in a loop must not
//! leak fds or wedge the node.
//!
//! The leak check counts the **process-global** `/proc/self/fd`, and
//! `cargo test` runs a binary's tests on parallel threads — so this
//! binary holds exactly one test: the process, and its fd table, is the
//! test's alone.

use std::time::{Duration, Instant};

use crdt_lattice::ReplicaId;
use crdt_net::{NetClient, NodeConfig, NodeHandle};
use crdt_sync::ProtocolKind;
use crdt_types::{GSet, GSetOp};
use delta_store::StoreConfig;

const A: ReplicaId = ReplicaId(0);

type Node = NodeHandle<u64, GSet<u64>>;

fn cfg(protocol: ProtocolKind) -> NodeConfig {
    NodeConfig::new(StoreConfig::new(protocol), 2)
}

/// Poll `probe` until it returns true or `timeout` passes.
fn eventually(timeout: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if probe() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Count this process's open file descriptors.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count())
}

/// N clients dialing, speaking once, and dropping in a tight loop: the
/// node must shed every dead connection (no fd leak, no wedge).
#[test]
fn reconnect_storm_leaks_no_fds_and_does_not_wedge() {
    const STORM: usize = 150;
    let node: Node = NodeHandle::spawn(A, cfg(ProtocolKind::BpRr)).unwrap();
    node.update(1, &GSetOp::Add(7));

    // Warm up one connect/drop cycle so lazily allocated fds (thread
    // stacks, epoll-free poll plumbing) are in place before measuring.
    {
        let mut c: NetClient<u64, GSet<u64>> =
            NetClient::connect(node.addr(), crdt_net::framing::DEFAULT_MAX_FRAME_BYTES).unwrap();
        c.probe().unwrap();
    }
    let fds_before = open_fds();

    for i in 0..STORM {
        let mut c: NetClient<u64, GSet<u64>> =
            NetClient::connect(node.addr(), crdt_net::framing::DEFAULT_MAX_FRAME_BYTES).unwrap();
        if i % 3 == 0 {
            assert_eq!(c.get(1).unwrap(), Some(GSet::from_iter([7u64])));
        } else {
            c.probe().unwrap();
        }
        // Dropped here: the server sees EOF and must prune.
    }

    // Every storm connection is shed…
    assert!(
        eventually(Duration::from_secs(5), || node.live_connections() == 0),
        "storm connections were never pruned: {} still live",
        node.live_connections()
    );
    // …and the fd table is back where it started (generous slack for
    // allocator/runtime noise — a leak of 150 sockets dwarfs it).
    let fds_after = open_fds();
    assert!(
        fds_after <= fds_before + 10,
        "fd leak under reconnect storm: {fds_before} -> {fds_after}"
    );

    // Still serving after the storm.
    let mut c: NetClient<u64, GSet<u64>> =
        NetClient::connect(node.addr(), crdt_net::framing::DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(c.probe().unwrap().node, A);
    node.shutdown_untyped();
}
