//! Checked-in wire vectors for the causal types (`ci/wire-vectors/causal`).
//!
//! Round-trip properties cannot see a format change that moves encode
//! and decode together; these vectors can. Each file holds the hex of
//! one value's encoding, generated once from the commit *before* the
//! causal types were folded onto the single `Causal<S>` lattice, and
//! every value is rebuilt here through the public API and held to
//! `encode(value) == bytes` **and** `decode(bytes) == value`.

use std::fmt::Debug;

use crdt_lattice::{Dot, Lattice, ReplicaId, WireEncode};
use crdt_types::{AWSet, CCounter, CausalContext, DWFlag, EWFlag, ORMap, ORSetMap, RWSet};

const A: ReplicaId = ReplicaId(0);
const B: ReplicaId = ReplicaId(1);
const C: ReplicaId = ReplicaId(7);

fn vector(name: &str) -> Vec<u8> {
    let path = format!(
        "{}/../../ci/wire-vectors/causal/{name}.hex",
        env!("CARGO_MANIFEST_DIR")
    );
    let hex = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let hex = hex.trim();
    assert!(hex.len() % 2 == 0, "{name}: odd hex length");
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap_or_else(|e| panic!("{name}: {e}")))
        .collect()
}

fn check<T: WireEncode + PartialEq + Debug>(name: &str, value: &T) {
    let bytes = vector(name);
    assert_eq!(value.to_bytes(), bytes, "{name}: encode moved");
    assert_eq!(
        &T::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e:?}")),
        value,
        "{name}: decode moved"
    );
}

#[test]
fn causal_context_with_clock_run_and_cloud_dot() {
    let mut ctx = CausalContext::new();
    for seq in 1..=3 {
        ctx.insert(Dot::new(A, seq));
    }
    ctx.insert(Dot::new(A, 6)); // cloud: gap at 4..=5
    ctx.insert(Dot::new(C, 2)); // cloud: no prefix for C
    check("context", &ctx);
}

#[test]
fn awset_state_and_delta() {
    let mut s: AWSet<String> = AWSet::new();
    let _ = s.add(A, "apple".into());
    let _ = s.add(B, "banana".into());
    let _ = s.add(A, "cherry".into());
    let _ = s.remove(&"banana".to_string());
    // A delta joined out of causal order leaves a cloud dot behind.
    let mut other: AWSet<String> = AWSet::new();
    let _ = other.add(C, "skipped".into());
    let late = other.add(C, "date".into());
    s.join_assign(late);
    check("awset_state", &s);
    check("awset_delta", &s.add(B, "apple".into()));
}

#[test]
fn ewflag_state_and_delta() {
    let mut f = EWFlag::new();
    let _ = f.enable(A);
    let _ = f.disable();
    let _ = f.enable(B);
    let _ = f.enable(A);
    check("ewflag_state", &f);
    check("ewflag_delta", &f.disable());
}

#[test]
fn ccounter_state_and_delta() {
    let mut c = CCounter::new();
    let _ = c.add(A, 5);
    let _ = c.add(B, -300);
    let _ = c.add(A, 2);
    check("ccounter_state", &c);
    check("ccounter_delta", &c.add(B, 1_000_000));
}

#[test]
fn ormap_state_and_delta() {
    let mut m: ORMap<String, u64> = ORMap::new();
    let _ = m.put(A, "k1".into(), 1);
    let _ = m.put(B, "k2".into(), 2);
    let _ = m.put(A, "k3".into(), 3);
    let _ = m.remove(&"k2".to_string());
    // Concurrent puts to one key: a two-value leaf.
    let mut other: ORMap<String, u64> = ORMap::new();
    m.join_assign(other.put(C, "k1".into(), 70_000));
    check("ormap_state", &m);
    check("ormap_delta", &m.put(B, "k1".into(), 9));
}

#[test]
fn orsetmap_state_and_delta() {
    let mut m: ORSetMap<u8, String> = ORSetMap::new();
    let _ = m.add(A, 1, "x".into());
    let _ = m.add(B, 1, "y".into());
    let _ = m.add(A, 2, "z".into());
    let _ = m.add(B, 3, "gone".into());
    let _ = m.remove_elem(&1, &"x".to_string());
    let _ = m.remove_key(&3);
    check("orsetmap_state", &m);
    check("orsetmap_delta", &m.remove_key(&1));
}

#[test]
fn rwset_state_and_delta() {
    let mut s: RWSet<u32> = RWSet::new();
    let _ = s.add(A, 10);
    let _ = s.add(B, 20);
    let _ = s.remove(A, 10);
    let _ = s.add(A, 300);
    // A concurrent add of a removed element: both votes stay live.
    let mut other: RWSet<u32> = RWSet::new();
    s.join_assign(other.add(C, 10));
    check("rwset_state", &s);
    check("rwset_delta", &s.remove(B, 300));
}

#[test]
fn dwflag_state_and_delta() {
    let mut f = DWFlag::new();
    let _ = f.enable(A);
    let _ = f.disable(B);
    let mut other = DWFlag::new();
    f.join_assign(other.enable(C));
    check("dwflag_state", &f);
    check("dwflag_delta", &f.enable(A));
}
