//! # crdt-types
//!
//! A catalog of state-based CRDTs with **optimal δ-mutators**, built on the
//! join-decomposition machinery of [`crdt_lattice`] (paper: *"Efficient
//! Synchronization of State-based CRDTs"*, ICDE 2019).
//!
//! Every data type implements [`Crdt`]: a decomposable lattice whose
//! [`Crdt::apply`] performs a typed operation and returns the minimal delta
//! `mδ(x) = Δ(m(x), x)` (§III-B). The catalog covers the paper's running
//! examples and the compositions of Appendix B/C:
//!
//! | Type | Lattice shape | Paper reference |
//! |---|---|---|
//! | [`GCounter`] | `I ↪ ℕ` | Fig. 2a |
//! | [`GSet`] | `P(E)` | Fig. 2b |
//! | [`GMap`] | `K ↪ V` | §V-B micro-benchmarks |
//! | [`PNCounter`] | `I ↪ (ℕ × ℕ)` | Appendix C example |
//! | [`TwoPSet`] | `P(E) × P(E)` | product composition |
//! | [`LWWRegister`] | `(ℕ×I) ⋉ Max⟨V⟩` | lex composition, Appendix B |
//! | [`LexCounter`] | `I ↪ (ℕ ⋉ ℤ)` | Cassandra counters, Appendix B |
//! | [`MVRegister`] | `M(VClock × V)` | maximal-elements composition |
//!
//! Causal (dot-store) CRDTs extend the catalog with removals. All seven
//! are newtypes over one lattice, [`Causal`]`<S>` — a [`DotStore`] `S`
//! paired with a [`CausalContext`] ([`dotstores`]): [`AWSet`],
//! [`EWFlag`], [`CCounter`] and [`DWFlag`] over a [`DotFun`], [`ORMap`],
//! [`ORSetMap`] and [`RWSet`] over a nested [`DotMap`].
//!
//! ## Example
//!
//! ```
//! use crdt_lattice::{Lattice, ReplicaId};
//! use crdt_types::{Crdt, GCounter, GCounterOp};
//!
//! let a = ReplicaId(0);
//! let b = ReplicaId(1);
//!
//! let mut x = GCounter::new();
//! let mut y = GCounter::new();
//!
//! // Mutate each replica; keep the optimal deltas.
//! let dx = x.apply(&GCounterOp::IncBy(a, 3));
//! let dy = y.apply(&GCounterOp::Inc(b));
//!
//! // Ship only the deltas — replicas converge.
//! x.join_assign(dy);
//! y.join_assign(dx);
//! assert_eq!(x, y);
//! assert_eq!(x.value(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod causal;
pub mod dotstores;
mod flat;
mod gcounter;
mod gmap;
mod gset;
mod lexcounter;
mod lww;
mod macros;
mod mvregister;
mod pncounter;
mod traits;
mod twopset;
mod wire_ops;

pub use causal::{AWSet, AWSetOp, CCounter, CCounterOp, CausalContext, EWFlag, EWFlagOp};
pub use dotstores::{
    Causal, DWFlag, DWFlagOp, DotFun, DotMap, DotSet, DotStore, ORMap, ORMapOp, ORSetMap,
    ORSetMapOp, RWSet, RWSetOp,
};
pub use gcounter::{GCounter, GCounterOp};
pub use gmap::{GMap, GMapOp};
pub use gset::{GSet, GSetOp};
pub use lexcounter::{LexCounter, LexCounterOp};
pub use lww::{LWWOp, LWWRegister, WriteStamp};
pub use mvregister::{MVOp, MVRegister, Versioned};
pub use pncounter::{PNCounter, PNCounterOp};
pub use traits::{testing, Crdt};
pub use twopset::{TwoPSet, TwoPSetOp};
