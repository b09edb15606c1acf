#![warn(missing_docs)]

//! # parra-simplified — the simplified RA semantics (Section 3)
//!
//! The paper's core contribution: an equivalent-for-safety semantics for
//! parameterized systems `env(nocas) ‖ dis₁ ‖ … ‖ disₙ` that replaces the
//! unbounded timestamps of RA by the finite *timestamp abstraction*
//! `ℕ ⊎ ℕ⁺` with order `0 < 0⁺ < 1 < 1⁺ < …` (Section 3.4):
//!
//! * integer timestamps are *slots* for `dis` stores — at most one store
//!   per slot;
//! * `ts⁺` timestamps are *gaps* shared by arbitrarily many `env` stores —
//!   the abstraction of "clones of this message exist at arbitrarily many
//!   timestamps in this gap" (Infinite Supply, Lemma 3.3);
//! * loads of `env` messages perform **no timestamp check**, only view
//!   joins (with the loaded coordinate landing in the gap above the
//!   reader's view — the clone the reader "really" reads);
//! * `dis` CAS reads an integer-timestamped message at slot `s`, stores at
//!   slot `s+1`, and **closes** gap `s⁺` forever — the abstract shadow of
//!   concrete timestamp adjacency.
//!
//! Because `env` threads are unboundedly many and indistinguishable, the
//! set of reachable `env` thread configurations and generated `env`
//! messages only ever grows (the copycat argument behind Lemma 3.3). The
//! reachability engine ([`reach`]) therefore *saturates* the `env` part to
//! a fixpoint between `dis` steps and explores the finite `dis` state
//! space on top — precisely the structure the paper's Datalog encoding
//! (Section 4) exploits.
//!
//! [`depgraph`] builds the dependency graphs of Definition 1 from found
//! witness runs, with the cost function of Section 4.3 ([`cost`]) that
//! bounds how many `env` threads a bug needs, and minimal re-derivation in
//! the spirit of the compaction lemma (Lemma 4.5).

pub mod cost;
pub mod depgraph;
pub mod message;
pub mod reach;
pub mod state;
pub mod timestamp;
pub mod view;

pub use cost::cost_of_graph;
pub use depgraph::{DepGraph, MsgNode, MsgRef};
pub use message::{AMessage, Origin};
pub use reach::{ReachLimits, ReachOutcome, ReachReport, Reachability, SimpTarget};
pub use state::{Budget, Seed, SimpState};
pub use timestamp::ATime;
pub use view::AView;
