#![warn(missing_docs)]

//! # parra-core — the parameterized RA safety verifier
//!
//! The top of the stack: given a parameterized system
//! `env(nocas) ‖ dis₁(acyc) ‖ … ‖ disₙ(acyc)`, decide whether any instance
//! reaches an assertion violation (Section 4 of *"Parameterized
//! Verification under Release Acquire is PSPACE-complete"*, PODC 2022).
//!
//! Three engines, cross-validating each other:
//!
//! * [`EngineId::SimplifiedReach`] — the direct decision procedure on the
//!   simplified semantics (`parra-simplified`): saturation of the
//!   monotone `env` part interleaved with memoized `dis` search;
//! * [`EngineId::CacheDatalog`] — the paper's `makeP` encoding
//!   ([`makep`]): enumerate the nondeterministic guesses of the `dis`
//!   run skeletons, emit a Datalog program per guess (predicates `emp`,
//!   `etp`, `dmp`, `dtpᵢ`), and evaluate the goal query with the
//!   `parra-datalog` engine. On `Unsafe` it takes the winning guess
//!   through the paper's certificate route ([`witness`]): re-evaluation
//!   with provenance, the Lemma 4.6 schedule replayed under the `⊢ₖ`
//!   Cache semantics (reporting the Lemma 4.4 cache peak), and — inside
//!   the ≤2-atom-body fragment — the Lemma 4.2 cache→linear translation
//!   as a cross-check. Linear Datalog is this route's compilation
//!   target, not a separate decision procedure;
//! * [`EngineId::BoundedConcrete`] — the concrete-RA baseline
//!   (`parra-ra`): explicit-state exploration of instances with growing
//!   `env` counts; it can only ever return `Unsafe` or `Unknown` for a
//!   parameterized system, which is exactly the paper's motivation.
//!
//! The verifier also surfaces the §4.3 analysis: when a bug is found via
//! the simplified semantics, the dependency-graph cost bound says how many
//! `env` threads suffice to reproduce it.

pub mod cache;
pub mod engine;
pub mod makep;
pub mod verify;
pub mod witness;

pub use cache::VerifierCache;
pub use engine::{verify_text, SelectionOutcome};
pub use makep::{Guess, MakeP, MakePLimits};
/// The workspace's one panic boundary, re-exported for the front ends.
pub use parra_search::catch_panic;
pub use verify::{
    ConcreteWitness, EngineId, ParsedSystem, Verdict, VerificationResult, Verifier, VerifierOptions,
};
pub use witness::{DatalogWitness, LinearCheck};
