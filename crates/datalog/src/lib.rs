#![warn(missing_docs)]

//! # parra-datalog — a positive Datalog engine with linear and Cache
//! Datalog
//!
//! The PSPACE upper bound of *"Parameterized Verification under Release
//! Acquire is PSPACE-complete"* (PODC 2022, Section 4) rests on an
//! encoding of safety verification into the query evaluation problem for
//! **linear Datalog** (all rules have at most one body atom; combined
//! complexity PSPACE [Gottlob–Papadimitriou 2003]) via an intermediate
//! formalism, **Cache Datalog**: ordinary Datalog whose inference is
//! performed with a bounded working set (the *Cache*) from which atoms may
//! be non-deterministically dropped.
//!
//! This crate provides the full substrate:
//!
//! * [`ast`] — predicates, terms, atoms, rules, programs (with safety and
//!   arity validation) and a text [`parser`];
//! * [`eval`] — indexed semi-naive bottom-up evaluation (`Prog ⊢ g` for
//!   arbitrary positive Datalog): an interned tuple [`arena`],
//!   column-keyed join indices driven by a static join [`plan`], and
//!   optional provenance;
//! * [`naive`] — the unindexed reference evaluator the optimized engine is
//!   differentially pinned against (fuzzing, benchmarks);
//! * [`linear`] — the linear-Datalog fragment check and a worklist
//!   evaluator exploiting linearity;
//! * [`cache`] — Cache Datalog: bounded-cache provability `Prog ⊢ₖ g`
//!   (exact search) and derivation-guided cache scheduling (the
//!   constructive content of the paper's Lemma 4.6);
//! * [`translate`] — the Lemma 4.2 construction turning a Cache Datalog
//!   program with cache bound `k` into an equivalent linear Datalog
//!   program.

pub mod arena;
pub mod ast;
pub mod cache;
pub mod eval;
pub mod linear;
pub mod naive;
pub mod parser;
pub mod plan;
pub mod specialize;
pub mod translate;

pub use arena::{AtomId, TupleStore};
pub use ast::{Atom, Const, GroundAtom, PredId, Program, Rule, Term};
pub use cache::{cache_schedule, prove_with_cache, CacheSchedule};
pub use eval::{Database, Evaluator};
pub use linear::{is_linear, LinearEvaluator};
pub use naive::NaiveEvaluator;
pub use plan::PlanCache;
pub use translate::cache_to_linear;
