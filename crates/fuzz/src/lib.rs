#![warn(missing_docs)]
//! # parra-fuzz — differential fuzzing for the verification stack
//!
//! The paper's theorems are executable correctness criteria: Theorem 3.4
//! says the simplified semantics and concrete RA agree on safety, and
//! Theorem 4.1 / Lemma 4.3 say the direct search and the `makeP` Datalog
//! encoding implement the same decision procedure. This crate turns those
//! statements into a fuzzing subsystem:
//!
//! * [`gen`] — one seed-deterministic random-system generator
//!   ([`gen::SystemGen`]) with a [`gen::GenConfig`] of knobs (variables,
//!   domain, program length, dis count, CAS, loops) replacing the
//!   copy-pasted `random_system` helpers the integration tests grew;
//! * [`oracle`] — the pluggable [`oracle::Oracle`] trait and its concrete
//!   oracles (cross-engine agreement, Theorem 3.4 equivalence,
//!   pretty/parse round-trip, verdict monotonicity, and more);
//! * [`shrink`] — a delta-debugging [`shrink::Shrinker`] minimizing any
//!   failing system while re-checking the oracle;
//! * [`corpus`] — persistent `.ra` regression files with provenance
//!   headers, replayed by `cargo test`;
//! * [`runner`] — the deterministic fuzz loop behind the `parra fuzz` CLI
//!   subcommand, with `parra-obs` counters and a JSON summary.
//!
//! Everything is std-only, like the rest of the workspace.

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod runner;
pub mod shrink;

pub use parra_qbf::rng;
