#![warn(missing_docs)]

//! # parra-search — deterministic sharded-frontier parallel search
//!
//! The two state-space engines ([`Reachability`] in `parra-simplified` and
//! [`Explorer`] in `parra-ra`) are breadth-first searches whose hot path —
//! expanding a state into its saturated/canonicalized successors — is
//! embarrassingly parallel across the frontier, while their bookkeeping
//! (state-id assignment, dedup, limits, witness parents) must stay
//! *deterministic* so that a parallel run reports byte-identical verdicts,
//! state counts, and witnesses to the sequential one.
//!
//! This crate provides the shared machinery, built on `std` alone
//! (`std::thread::scope`; the workspace is dependency-free):
//!
//! | need | API |
//! |---|---|
//! | pick a worker count | [`Threads`] (`--threads` > `PARRA_THREADS` > `available_parallelism`) |
//! | expand a frontier in parallel, merge in order | [`ordered_map`] |
//! | hash-sharded visited set | [`ShardedIndex`] |
//! | states + parents + dedup + witness unwind | [`SearchGraph`] |
//! | race N heterogeneous jobs to the first decisive result | [`race()`] |
//!
//! The invariant every engine built on this crate maintains: **worker
//! threads only produce per-item results; all decisions that affect the
//! report (id assignment, dedup, truncation, target checks) happen in a
//! sequential merge that walks the items in frontier order** — the exact
//! order the legacy single-threaded loop used. Parallelism changes
//! wall-clock time, never the answer.
//!
//! [`Reachability`]: ../parra_simplified/reach/struct.Reachability.html
//! [`Explorer`]: ../parra_ra/explore/struct.Explorer.html

pub mod frontier;
pub mod graph;
pub mod race;
pub mod shard;
pub mod threads;

pub use frontier::{ordered_map, round_chunk};
pub use graph::SearchGraph;
pub use race::{catch_panic, race, RaceOutcome};
pub use shard::ShardedIndex;
pub use threads::Threads;
