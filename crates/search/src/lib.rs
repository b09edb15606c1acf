#![warn(missing_docs)]

//! # parra-search — search bookkeeping and the portfolio race
//!
//! The two state-space engines ([`Reachability`] in `parra-simplified` and
//! [`Explorer`] in `parra-ra`) are breadth-first searches on the calling
//! thread. They share their bookkeeping — state-id assignment, dedup, and
//! witness parents — through [`SearchGraph`].
//!
//! The crate also holds the workspace's one panic boundary and the
//! `--race` portfolio scheduler, built on `std` alone
//! (`std::thread::scope`; the workspace is dependency-free):
//!
//! | need | API |
//! |---|---|
//! | states + parents + dedup + witness unwind | [`SearchGraph`] |
//! | race N heterogeneous jobs to the first decisive result | [`race()`] |
//! | contain a panic as an error message | [`catch_panic`] |
//!
//! [`Reachability`]: ../parra_simplified/reach/struct.Reachability.html
//! [`Explorer`]: ../parra_ra/explore/struct.Explorer.html

pub mod graph;
pub mod race;

pub use graph::SearchGraph;
pub use race::{catch_panic, race, RaceOutcome};
