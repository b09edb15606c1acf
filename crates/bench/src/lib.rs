#![warn(missing_docs)]

//! # parra-bench — the experiment harness
//!
//! One function per table/figure of the paper (see `DESIGN.md` §6 for the
//! experiment index). The `experiments` binary prints them all; the
//! std-only micro-benches in `benches/` (driven by [`micro`]) time the
//! same workloads. The six `bench_*` regression-gate binaries share one
//! harness, [`gate`]: one baseline schema, one `--out`/`--check` command
//! line, and one regression rule.

pub mod experiments;
pub mod gate;
pub mod micro;
pub mod table;

pub use experiments::*;
