#![warn(missing_docs)]

//! # parra-limits — resource governance for worst-case-expensive engines
//!
//! Every verdict fragment this workspace decides is worst-case expensive:
//! the §4.3 cost bound is doubly exponential, the Lemma 4.2 cache→linear
//! cross-check is exponential, and the closely related full fragment is
//! non-primitive-recursive-hard. A server (or a CI job, or a fuzz loop)
//! cannot afford "run to completion or die"; it needs runs that are
//! *interruptible*, *bounded*, and *isolated*.
//!
//! This crate is the shared governance layer (std-only, like the rest of
//! the workspace):
//!
//! | need | API |
//! |---|---|
//! | "stop after 5 seconds" | [`ResourceBudget::with_deadline`] |
//! | "stop after 1 GiB" | [`ResourceBudget::with_memory_limit`] + [`TrackingAlloc`] |
//! | "stop when I say so" | [`CancelToken`] |
//! | what stopped us | [`InterruptReason`] |
//! | "turn away the 9th request" | [`AdmissionGate`] |
//!
//! Engines hold a [`ResourceBudget`] and call [`ResourceBudget::check`]
//! at **round granularity** — once per pre-closure world, BFS round, or
//! semi-naive delta round, never per state or per tuple. A check has no
//! side effects, so a run that *completes* under a budget is
//! byte-identical to an unlimited run; a run that exhausts its budget stops at
//! the next round boundary and reports the [`InterruptReason`] alongside
//! whatever partial statistics it accumulated.
//!
//! Memory accounting generalizes the counting-allocator regression test
//! that pinned the Datalog arena (`datalog/tests/arena_alloc.rs`): the
//! *binary* installs [`TrackingAlloc`] as its `#[global_allocator]`, and
//! [`heap_in_use`] then reports live process-heap bytes that
//! [`ResourceBudget::check`] compares against the limit. Library users
//! that do not install the allocator get `None` from [`heap_in_use`] and
//! memory limits are (soundly) not enforced — a budget can only make an
//! engine stop *earlier*, never change a completed verdict.

pub mod admission;
pub mod alloc;
pub mod budget;

pub use admission::{AdmissionGate, AdmissionPermit, RejectReason};
pub use alloc::{heap_in_use, heap_peak, TrackingAlloc};
pub use budget::{parse_byte_size, CancelToken, Headroom, InterruptReason, ResourceBudget};
