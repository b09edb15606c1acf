#![warn(missing_docs)]

//! # parra-serve — the long-lived verification service
//!
//! Every `parra verify` invocation pays the full startup cost — parse,
//! classify, goal-transform, query planning — for one verdict. This
//! crate turns the verifier into a *service*: a daemon that holds the
//! warm state (a [`VerifierCache`](parra_core::VerifierCache) of
//! prepared verifiers, each keeping its makeP template and Datalog query
//! plans) across requests, so the marginal cost of a repeated query is
//! the engine run alone.
//!
//! The design splits cleanly in two:
//!
//! * [`proto`] — the line-delimited JSON protocol (version
//!   [`proto::PROTO_VERSION`]): request parsing with stable error codes,
//!   response rendering with a deterministic/volatile field split, and
//!   [`proto::canonical_response`] — the projection under which serve
//!   responses are reproducible byte-for-byte across daemon lifetimes,
//!   client interleavings, and cache states.
//! * [`server`] — transport-agnostic execution: admission control
//!   ([`parra_limits::AdmissionGate`] — bounded in-flight depth plus a
//!   live-heap watermark), per-request budgets anchored at admission,
//!   panic-isolated engine runs, and an optional flight-recorder event
//!   stream with per-request attribution that `parra report` ingests.
//!
//! The `parra serve` subcommand wires [`server::Server`] to a Unix
//! socket or stdio; everything here also runs in-process, which is how
//! the parity/robustness suites, the `serve-roundtrip` fuzz oracle, and
//! `bench_serve` exercise it without managing daemon processes.

pub mod proto;
pub mod server;

pub use proto::{canonical_response, ErrorCode, ProtoError, Request, PROTO_VERSION};
pub use server::{ServeConfig, Server};
