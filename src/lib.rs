#![warn(missing_docs)]

//! # parra — parameterized safety verification under Release-Acquire
//!
//! A full reproduction of *"Parameterized Verification under Release
//! Acquire is PSPACE-complete"* (Krishna, Godbole, Meyer, Chakraborty —
//! PODC 2022): the simplified semantics, the Datalog-based PSPACE decision
//! procedure, the dependency-graph/cost analysis, and the TQBF hardness
//! reduction — together with the substrates they need (the `Com` language,
//! the concrete RA semantics, a Datalog engine) and the benchmark suite
//! the paper classifies.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`program`] | the `Com` while-language, CFAs, classification, parser |
//! | [`ra`] | concrete RA semantics, bounded exploration, lifting/superposition/supply (Lemmas 3.1–3.3) |
//! | [`simplified`] | the simplified semantics (Section 3), reachability, dependency graphs, cost (§4.3) |
//! | [`datalog`] | Datalog engine, linear Datalog, Cache Datalog, Lemma 4.2 translation |
//! | [`core`] | the verifier: `makeP` encoding and engine orchestration (Section 4) |
//! | [`qbf`] | QBF and the Figure 6 TQBF→PureRA reduction (Section 5) |
//! | [`litmus`] | the benchmark programs the paper classifies |
//! | [`obs`] | zero-dependency metrics, phase timing, Chrome-trace emission, flight-recorder events |
//! | [`search`] | search bookkeeping shared by the state-space engines, and the `--race` portfolio |
//! | [`fuzz`] | differential fuzzing: system generator, cross-engine oracles, shrinker, corpus |
//! | [`limits`] | resource governance: deadlines, memory budgets, cooperative cancellation |
//! | [`campaign`] | checkpointed, sharded, resumable, diffable verification campaigns |
//! | [`serve`] | long-lived verification service: JSON protocol, admission control, warm caches |
//!
//! # Quickstart
//!
//! ```
//! use parra::prelude::*;
//!
//! let sys = parse_system(
//!     r#"
//!     system {
//!         dom 2;
//!         vars x, y;
//!         env producer {
//!             regs r;
//!             r <- y;
//!             assume r == 1;
//!             x := 1;
//!         }
//!         dis consumer {
//!             regs s;
//!             y := 1;
//!             s <- x;
//!             assume s == 1;
//!             assert false;
//!         }
//!     }
//!     "#,
//! )?;
//! let verifier = Verifier::new(&sys, VerifierOptions::default())?;
//! let result = verifier.run(EngineId::SimplifiedReach);
//! assert_eq!(result.verdict, Verdict::Unsafe);
//! // How many env threads does the bug need? (§4.3)
//! assert_eq!(result.env_thread_bound, Some(1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use parra_campaign as campaign;
pub use parra_core as core;
pub use parra_datalog as datalog;
pub use parra_fuzz as fuzz;
pub use parra_limits as limits;
pub use parra_litmus as litmus;
pub use parra_obs as obs;
pub use parra_program as program;
pub use parra_qbf as qbf;
pub use parra_ra as ra;
pub use parra_search as search;
pub use parra_serve as serve;
pub use parra_simplified as simplified;

/// The most common imports in one place.
pub mod prelude {
    pub use parra_core::engine::SelectionOutcome;
    pub use parra_core::verify::{
        aggregate_verdicts, EngineId, Verdict, VerificationResult, Verifier, VerifierOptions,
    };
    pub use parra_limits::{CancelToken, InterruptReason, ResourceBudget};
    pub use parra_program::builder::{ProgramBuilder, SystemBuilder};
    pub use parra_program::classify::{Complexity, SystemClass};
    pub use parra_program::parser::parse_system;
    pub use parra_program::system::{ParamSystem, Program, ThreadKind};
    pub use parra_program::value::{Dom, Val};
    pub use parra_simplified::reach::{ReachLimits, Reachability, SimpTarget};
    pub use parra_simplified::state::Budget;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let mut b = SystemBuilder::new(2);
        let x = b.var("x");
        let mut env = b.program("env");
        env.store(x, 1);
        let env = env.finish();
        let sys = b.build(env, vec![]);
        assert!(SystemClass::of(&sys).is_decidable_fragment());
        let verifier = Verifier::new(&sys, VerifierOptions::default()).unwrap();
        assert_eq!(
            verifier.run(EngineId::SimplifiedReach).verdict,
            Verdict::Safe
        );
    }
}
