//! Classification of systems into the paper's complexity landscape
//! (Table 1).
//!
//! A thread type is constrained by two restrictions: `acyc` (loop-free
//! control flow) and `nocas` (no compare-and-swap). The decidability and
//! complexity of parameterized safety verification depend on which
//! restrictions the `env` and `dis` threads satisfy.

use crate::cfg::Cfa;
use crate::system::ParamSystem;
use std::fmt;

/// The restrictions satisfied by one thread's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadClass {
    /// Loop-free control flow (`acyc`).
    pub acyc: bool,
    /// No compare-and-swap instructions (`nocas`).
    pub nocas: bool,
}

impl ThreadClass {
    /// Computes the class of a compiled program.
    pub fn of(cfa: &Cfa) -> ThreadClass {
        ThreadClass {
            acyc: cfa.is_acyclic(),
            nocas: cfa.is_cas_free(),
        }
    }
}

impl fmt::Display for ThreadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.nocas, self.acyc) {
            (true, true) => write!(f, "(nocas, acyc)"),
            (true, false) => write!(f, "(nocas)"),
            (false, true) => write!(f, "(acyc)"),
            (false, false) => write!(f, ""),
        }
    }
}

/// The signature `env(type) ‖ dis₁(type) ‖ … ‖ disₙ(type)` of a system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemClass {
    /// Class of the environment program.
    pub env: ThreadClass,
    /// Classes of the distinguished programs.
    pub dis: Vec<ThreadClass>,
}

impl SystemClass {
    /// Computes the signature of a system.
    pub fn of(sys: &ParamSystem) -> SystemClass {
        SystemClass {
            env: ThreadClass::of(sys.env.cfa()),
            dis: sys.dis.iter().map(|p| ThreadClass::of(p.cfa())).collect(),
        }
    }

    /// The complexity of parameterized safety verification for this class,
    /// per Table 1 of the paper.
    pub fn complexity(&self) -> Complexity {
        if !self.env.nocas {
            // Theorem 1.1: env(acyc) with CAS is already undecidable, so any
            // env class containing CAS is.
            return Complexity::Undecidable;
        }
        if self.dis.iter().all(|d| d.acyc) {
            // Theorem 4.1 + Theorem 5.1: env(nocas) ‖ dis₁(acyc) ‖ … ‖
            // disₙ(acyc) is PSPACE-complete.
            return Complexity::PspaceComplete;
        }
        if self.dis.iter().all(|d| d.nocas) && self.dis.len() <= 2 {
            // From [1] (Abdulla et al., PLDI 2019): two CAS-free
            // distinguished threads make the problem non-primitive-recursive
            // but decidable; the parameterized env(nocas) extension inherits
            // the lower bound. Whether it stays decidable with unboundedly
            // many env threads is open (see Conclusion), so we only claim
            // the lower bound for the non-parameterized core here.
            return Complexity::NonPrimitiveRecursive;
        }
        if self.dis.iter().any(|d| !d.nocas) {
            // Four unrestricted (CAS, loops) threads are undecidable [1];
            // with loops and CAS in dis we conservatively report
            // undecidable.
            return Complexity::Undecidable;
        }
        // env(nocas) ‖ dis(nocas)* with >2 looping dis threads: open.
        Complexity::Open
    }

    /// Whether the system is in the class the paper's algorithm decides:
    /// `env(nocas) ‖ dis₁(acyc) ‖ … ‖ disₙ(acyc)`.
    pub fn is_decidable_fragment(&self) -> bool {
        self.env.nocas && self.dis.iter().all(|d| d.acyc)
    }
}

impl fmt::Display for SystemClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "env{}", self.env)?;
        for (i, d) in self.dis.iter().enumerate() {
            write!(f, " ‖ dis{}{}", i + 1, d)?;
        }
        Ok(())
    }
}

/// Decidability/complexity of parameterized safety verification (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Complexity {
    /// Decidable in PSPACE, with a matching lower bound (Theorems 4.1, 5.1).
    PspaceComplete,
    /// Decidable but non-primitive-recursive (inherited from \[1\]).
    NonPrimitiveRecursive,
    /// Undecidable (Theorem 1.1 / \[1\]).
    Undecidable,
    /// Open problem (CAS-free threads with loops on both sides; see the
    /// paper's Conclusion).
    Open,
}

impl fmt::Display for Complexity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Complexity::PspaceComplete => "PSPACE-complete",
            Complexity::NonPrimitiveRecursive => "non-primitive-recursive",
            Complexity::Undecidable => "undecidable",
            Complexity::Open => "open",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ident::{SymbolTable, VarId};
    use crate::stmt::Com;
    use crate::system::Program;
    use crate::value::Dom;

    fn prog(name: &str, com: Com) -> Program {
        let regs: SymbolTable = ["r0", "r1"].iter().map(|s| s.to_string()).collect();
        Program::new(name, regs, com)
    }

    fn sys(env: Com, dis: Vec<Com>) -> ParamSystem {
        let vars: SymbolTable = ["x"].iter().map(|s| s.to_string()).collect();
        ParamSystem::new(
            Dom::boolean(),
            vars,
            prog("env", env),
            dis.into_iter()
                .enumerate()
                .map(|(i, c)| prog(&format!("d{i}"), c))
                .collect(),
        )
    }

    fn store() -> Com {
        Com::Store(VarId(0), Expr::val(1))
    }
    fn cas() -> Com {
        Com::Cas(VarId(0), Expr::val(0), Expr::val(1))
    }

    #[test]
    fn pspace_fragment() {
        let s = sys(Com::star(store()), vec![store(), cas()]);
        let c = SystemClass::of(&s);
        assert!(c.is_decidable_fragment());
        assert_eq!(c.complexity(), Complexity::PspaceComplete);
        assert_eq!(c.to_string(), "env(nocas) ‖ dis1(nocas, acyc) ‖ dis2(acyc)");
    }

    #[test]
    fn env_cas_is_undecidable() {
        let s = sys(cas(), vec![]);
        let c = SystemClass::of(&s);
        assert!(!c.is_decidable_fragment());
        assert_eq!(c.complexity(), Complexity::Undecidable);
    }

    #[test]
    fn two_nocas_loopy_dis_non_primitive_recursive() {
        let loopy = Com::star(store());
        let s = sys(store(), vec![loopy.clone(), loopy]);
        let c = SystemClass::of(&s);
        assert_eq!(c.complexity(), Complexity::NonPrimitiveRecursive);
    }

    #[test]
    fn loopy_cas_dis_undecidable() {
        let s = sys(store(), vec![Com::star(cas())]);
        assert_eq!(SystemClass::of(&s).complexity(), Complexity::Undecidable);
    }

    #[test]
    fn many_nocas_loopy_dis_open() {
        let loopy = Com::star(store());
        let s = sys(store(), vec![loopy.clone(), loopy.clone(), loopy]);
        assert_eq!(SystemClass::of(&s).complexity(), Complexity::Open);
    }

    #[test]
    fn thread_class_display() {
        let pure = ThreadClass {
            acyc: true,
            nocas: true,
        };
        assert_eq!(pure.to_string(), "(nocas, acyc)");
        let unrestricted = ThreadClass {
            acyc: false,
            nocas: false,
        };
        assert_eq!(unrestricted.to_string(), "");
    }

    #[test]
    fn complexity_display() {
        assert_eq!(Complexity::PspaceComplete.to_string(), "PSPACE-complete");
        assert_eq!(Complexity::Open.to_string(), "open");
    }
}
