//! Datalog abstract syntax: constants, terms, atoms, rules, programs.
//!
//! Programs are *positive* Datalog: no negation. Rules must be *safe*
//! (every head variable occurs in the body; facts are ground). A rule with
//! at most one body atom is *linear*; a program of linear rules and facts
//! is a linear Datalog program (Section 4 of the paper).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An (opaque) constant. Constants are dense `u32` ids; a [`Program`] can
/// attach display names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Const(pub u32);

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A predicate identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredId(pub u32);

/// A term: a rule-local variable or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Term {
    /// A rule-local variable (dense per rule).
    Var(u32),
    /// A constant.
    Const(Const),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(i: u32) -> Term {
        Term::Var(i)
    }

    /// Shorthand for a constant term.
    pub fn cst(c: u32) -> Term {
        Term::Const(Const(c))
    }
}

/// An atom `p(t₁, …, tₙ)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The predicate.
    pub pred: PredId,
    /// The argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(pred: PredId, terms: Vec<Term>) -> Atom {
        Atom { pred, terms }
    }

    /// Whether all terms are constants.
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(|t| matches!(t, Term::Const(_)))
    }

    /// The variables occurring in the atom.
    pub fn variables(&self) -> Vec<u32> {
        let mut vs: Vec<u32> = self
            .terms
            .iter()
            .filter_map(|t| match t {
                Term::Var(v) => Some(*v),
                Term::Const(_) => None,
            })
            .collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// Converts a ground atom view of this atom.
    ///
    /// # Panics
    ///
    /// Panics if the atom is not ground.
    pub fn to_ground(&self) -> GroundAtom {
        GroundAtom {
            pred: self.pred,
            args: self
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => *c,
                    Term::Var(v) => panic!("atom is not ground: variable X{v}"),
                })
                .collect(),
        }
    }
}

/// A ground atom `p(c₁, …, cₙ)` — the objects inferred by evaluation and
/// stored in caches.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroundAtom {
    /// The predicate.
    pub pred: PredId,
    /// The argument constants.
    pub args: Vec<Const>,
}

impl GroundAtom {
    /// Creates a ground atom.
    pub fn new(pred: PredId, args: Vec<Const>) -> GroundAtom {
        GroundAtom { pred, args }
    }
}

/// An inference rule `head :- body₁, …, bodyₜ`. Facts have empty bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The head atom.
    pub head: Atom,
    /// The body atoms (empty for facts).
    pub body: Vec<Atom>,
}

impl Rule {
    /// Whether the rule is a fact (empty body).
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// Whether the rule is linear (at most one body atom).
    pub fn is_linear(&self) -> bool {
        self.body.len() <= 1
    }
}

/// Why a rule is rejected by [`Program`] validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleError {
    /// A predicate is used with the wrong number of arguments.
    ArityMismatch {
        /// The offending predicate.
        pred: PredId,
        /// Its declared arity.
        expected: usize,
        /// The number of terms supplied.
        got: usize,
    },
    /// A head variable does not occur in the body (unsafe rule).
    UnsafeVariable {
        /// The unbound variable.
        var: u32,
    },
    /// An unknown predicate id.
    UnknownPredicate(PredId),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::ArityMismatch {
                pred,
                expected,
                got,
            } => write!(
                f,
                "predicate p{} used with {got} arguments, declared with {expected}",
                pred.0
            ),
            RuleError::UnsafeVariable { var } => {
                write!(f, "head variable X{var} does not occur in the body")
            }
            RuleError::UnknownPredicate(p) => write!(f, "unknown predicate p{}", p.0),
        }
    }
}

impl std::error::Error for RuleError {}

#[derive(Debug, Clone)]
struct PredInfo {
    name: Arc<str>,
    arity: usize,
}

/// A positive Datalog program: a predicate registry, constant names, and
/// validated rules.
///
/// Rules are stored behind [`Arc`], so programs built from a common
/// template (the `makeP` guess fleet) can share rule values instead of
/// copying them; see [`Program::extend_shared`].
///
/// # Example
///
/// ```
/// use parra_datalog::ast::{Atom, Program, Term};
///
/// let mut p = Program::new();
/// let edge = p.predicate("edge", 2);
/// let path = p.predicate("path", 2);
/// let a = p.constant("a");
/// let b = p.constant("b");
/// p.fact(edge, vec![a, b]).unwrap();
/// p.rule(
///     Atom::new(path, vec![Term::Var(0), Term::Var(1)]),
///     vec![Atom::new(edge, vec![Term::Var(0), Term::Var(1)])],
/// )
/// .unwrap();
/// assert_eq!(p.rules().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Program {
    preds: Vec<PredInfo>,
    pred_index: HashMap<Arc<str>, PredId>,
    const_names: Vec<Arc<str>>,
    const_index: HashMap<Arc<str>, Const>,
    rules: Vec<Arc<Rule>>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Declares (or re-uses) a predicate with the given arity.
    ///
    /// # Panics
    ///
    /// Panics if the name was declared before with a different arity.
    pub fn predicate(&mut self, name: &str, arity: usize) -> PredId {
        if let Some(&id) = self.pred_index.get(name) {
            assert_eq!(
                self.preds[id.0 as usize].arity, arity,
                "predicate `{name}` re-declared with different arity"
            );
            return id;
        }
        let id = PredId(self.preds.len() as u32);
        let name: Arc<str> = name.into();
        self.preds.push(PredInfo {
            name: Arc::clone(&name),
            arity,
        });
        self.pred_index.insert(name, id);
        id
    }

    /// Interns a named constant.
    pub fn constant(&mut self, name: &str) -> Const {
        if let Some(&c) = self.const_index.get(name) {
            return c;
        }
        let c = Const(self.const_names.len() as u32);
        let name: Arc<str> = name.into();
        self.const_names.push(Arc::clone(&name));
        self.const_index.insert(name, c);
        c
    }

    /// The number of interned constants.
    pub fn n_constants(&self) -> usize {
        self.const_names.len()
    }

    /// The display name of a predicate.
    pub fn pred_name(&self, p: PredId) -> &str {
        &self.preds[p.0 as usize].name
    }

    /// The arity of a predicate.
    pub fn pred_arity(&self, p: PredId) -> usize {
        self.preds[p.0 as usize].arity
    }

    /// The display name of a constant, if it was interned by name.
    pub fn const_name(&self, c: Const) -> Option<&str> {
        self.const_names.get(c.0 as usize).map(|n| &**n)
    }

    /// Looks up a predicate by name.
    pub fn lookup_pred(&self, name: &str) -> Option<PredId> {
        self.pred_index.get(name).copied()
    }

    /// All predicates.
    pub fn predicates(&self) -> impl Iterator<Item = PredId> + '_ {
        (0..self.preds.len() as u32).map(PredId)
    }

    /// The validated rules.
    pub fn rules(&self) -> &[Arc<Rule>] {
        &self.rules
    }

    /// Adds a fact `p(args)`.
    ///
    /// # Errors
    ///
    /// Rejects arity mismatches and unknown predicates.
    pub fn fact(&mut self, pred: PredId, args: Vec<Const>) -> Result<(), RuleError> {
        let head = Atom::new(pred, args.into_iter().map(Term::Const).collect());
        self.rule(head, Vec::new())
    }

    /// Adds a rule `head :- body`, validating arity and safety.
    ///
    /// # Errors
    ///
    /// See [`RuleError`].
    pub fn rule(&mut self, head: Atom, body: Vec<Atom>) -> Result<(), RuleError> {
        self.validate(&head, &body)?;
        self.rules.push(Arc::new(Rule { head, body }));
        Ok(())
    }

    /// Appends already-built rules, sharing them instead of copying: each
    /// is validated against this program's registry exactly as
    /// [`Program::rule`] would, then its [`Arc`] is pushed.
    ///
    /// # Errors
    ///
    /// Stops at the first invalid rule (see [`RuleError`]); the rules
    /// before it stay appended.
    pub fn extend_shared<'r>(
        &mut self,
        rules: impl IntoIterator<Item = &'r Arc<Rule>>,
    ) -> Result<(), RuleError> {
        for rule in rules {
            self.validate(&rule.head, &rule.body)?;
            self.rules.push(Arc::clone(rule));
        }
        Ok(())
    }

    /// Removes and returns the rules from index `at` on, like
    /// [`Vec::split_off`]; the registry is left as it is.
    ///
    /// # Panics
    ///
    /// Panics if `at` exceeds the number of rules.
    pub fn split_rules_off(&mut self, at: usize) -> Vec<Arc<Rule>> {
        self.rules.split_off(at)
    }

    /// Checks arities and predicates (head first, then the body in order),
    /// then safety, reporting the smallest head variable missing from the
    /// body. Allocation-free: each head variable scans the body terms.
    fn validate(&self, head: &Atom, body: &[Atom]) -> Result<(), RuleError> {
        for atom in std::iter::once(head).chain(body) {
            let info = self
                .preds
                .get(atom.pred.0 as usize)
                .ok_or(RuleError::UnknownPredicate(atom.pred))?;
            if info.arity != atom.terms.len() {
                return Err(RuleError::ArityMismatch {
                    pred: atom.pred,
                    expected: info.arity,
                    got: atom.terms.len(),
                });
            }
        }
        let mut unbound: Option<u32> = None;
        for t in &head.terms {
            if let Term::Var(v) = *t {
                if unbound.is_none_or(|u| v < u)
                    && !body.iter().any(|a| a.terms.contains(&Term::Var(v)))
                {
                    unbound = Some(v);
                }
            }
        }
        match unbound {
            Some(var) => Err(RuleError::UnsafeVariable { var }),
            None => Ok(()),
        }
    }

    /// Renders a ground atom with names where available.
    pub fn display_ground(&self, g: &GroundAtom) -> String {
        let args: Vec<String> = g
            .args
            .iter()
            .map(|c| {
                self.const_name(*c)
                    .map(str::to_owned)
                    .unwrap_or_else(|| c.to_string())
            })
            .collect();
        format!("{}({})", self.pred_name(g.pred), args.join(","))
    }

    /// Total size: number of rules plus the number of atoms in all rules —
    /// the `|Prog|` of the paper's complexity statements.
    pub fn size(&self) -> usize {
        self.rules
            .iter()
            .map(|r| {
                1 + r.body.len()
                    + r.head.terms.len()
                    + r.body.iter().map(|a| a.terms.len()).sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_interning() {
        let mut p = Program::new();
        let e1 = p.predicate("edge", 2);
        let e2 = p.predicate("edge", 2);
        assert_eq!(e1, e2);
        assert_eq!(p.pred_name(e1), "edge");
        assert_eq!(p.pred_arity(e1), 2);
    }

    #[test]
    #[should_panic(expected = "different arity")]
    fn arity_conflict_panics() {
        let mut p = Program::new();
        p.predicate("q", 1);
        p.predicate("q", 2);
    }

    #[test]
    fn constants_intern() {
        let mut p = Program::new();
        let a = p.constant("a");
        assert_eq!(p.constant("a"), a);
        assert_eq!(p.const_name(a), Some("a"));
        assert_eq!(p.n_constants(), 1);
    }

    #[test]
    fn fact_arity_checked() {
        let mut p = Program::new();
        let q = p.predicate("q", 2);
        let a = p.constant("a");
        let err = p.fact(q, vec![a]).unwrap_err();
        assert!(matches!(err, RuleError::ArityMismatch { .. }));
    }

    #[test]
    fn unsafe_rule_rejected() {
        let mut p = Program::new();
        let q = p.predicate("q", 1);
        let r = p.predicate("r", 1);
        let err = p
            .rule(
                Atom::new(q, vec![Term::Var(1)]),
                vec![Atom::new(r, vec![Term::Var(0)])],
            )
            .unwrap_err();
        assert_eq!(err, RuleError::UnsafeVariable { var: 1 });
    }

    #[test]
    fn unsafe_rule_reports_the_smallest_unbound_variable() {
        let mut p = Program::new();
        let q = p.predicate("q", 4);
        let r = p.predicate("r", 2);
        let head = Atom::new(
            q,
            vec![Term::Var(7), Term::Var(3), Term::Var(5), Term::Var(0)],
        );
        let body = vec![Atom::new(r, vec![Term::Var(0), Term::Var(5)])];
        assert_eq!(
            p.rule(head, body),
            Err(RuleError::UnsafeVariable { var: 3 })
        );
        // A variable repeated in the head and bound nowhere.
        let head = Atom::new(
            q,
            vec![Term::Var(4), Term::cst(0), Term::Var(4), Term::Var(1)],
        );
        let body = vec![Atom::new(r, vec![Term::Var(1), Term::cst(2)])];
        assert_eq!(
            p.rule(head, body),
            Err(RuleError::UnsafeVariable { var: 4 })
        );
        // No body at all: every head variable is unbound.
        let head = Atom::new(r, vec![Term::Var(9), Term::Var(2)]);
        assert_eq!(
            p.rule(head, Vec::new()),
            Err(RuleError::UnsafeVariable { var: 2 })
        );
        assert!(p.rules().is_empty());
    }

    #[test]
    fn arity_errors_come_before_unsafe_variables() {
        let mut p = Program::new();
        let q = p.predicate("q", 2);
        let r = p.predicate("r", 1);
        // Head arity wrong and X1 unbound: the arity error wins.
        let head = Atom::new(q, vec![Term::Var(1)]);
        let body = vec![Atom::new(r, vec![Term::Var(0)])];
        assert_eq!(
            p.rule(head, body),
            Err(RuleError::ArityMismatch {
                pred: q,
                expected: 2,
                got: 1
            })
        );
        // A body atom with the wrong arity, head variable X3 unbound.
        let head = Atom::new(q, vec![Term::Var(0), Term::Var(3)]);
        let body = vec![
            Atom::new(r, vec![Term::Var(0)]),
            Atom::new(r, vec![Term::Var(0), Term::Var(2), Term::Var(2)]),
        ];
        assert_eq!(
            p.rule(head, body),
            Err(RuleError::ArityMismatch {
                pred: r,
                expected: 1,
                got: 3
            })
        );
        assert!(p.rules().is_empty());
    }

    #[test]
    fn unknown_predicates_are_reported_in_atom_order() {
        let mut p = Program::new();
        let q = p.predicate("q", 1);
        let ghost = PredId(42);
        // Head first: its arity error precedes the body's unknown predicate.
        assert_eq!(
            p.rule(
                Atom::new(q, vec![]),
                vec![Atom::new(ghost, vec![Term::Var(0)])]
            ),
            Err(RuleError::ArityMismatch {
                pred: q,
                expected: 1,
                got: 0
            })
        );
        // An unknown body predicate precedes a later body arity error and
        // the unbound head variable.
        assert_eq!(
            p.rule(
                Atom::new(q, vec![Term::Var(5)]),
                vec![
                    Atom::new(ghost, vec![Term::Var(0)]),
                    Atom::new(q, vec![Term::Var(0), Term::Var(1)]),
                ]
            ),
            Err(RuleError::UnknownPredicate(ghost))
        );
        assert_eq!(
            p.fact(PredId(7), vec![]),
            Err(RuleError::UnknownPredicate(PredId(7)))
        );
        assert!(p.rules().is_empty());
    }

    #[test]
    fn shared_rules_are_validated_and_not_copied() {
        let mut p = Program::new();
        let q = p.predicate("q", 1);
        let a = p.constant("a");
        p.fact(q, vec![a]).unwrap();
        p.rule(
            Atom::new(q, vec![Term::Var(0)]),
            vec![Atom::new(q, vec![Term::Var(0)])],
        )
        .unwrap();
        let shared = p.split_rules_off(1);
        assert_eq!((p.rules().len(), shared.len()), (1, 1));
        let mut copy = p.clone();
        copy.extend_shared(&shared).unwrap();
        assert!(Arc::ptr_eq(&copy.rules()[1], &shared[0]));
        // Validated against the receiving registry, not the builder's.
        let mut other = Program::new();
        other.predicate("r", 2);
        assert_eq!(
            other.extend_shared(&shared),
            Err(RuleError::ArityMismatch {
                pred: q,
                expected: 2,
                got: 1
            })
        );
        let mut empty = Program::new();
        assert_eq!(
            empty.extend_shared(&shared),
            Err(RuleError::UnknownPredicate(q))
        );
        assert!(other.rules().is_empty() && empty.rules().is_empty());
    }

    #[test]
    fn linearity() {
        let mut p = Program::new();
        let q = p.predicate("q", 1);
        p.rule(
            Atom::new(q, vec![Term::Var(0)]),
            vec![Atom::new(q, vec![Term::Var(0)])],
        )
        .unwrap();
        assert!(p.rules()[0].is_linear());
        assert!(!p.rules()[0].is_fact());
    }

    #[test]
    fn ground_atoms_and_display() {
        let mut p = Program::new();
        let q = p.predicate("q", 2);
        let a = p.constant("a");
        let b = p.constant("b");
        p.fact(q, vec![a, b]).unwrap();
        let g = p.rules()[0].head.to_ground();
        assert_eq!(p.display_ground(&g), "q(a,b)");
        assert!(p.rules()[0].head.is_ground());
    }

    #[test]
    fn atom_variables_sorted_dedup() {
        let a = Atom::new(
            PredId(0),
            vec![Term::Var(2), Term::Var(0), Term::Var(2), Term::cst(5)],
        );
        assert_eq!(a.variables(), vec![0, 2]);
        assert!(!a.is_ground());
    }

    #[test]
    fn program_size_counts_atoms() {
        let mut p = Program::new();
        let q = p.predicate("q", 1);
        let a = p.constant("a");
        p.fact(q, vec![a]).unwrap();
        p.rule(
            Atom::new(q, vec![Term::Var(0)]),
            vec![Atom::new(q, vec![Term::Var(0)])],
        )
        .unwrap();
        assert!(p.size() >= 4);
    }
}
