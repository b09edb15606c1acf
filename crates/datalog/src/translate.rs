//! Lemma 4.2: compiling Cache Datalog with cache bound `k` into linear
//! Datalog.
//!
//! The whole cache — a set of at most `k` ground atoms — is represented by
//! a *single* ground atom of a fresh predicate `cacheₖ` with `k` slots of
//! width `w = 1 + max-arity` each (a predicate tag followed by padded
//! arguments; unused slots hold the `empty` tag). Every Cache Datalog
//! step becomes one linear rule:
//!
//! * **Add** via rule `h :- b₁, …, bₜ`: for each placement of the body
//!   atoms into slots and of the head into an empty slot, a rule
//!   `cacheₖ(σ[e ↦ h]) :- cacheₖ(σ)` where `σ` constrains the body slots
//!   and keeps the rest variable;
//! * **Drop**: `cacheₖ(σ[i ↦ empty]) :- cacheₖ(σ)`;
//! * **Goal**: `goal_ok :- cacheₖ(σ)` with the goal atom pinned in some
//!   slot.
//!
//! Then `Prog ⊢ₖ g` iff `Prog' ⊢ goal_ok` ([`cache_to_linear`]), and
//! `Prog'` is linear by construction. Rule bodies of size ≤ 2 are
//! supported — all programs produced by the paper's `makeP` encoding are of
//! this shape; the construction generates `O(k^{t+1})` rules per source
//! rule (the paper's quadratic bound corresponds to the dominating
//! single-body case).

use crate::ast::{Atom, Const, GroundAtom, PredId, Program, Rule, Term};
use std::collections::HashMap;
use std::fmt;

/// Why a program cannot be translated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// A rule has more than two body atoms.
    BodyTooLarge {
        /// Index of the offending rule.
        rule: usize,
        /// Its body size.
        size: usize,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::BodyTooLarge { rule, size } => write!(
                f,
                "rule {rule} has {size} body atoms; the Lemma 4.2 translation \
                 supports at most 2 (as produced by makeP)"
            ),
        }
    }
}

impl std::error::Error for TranslateError {}

/// The result of the translation.
#[derive(Debug)]
pub struct LinearTranslation {
    /// The linear program `Prog'`.
    pub program: Program,
    /// The goal atom `goal_ok` with `Prog ⊢ₖ g ⟺ Prog' ⊢ goal_ok`.
    pub goal: GroundAtom,
    /// The slot width used.
    pub slot_width: usize,
}

/// Compiles `(prog ⊢ₖ goal)` into a linear Datalog query (Lemma 4.2).
///
/// # Errors
///
/// Fails if some rule has more than two body atoms.
pub fn cache_to_linear(
    prog: &Program,
    goal: &GroundAtom,
    k: usize,
) -> Result<LinearTranslation, TranslateError> {
    for (ri, rule) in prog.rules().iter().enumerate() {
        if rule.body.len() > 2 {
            return Err(TranslateError::BodyTooLarge {
                rule: ri,
                size: rule.body.len(),
            });
        }
    }
    assert!(k >= 1, "cache bound must be positive");

    // Constant layout: original constants keep their ids; then the `empty`
    // tag; then one tag per predicate.
    let max_const = max_const_id(prog, goal);
    let empty = Const(max_const + 1);
    let tag = |p: PredId| Const(max_const + 2 + p.0);

    let max_arity = prog
        .predicates()
        .map(|p| prog.pred_arity(p))
        .max()
        .unwrap_or(0);
    let w = 1 + max_arity;

    let mut out = Program::new();
    let cache_pred = out.predicate("cache", k * w);
    let goal_pred = out.predicate("goal_ok", 0);

    // Initial fact: all slots empty.
    let empty_slots: Vec<Const> = std::iter::repeat_n(empty, k * w).collect();
    out.fact(cache_pred, empty_slots).expect("arity matches");

    // A builder for one linear rule: body and head slot contents.
    struct SlotRule {
        body: Vec<Term>,
        head: Vec<Term>,
    }
    impl SlotRule {
        fn free(k: usize, w: usize, next_var: &mut u32) -> SlotRule {
            let mut body = Vec::with_capacity(k * w);
            for _ in 0..k * w {
                body.push(Term::Var(*next_var));
                *next_var += 1;
            }
            SlotRule {
                head: body.clone(),
                body,
            }
        }
        fn pin(&mut self, slot: usize, w: usize, content: &[Term], both: bool) {
            for (i, t) in content.iter().enumerate() {
                self.body[slot * w + i] = *t;
                if both {
                    self.head[slot * w + i] = *t;
                }
            }
        }
        fn set_head(&mut self, slot: usize, w: usize, content: &[Term]) {
            for (i, t) in content.iter().enumerate() {
                self.head[slot * w + i] = *t;
            }
        }
    }

    // Renders an atom into slot content: tag, remapped terms, padding.
    let slot_content = |atom: &Atom, var_map: &mut HashMap<u32, u32>, next_var: &mut u32| {
        let mut content = vec![Term::Const(tag(atom.pred))];
        for t in &atom.terms {
            content.push(match t {
                Term::Const(c) => Term::Const(*c),
                Term::Var(v) => {
                    let nv = *var_map.entry(*v).or_insert_with(|| {
                        let nv = *next_var;
                        *next_var += 1;
                        nv
                    });
                    Term::Var(nv)
                }
            });
        }
        while content.len() < w {
            content.push(Term::Const(empty));
        }
        content
    };
    let empty_content: Vec<Term> = std::iter::repeat_n(Term::Const(empty), w).collect();

    // Add-rules for every source rule (facts, single-, double-body), with
    // the same-slot variant for unifiable double bodies.
    let mut expanded: Vec<Rule> = Vec::new();
    for rule in prog.rules() {
        expanded.push(Rule::clone(rule));
        if rule.body.len() == 2 {
            if let Some(unified) = unify_rule(rule) {
                expanded.push(unified);
            }
        }
    }
    for rule in &expanded {
        match rule.body.len() {
            0 => {
                for e in 0..k {
                    let mut next_var = 0u32;
                    let mut var_map = HashMap::new();
                    let mut sr = SlotRule::free(k, w, &mut next_var);
                    sr.pin(e, w, &empty_content, false);
                    let head_content = slot_content(&rule.head, &mut var_map, &mut next_var);
                    sr.set_head(e, w, &head_content);
                    out.rule(
                        Atom::new(cache_pred, sr.head),
                        vec![Atom::new(cache_pred, sr.body)],
                    )
                    .expect("generated rule is safe");
                }
            }
            1 => {
                for i in 0..k {
                    for e in 0..k {
                        if e == i {
                            continue;
                        }
                        let mut next_var = 0u32;
                        let mut var_map = HashMap::new();
                        let mut sr = SlotRule::free(k, w, &mut next_var);
                        let b = slot_content(&rule.body[0], &mut var_map, &mut next_var);
                        sr.pin(i, w, &b, true);
                        sr.pin(e, w, &empty_content, false);
                        let h = slot_content(&rule.head, &mut var_map, &mut next_var);
                        sr.set_head(e, w, &h);
                        out.rule(
                            Atom::new(cache_pred, sr.head),
                            vec![Atom::new(cache_pred, sr.body)],
                        )
                        .expect("generated rule is safe");
                    }
                }
            }
            2 => {
                for i in 0..k {
                    for j in 0..k {
                        if i == j {
                            continue;
                        }
                        for e in 0..k {
                            if e == i || e == j {
                                continue;
                            }
                            let mut next_var = 0u32;
                            let mut var_map = HashMap::new();
                            let mut sr = SlotRule::free(k, w, &mut next_var);
                            let b1 = slot_content(&rule.body[0], &mut var_map, &mut next_var);
                            let b2 = slot_content(&rule.body[1], &mut var_map, &mut next_var);
                            sr.pin(i, w, &b1, true);
                            sr.pin(j, w, &b2, true);
                            sr.pin(e, w, &empty_content, false);
                            let h = slot_content(&rule.head, &mut var_map, &mut next_var);
                            sr.set_head(e, w, &h);
                            out.rule(
                                Atom::new(cache_pred, sr.head),
                                vec![Atom::new(cache_pred, sr.body)],
                            )
                            .expect("generated rule is safe");
                        }
                    }
                }
            }
            _ => unreachable!("checked above"),
        }
    }

    // Drop rules.
    for i in 0..k {
        let mut next_var = 0u32;
        let mut sr = SlotRule::free(k, w, &mut next_var);
        sr.set_head(i, w, &empty_content);
        out.rule(
            Atom::new(cache_pred, sr.head),
            vec![Atom::new(cache_pred, sr.body)],
        )
        .expect("generated rule is safe");
    }

    // Goal rules.
    let goal_content: Vec<Term> = {
        let mut c = vec![Term::Const(tag(goal.pred))];
        c.extend(goal.args.iter().map(|&a| Term::Const(a)));
        while c.len() < w {
            c.push(Term::Const(empty));
        }
        c
    };
    for i in 0..k {
        let mut next_var = 0u32;
        let mut sr = SlotRule::free(k, w, &mut next_var);
        sr.pin(i, w, &goal_content, true);
        out.rule(
            Atom::new(goal_pred, Vec::new()),
            vec![Atom::new(cache_pred, sr.body)],
        )
        .expect("generated rule is safe");
    }

    Ok(LinearTranslation {
        program: out,
        goal: GroundAtom::new(goal_pred, Vec::new()),
        slot_width: w,
    })
}

fn max_const_id(prog: &Program, goal: &GroundAtom) -> u32 {
    let mut m = prog.n_constants() as u32;
    for rule in prog.rules() {
        for atom in std::iter::once(&rule.head).chain(rule.body.iter()) {
            for t in &atom.terms {
                if let Term::Const(c) = t {
                    m = m.max(c.0 + 1);
                }
            }
        }
    }
    for c in &goal.args {
        m = m.max(c.0 + 1);
    }
    m
}

/// If the two body atoms of `rule` unify, the rule with both collapsed to
/// one atom (the cache is a set: one cached atom can justify both body
/// occurrences).
fn unify_rule(rule: &Rule) -> Option<Rule> {
    let a = &rule.body[0];
    let b = &rule.body[1];
    if a.pred != b.pred || a.terms.len() != b.terms.len() {
        return None;
    }
    // Syntactic unification over variable/constant terms (no function
    // symbols, so this is plain union-find-free substitution chasing).
    let mut subst: HashMap<u32, Term> = HashMap::new();
    fn resolve(t: Term, subst: &HashMap<u32, Term>) -> Term {
        let mut cur = t;
        while let Term::Var(v) = cur {
            match subst.get(&v) {
                Some(&next) => cur = next,
                None => break,
            }
        }
        cur
    }
    for (ta, tb) in a.terms.iter().zip(&b.terms) {
        let ra = resolve(*ta, &subst);
        let rb = resolve(*tb, &subst);
        match (ra, rb) {
            (Term::Const(x), Term::Const(y)) => {
                if x != y {
                    return None;
                }
            }
            (Term::Var(v), other) | (other, Term::Var(v)) => {
                if other != Term::Var(v) {
                    subst.insert(v, other);
                }
            }
        }
    }
    let apply = |atom: &Atom| Atom {
        pred: atom.pred,
        terms: atom.terms.iter().map(|&t| resolve(t, &subst)).collect(),
    };
    Some(Rule {
        head: apply(&rule.head),
        body: vec![apply(a)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::prove_with_cache;
    use crate::linear::{is_linear, LinearEvaluator};

    /// reach-chain: needs a 3-cache (reach, next, new reach).
    fn chain(n: u32) -> (Program, GroundAtom) {
        let mut p = Program::new();
        let next = p.predicate("next", 2);
        let reach = p.predicate("reach", 1);
        let consts: Vec<Const> = (0..n).map(|i| p.constant(&format!("v{i}"))).collect();
        for w in consts.windows(2) {
            p.fact(next, vec![w[0], w[1]]).unwrap();
        }
        p.fact(reach, vec![consts[0]]).unwrap();
        p.rule(
            Atom::new(reach, vec![Term::Var(1)]),
            vec![
                Atom::new(reach, vec![Term::Var(0)]),
                Atom::new(next, vec![Term::Var(0), Term::Var(1)]),
            ],
        )
        .unwrap();
        let goal = GroundAtom::new(reach, vec![*consts.last().unwrap()]);
        (p, goal)
    }

    #[test]
    fn translation_is_linear() {
        let (p, goal) = chain(3);
        let t = cache_to_linear(&p, &goal, 3).unwrap();
        assert!(is_linear(&t.program));
        assert_eq!(t.slot_width, 3); // next has arity 2
    }

    #[test]
    fn lemma_4_2_equivalence_on_chain() {
        let (p, goal) = chain(3);
        for k in 1..=4 {
            let cache_verdict = prove_with_cache(&p, &goal, k);
            let t = cache_to_linear(&p, &goal, k).unwrap();
            let linear_verdict = LinearEvaluator::new(&t.program).query(&t.goal);
            assert_eq!(cache_verdict, linear_verdict, "k = {k}");
        }
    }

    #[test]
    fn fact_only_program() {
        let mut p = Program::new();
        let q = p.predicate("q", 1);
        let a = p.constant("a");
        p.fact(q, vec![a]).unwrap();
        let goal = GroundAtom::new(q, vec![a]);
        let t = cache_to_linear(&p, &goal, 1).unwrap();
        assert!(LinearEvaluator::new(&t.program).query(&t.goal));
        // Unprovable goal.
        let b = Const(500);
        let bogus = GroundAtom::new(q, vec![b]);
        let t2 = cache_to_linear(&p, &bogus, 1).unwrap();
        assert!(!LinearEvaluator::new(&t2.program).query(&t2.goal));
    }

    #[test]
    fn unifiable_double_body_uses_single_slot() {
        // g() :- q(X), q(X): one cached q-atom justifies both. With k = 2
        // (q and g only) the goal is provable — requires the unified
        // variant, since distinct slots would need k = 3.
        let mut p = Program::new();
        let q = p.predicate("q", 1);
        let g = p.predicate("g", 0);
        let a = p.constant("a");
        p.fact(q, vec![a]).unwrap();
        p.rule(
            Atom::new(g, vec![]),
            vec![
                Atom::new(q, vec![Term::Var(0)]),
                Atom::new(q, vec![Term::Var(0)]),
            ],
        )
        .unwrap();
        let goal = GroundAtom::new(g, vec![]);
        assert!(prove_with_cache(&p, &goal, 2));
        let t = cache_to_linear(&p, &goal, 2).unwrap();
        assert!(LinearEvaluator::new(&t.program).query(&t.goal));
    }

    #[test]
    fn big_bodies_rejected() {
        let mut p = Program::new();
        let q = p.predicate("q", 0);
        p.fact(q, vec![]).unwrap();
        p.rule(
            Atom::new(q, vec![]),
            vec![
                Atom::new(q, vec![]),
                Atom::new(q, vec![]),
                Atom::new(q, vec![]),
            ],
        )
        .unwrap();
        let goal = GroundAtom::new(q, vec![]);
        let err = cache_to_linear(&p, &goal, 2).unwrap_err();
        assert!(matches!(err, TranslateError::BodyTooLarge { .. }));
    }

    #[test]
    fn translation_size_grows_polynomially() {
        let (p, goal) = chain(3);
        let t2 = cache_to_linear(&p, &goal, 2).unwrap();
        let t4 = cache_to_linear(&p, &goal, 4).unwrap();
        // O(k³) rules for the double-body rule dominates.
        assert!(t4.program.rules().len() > t2.program.rules().len());
        assert!(t4.program.rules().len() < 64 * t2.program.rules().len());
    }
}
