//! Datalog witness extraction: turning a winning `makeP` guess into the
//! paper's bounded-cache certificate.
//!
//! A guess fleet of two or more guesses evaluates its `makeP` queries
//! with provenance *off* — the fast path pays nothing for derivation
//! tracking — so a winner among them is re-evaluated here with
//! provenance *on* ([`extract`]). A single-guess run evaluates its one
//! program with provenance on in the first place, and its witness is
//! read off that database ([`from_database`]). Either way the recorded
//! derivation is turned into the Lemma 4.6 cache schedule:
//!
//! * the **peak over intensional atoms** is the empirical Lemma 4.4
//!   number (EDB facts — timeline orders, gap tables — are free in the
//!   paper's accounting);
//! * the schedule is **replayed** under the Cache semantics
//!   ([`verify_schedule`]) with `k` = its full peak, certifying that the
//!   `Prog ⊢ₖ goal` judgement the PSPACE argument rests on actually
//!   holds;
//! * where the program happens to fall into the ≤2-atom-body fragment,
//!   the Lemma 4.2 cache→linear translation is run as an additional
//!   cross-check (real `makeP` outputs exceed the fragment; random and
//!   property-test programs exercise it).

use crate::makep::MakeP;
use parra_datalog::cache::{schedule_from_database, verify_schedule, CacheSchedule, ScheduleStep};
use parra_datalog::eval::{Database, EvalMetrics, Evaluator};
use parra_datalog::linear::LinearEvaluator;
use parra_datalog::plan::Plan;
use parra_datalog::translate::cache_to_linear;
use parra_datalog::{GroundAtom, Program};
use parra_limits::ResourceBudget;
use parra_obs::Recorder;
use std::sync::Arc;

/// The outcome of the Lemma 4.2/4.6 cross-check on a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinearCheck {
    /// The translated linear program re-derives the goal.
    Agrees,
    /// The translated linear program does *not* derive the goal — an
    /// engine bug.
    Disagrees,
    /// The program is outside the ≤2-atom-body fragment Lemma 4.2
    /// translates (most real `makeP` outputs are).
    OutsideFragment,
    /// The linear evaluation outgrew its bound (or the run's budget) before
    /// deriving the goal: no verdict either way.
    OverBound,
}

impl LinearCheck {
    /// The note a report carries for this outcome.
    pub fn note(&self) -> &'static str {
        match self {
            LinearCheck::Agrees => "Lemma 4.2 cache→linear translation re-derives the goal",
            LinearCheck::Disagrees => {
                "Lemma 4.2 cross-check FAILED: the translated linear program \
                 does not derive the goal (engine bug)"
            }
            LinearCheck::OutsideFragment => {
                "Lemma 4.2 cross-check skipped: program outside the ≤2-atom-body fragment"
            }
            LinearCheck::OverBound => "Lemma 4.2 cross-check skipped: over its bound",
        }
    }
}

/// A bounded-cache witness for one winning guess.
#[derive(Debug, Clone)]
pub struct DatalogWitness {
    /// The Lemma 4.6 Add/Drop schedule for the goal.
    pub schedule: CacheSchedule,
    /// Schedule peak counting intensional atoms only (the Lemma 4.4
    /// number reported as `cache_peak`).
    pub peak_intensional: usize,
    /// Running intensional occupancy after each schedule step.
    pub occupancy: Vec<usize>,
    /// Whether the schedule replays under the Cache semantics with
    /// `k` = its full peak ([`verify_schedule`]).
    pub certified: bool,
    /// The Lemma 4.2 translation cross-check.
    pub linear_check: LinearCheck,
    /// Atoms in the evaluation it was read off.
    pub atoms: usize,
}

/// Upper bounds gating the (exponential) Lemma 4.2 cross-check. The
/// smallest `makeP` winners inside the ≤2-atom-body fragment (sizes 358
/// to 400, `k` = 3) derive over 400,000 cache configurations without the
/// goal, so a check of their size could never finish within its bound.
const LINEAR_CHECK_MAX_SIZE: usize = 100;
const LINEAR_CHECK_MAX_K: usize = 6;
/// The most cache configurations the cross-check's linear evaluation
/// derives before it gives up.
const LINEAR_CHECK_MAX_CONFIGS: usize = 1_000;

/// Re-evaluates `prog` with provenance on and extracts the bounded-cache
/// witness for `goal`. `_threads` is ignored: evaluation is sequential.
/// `plan` reuses the fleet's join plan (it must be planned for this
/// program's rule list). Returns `None` if the
/// goal is not derivable (the caller claimed a win that does not replay —
/// an engine bug surfaced upstream).
pub fn extract(
    prog: &Program,
    goal: &GroundAtom,
    rec: &Recorder,
    _threads: usize,
    plan: Option<Arc<Plan>>,
) -> Option<DatalogWitness> {
    extract_within(prog, goal, rec, plan, &ResourceBudget::unlimited())
}

/// As [`extract`], with the Lemma 4.2 cross-check also stopped by `gov`.
pub fn extract_within(
    prog: &Program,
    goal: &GroundAtom,
    rec: &Recorder,
    plan: Option<Arc<Plan>>,
    gov: &ResourceBudget,
) -> Option<DatalogWitness> {
    let ev = match plan {
        Some(p) => Evaluator::with_plan(prog, p),
        None => Evaluator::new(prog),
    };
    // The caller times the whole replay: the evaluation times no phase
    // of its own.
    let metrics = EvalMetrics::untimed(rec);
    let db = ev
        .with_metrics(&metrics)
        .with_provenance(true)
        .run_until(Some(goal));
    from_database(prog, goal, &db, gov)
}

/// Extracts the bounded-cache witness for `goal` from `db`, an
/// evaluation of `prog` with provenance on, with the Lemma 4.2
/// cross-check stopped by `gov`. Returns `None` unless `db` holds `goal`.
pub fn from_database(
    prog: &Program,
    goal: &GroundAtom,
    db: &Database,
    gov: &ResourceBudget,
) -> Option<DatalogWitness> {
    let atoms = db.len();
    let schedule = schedule_from_database(db, goal)?;
    let edb = MakeP::edb_predicates(prog);
    let mut cache = 0usize;
    let mut peak = 0usize;
    let mut occupancy = Vec::with_capacity(schedule.steps.len());
    for step in &schedule.steps {
        match step {
            ScheduleStep::Add(a) => {
                if !edb.contains(&a.pred) {
                    cache += 1;
                    peak = peak.max(cache);
                }
            }
            ScheduleStep::Drop(a) => {
                if !edb.contains(&a.pred) {
                    cache -= 1;
                }
            }
        }
        occupancy.push(cache);
    }
    let certified = verify_schedule(prog, goal, &schedule, schedule.peak);
    let linear_check = linear_cross_check(prog, goal, schedule.peak, gov);
    Some(DatalogWitness {
        schedule,
        peak_intensional: peak,
        occupancy,
        certified,
        linear_check,
        atoms,
    })
}

/// Runs the Lemma 4.2 translation and the linear worklist evaluator when
/// the program is inside the translatable fragment and small enough; the
/// evaluation stops at [`LINEAR_CHECK_MAX_CONFIGS`] or when `gov` is
/// exhausted.
fn linear_cross_check(
    prog: &Program,
    goal: &GroundAtom,
    k: usize,
    gov: &ResourceBudget,
) -> LinearCheck {
    let in_fragment = prog.rules().iter().all(|r| r.body.len() <= 2);
    if !in_fragment || prog.size() > LINEAR_CHECK_MAX_SIZE || k > LINEAR_CHECK_MAX_K || k == 0 {
        return LinearCheck::OutsideFragment;
    }
    match cache_to_linear(prog, goal, k) {
        Ok(t) => match LinearEvaluator::new(&t.program).query_within(
            &t.goal,
            LINEAR_CHECK_MAX_CONFIGS,
            gov,
        ) {
            Some(true) => LinearCheck::Agrees,
            Some(false) => LinearCheck::Disagrees,
            None => LinearCheck::OverBound,
        },
        Err(_) => LinearCheck::OutsideFragment,
    }
}

/// Renders the schedule's intensional Add steps, capped at `limit` lines
/// (with a trailing ellipsis line when truncated) — the human-readable
/// witness of the Datalog engines.
pub fn render_lines(prog: &Program, witness: &DatalogWitness, limit: usize) -> Vec<String> {
    let edb = MakeP::edb_predicates(prog);
    let adds: Vec<&GroundAtom> = witness
        .schedule
        .steps
        .iter()
        .filter_map(|s| match s {
            ScheduleStep::Add(a) if !edb.contains(&a.pred) => Some(a),
            _ => None,
        })
        .collect();
    let mut lines: Vec<String> = adds
        .iter()
        .take(limit)
        .map(|a| format!("infer {}", prog.display_ground(a)))
        .collect();
    if adds.len() > limit {
        lines.push(format!("… {} more inference steps", adds.len() - limit));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use parra_datalog::ast::{Atom, Term};

    /// A chain program: in the ≤2-atom fragment, so the Lemma 4.2
    /// cross-check actually runs.
    fn chain(n: u32) -> (Program, GroundAtom) {
        let mut p = Program::new();
        let next = p.predicate("next", 2);
        let reach = p.predicate("reach", 1);
        let consts: Vec<_> = (0..n).map(|i| p.constant(&format!("v{i}"))).collect();
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
        (p, GroundAtom::new(reach, vec![*consts.last().unwrap()]))
    }

    #[test]
    fn extract_certifies_and_cross_checks() {
        let (p, goal) = chain(5);
        let w = extract(&p, &goal, &Recorder::disabled(), 1, None).expect("derivable");
        assert!(w.certified);
        assert_eq!(w.linear_check, LinearCheck::Agrees);
        assert!(w.peak_intensional >= 1);
        assert!(w.atoms >= 5);
        assert_eq!(w.occupancy.len(), w.schedule.steps.len());
        // No predicate here matches the makeP EDB prefixes except `next`…
        // which does not, so the intensional peak tracks the full peak.
        assert!(w.peak_intensional <= w.schedule.peak);
    }

    #[test]
    fn a_cut_short_cross_check_is_over_its_bound() {
        // chain(8) needs more cache configurations than the bound allows.
        let (p, goal) = chain(8);
        let w = extract(&p, &goal, &Recorder::disabled(), 1, None).unwrap();
        assert!(w.certified);
        assert_eq!(w.linear_check, LinearCheck::OverBound);
        // A spent budget stops the check before it derives the goal.
        let (p, goal) = chain(5);
        let spent = ResourceBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        let w = extract_within(&p, &goal, &Recorder::disabled(), None, &spent).unwrap();
        assert_eq!(w.linear_check, LinearCheck::OverBound);
    }

    #[test]
    fn extract_none_for_underivable_goal() {
        let (p, _) = chain(3);
        let reach = p.lookup_pred("reach").unwrap();
        let bogus = GroundAtom::new(reach, vec![parra_datalog::Const(999)]);
        assert!(extract(&p, &bogus, &Recorder::disabled(), 1, None).is_none());
    }

    #[test]
    fn render_caps_lines() {
        let (p, goal) = chain(8);
        let w = extract(&p, &goal, &Recorder::disabled(), 1, None).unwrap();
        let full = render_lines(&p, &w, 1000);
        assert!(full.iter().all(|l| l.starts_with("infer ")));
        let capped = render_lines(&p, &w, 2);
        assert_eq!(capped.len(), 3);
        assert!(capped[2].contains("more inference steps"));
    }
}
