//! The workloads: how each builds its inputs from the seed, how it drives
//! the verifier, and how `--trace` replays the same requests one layer
//! call at a time.
//!
//! Every workload is a closed loop of one client in one process, and
//! every thread count is a constant here rather than the machine's
//! parallelism, so a run means the same thing on every host. Every time
//! is CPU time scaled to the reference speed (see `cpu.rs`).

use crate::cpu::{self, Meter};
use crate::inputs::{self, Answers, Input};
use crate::stats::Rng;
use crate::trace::{Tracer, REQUEST};
use parra_core::makep::{DatalogTarget, MakeP, MakePLimits};
use parra_core::verify::{EngineId, Verdict, Verifier, VerifierOptions};
use parra_core::witness;
use parra_datalog::eval::Evaluator;
use parra_datalog::plan::{Plan, PlanCache};
use parra_datalog::Program;
use parra_obs::json::{self, ObjWriter, Value};
use parra_obs::{Level, Recorder};
use parra_program::classify::SystemClass;
use parra_program::parser::parse_system;
use parra_program::pretty::{instr_to_string, Names};
use parra_program::system::ParamSystem;
use parra_program::transform::{self, GoalSystem};
use parra_serve::{ServeConfig, Server};
use parra_simplified::cost::cost_of_graph;
use parra_simplified::depgraph::DepGraph;
use parra_simplified::reach::{ReachLimits, ReachOutcome, Reachability, SimpTarget};
use parra_simplified::state::Budget;
use std::sync::Arc;
use std::time::Instant;

/// Engine threads of every single-threaded workload.
const SINGLE: usize = 1;
/// Guess-fleet workers of `fleet-saturate`.
const FLEET_THREADS: usize = 2;

/// Requests in one seed's order before it repeats.
const ORDER_LEN: usize = 50_000;
/// Distinct generated programs per workload: a prefix of the corpus (of
/// its fleet band for `fleet-saturate`), sent in shuffled passes. Pools
/// small enough for a run to make two or more passes keep the multiset of
/// programs a run sends nearly the same under every seed.
const FLEET_POOL: usize = 1000;
const REACH_POOL: usize = 4000;
/// `serve-mixed`: generated members of the hot set (after the litmus
/// suite), and the fresh programs of one round, the corpus members after
/// them. A round sends every hot program [`SERVE_HOT_PASSES`] times and
/// every fresh one once: 1024 repeats and 439 fresh requests, 70% repeats.
/// With 512 hot members each is about 0.14% of requests. At 256 members
/// sent three times each, four slow hot programs made up the top 1% by
/// themselves, `cpu_p99_ms` sat on the edge between them and the next
/// group, and its quartile spread over ten runs reached 13%.
const SERVE_HOT_GENERATED: usize = 486;
const SERVE_HOT_PASSES: usize = 2;
const SERVE_FRESH: usize = 439;
/// Every this-many-th program (by hot-set or corpus position) asks for
/// `cache-datalog`: 20% of programs, always the same ones.
const SERVE_DATALOG_EVERY: usize = 5;
/// Requests each closed-loop set-up runs before timing starts.
const WARMUP: usize = 32;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LitmusDatalog,
    FleetSaturate,
    ReachGenerated,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LitmusDatalog,
        Workload::FleetSaturate,
        Workload::ReachGenerated,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LitmusDatalog => "litmus-datalog",
            Workload::FleetSaturate => "fleet-saturate",
            Workload::ReachGenerated => "reach-generated",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Decides one program text the way a caller of the library does: parse,
/// prepare a fresh verifier, run `engine` on `threads` workers.
fn decide(text: &str, engine: EngineId, threads: usize) -> Result<Verdict, String> {
    let sys = parse_system(text).map_err(|e| e.to_string())?;
    let options = VerifierOptions {
        threads,
        ..Default::default()
    };
    let v = Verifier::new(&sys, options).map_err(|e| e.to_string())?;
    Ok(v.run(engine).verdict)
}

/// The outcome of one measured loop.
#[derive(Debug, Default)]
pub struct Run {
    /// Per-request time in milliseconds at the reference speed, in
    /// request order.
    pub request_ms: Vec<f64>,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// Live heap bytes the benchmark held for its inputs once they were
    /// built, before the verifier ran.
    pub heap_base: usize,
}

fn check(name: &str, expect: Verdict, got: Result<Verdict, String>, failures: &mut Vec<String>) {
    match got {
        Ok(v) if v == expect => {}
        Ok(v) => failures.push(format!("{name}: got {v}, expected {expect}")),
        Err(e) => failures.push(format!("{name}: {e}")),
    }
}

/// A closed-loop workload: one client sending `order` (cycled) back to back.
struct Closed {
    inputs: Vec<Input>,
    order: Vec<usize>,
    engine: EngineId,
    threads: usize,
}

impl Closed {
    fn input(&self, k: usize) -> &Input {
        &self.inputs[self.order[k % self.order.len()]]
    }
}

/// Shuffled passes over `0..n`, at least `len` long.
fn shuffled_passes(rng: &mut Rng, n: usize, len: usize) -> Vec<usize> {
    (0..len.div_ceil(n))
        .flat_map(|_| {
            let mut pass: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut pass);
            pass
        })
        .collect()
}

fn build_closed(w: Workload, seed: u64, answers: &Answers) -> Closed {
    let corpus = inputs::corpus(answers);
    let generated = |members: &[usize]| -> Vec<Input> {
        members
            .iter()
            .map(|&i| inputs::generated(answers, i))
            .collect()
    };
    let (inputs, engine, threads) = match w {
        Workload::LitmusDatalog => (inputs::litmus(), EngineId::CacheDatalog, SINGLE),
        Workload::FleetSaturate => {
            let band: Vec<usize> = corpus
                .into_iter()
                .filter(|&i| answers.fleet[i] == b'1')
                .take(FLEET_POOL)
                .collect();
            (generated(&band), EngineId::CacheDatalog, FLEET_THREADS)
        }
        Workload::ReachGenerated => (
            generated(&corpus[..REACH_POOL]),
            EngineId::SimplifiedReach,
            SINGLE,
        ),
        Workload::ServeMixed => unreachable!("serve-mixed is served"),
    };
    Closed {
        order: shuffled_passes(&mut Rng::new(seed), inputs.len(), ORDER_LEN),
        inputs,
        engine,
        threads,
    }
}

/// The inputs, the live heap they take, and a warm-up. The warm-up sends
/// the first inputs in pool order, so it does the same work under every
/// seed.
fn setup_closed(w: Workload, seed: u64, answers: &Answers) -> (Closed, usize) {
    let c = build_closed(w, seed, answers);
    let heap_base = heap_in_use();
    for input in c.inputs.iter().cycle().take(WARMUP) {
        let _ = decide(&input.text, c.engine, c.threads);
    }
    (c, heap_base)
}

fn heap_in_use() -> usize {
    parra_limits::heap_in_use().unwrap_or(0)
}

fn run_closed(c: &Closed, seconds: f64) -> Run {
    let mut run = Run::default();
    let mut meter = Meter::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let input = c.input(run.attempted);
        run.attempted += 1;
        let got = meter.time(|| decide(&input.text, c.engine, c.threads));
        check(&input.name, input.expect, got, &mut run.failures);
    }
    run.request_ms = meter.finish();
    run
}

/// A `verify` request carrying the program text.
pub fn request_line(id: usize, input: &Input, datalog: bool) -> String {
    let mut w = ObjWriter::new();
    w.num_field("proto", 1);
    w.str_field("type", "verify");
    w.str_field("id", &id.to_string());
    w.str_field("name", &input.name);
    w.str_field("program", &input.text);
    if datalog {
        w.str_field("engine", &EngineId::CacheDatalog.to_string());
    }
    w.finish()
}

/// The programs `serve-mixed` sends: the hot set (the litmus suite and
/// the first [`SERVE_HOT_GENERATED`] corpus members) and the
/// [`SERVE_FRESH`] corpus members after them. Each is paired with whether
/// it asks for `cache-datalog`, which depends only on its position.
pub struct Traffic {
    pub hot: Vec<(Input, bool)>,
    pub fresh: Vec<(Input, bool)>,
}

impl Traffic {
    pub fn new(answers: &Answers) -> Traffic {
        let corpus = inputs::corpus(answers);
        let datalog = |slot: usize| slot.is_multiple_of(SERVE_DATALOG_EVERY);
        let hot = inputs::litmus()
            .into_iter()
            .chain(
                corpus[..SERVE_HOT_GENERATED]
                    .iter()
                    .map(|&i| inputs::generated(answers, i)),
            )
            .enumerate()
            .map(|(slot, input)| (input, datalog(slot)))
            .collect();
        let fresh = (SERVE_HOT_GENERATED..SERVE_HOT_GENERATED + SERVE_FRESH)
            .map(|p| (inputs::generated(answers, corpus[p]), datalog(p)))
            .collect();
        Traffic { hot, fresh }
    }

    /// One round's requests in a seeded order: [`SERVE_HOT_PASSES`]
    /// shuffled passes over the hot set, with every fresh program sent
    /// once at seeded positions among them. Every round of every seed
    /// sends the same multiset of requests.
    pub fn round(&self, rng: &mut Rng) -> Vec<&(Input, bool)> {
        let repeats = SERVE_HOT_PASSES * self.hot.len();
        let mut repeat: Vec<bool> = (0..repeats + self.fresh.len())
            .map(|k| k < repeats)
            .collect();
        rng.shuffle(&mut repeat);
        let mut hot = shuffled_passes(rng, self.hot.len(), repeats).into_iter();
        let mut fresh: Vec<usize> = (0..self.fresh.len()).collect();
        rng.shuffle(&mut fresh);
        let mut fresh = fresh.into_iter();
        repeat
            .into_iter()
            .map(|r| match r {
                true => &self.hot[hot.next().expect("a hot pass per repeat")],
                false => &self.fresh[fresh.next().expect("one fresh program per slot")],
            })
            .collect()
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        options: VerifierOptions {
            threads: SINGLE,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A fresh server warmed by one pass over the hot set.
fn setup_serve(t: &Traffic) -> Server {
    let server = Server::new(serve_config());
    for (k, (input, datalog)) in t.hot.iter().enumerate() {
        let _ = server.process_line(&request_line(k, input, *datalog));
    }
    server
}

fn served_verdict(response: Option<String>) -> Result<Verdict, String> {
    let response = response.ok_or("no response")?;
    let v = json::parse(&response).map_err(|e| format!("unparseable response: {e:?}"))?;
    match v.get("verdict").and_then(Value::as_str) {
        Some("SAFE") => Ok(Verdict::Safe),
        Some("UNSAFE") => Ok(Verdict::Unsafe),
        _ => Err(format!("response without a decided verdict: {response}")),
    }
}

/// One served request.
struct Served<'a> {
    input: &'a Input,
    /// Raw CPU time of `process_line`.
    ns: u64,
    /// Whether the server's verifier cache had the program.
    hit: bool,
    verdict: Result<Verdict, String>,
    /// Whether the server's admission gate turned the request away.
    rejected: bool,
}

/// `serve-mixed` in rounds until `seconds` have passed: each round is a
/// fresh server warmed by the hot set (not timed) taking one round of
/// requests. `each` sees every served request. Returns how many requests
/// the rounds that ran to their end sent: the first requests `each` saw.
fn serve_rounds(t: &Traffic, seed: u64, seconds: f64, mut each: impl FnMut(Served)) -> usize {
    let mut rng = Rng::new(seed);
    let start = Instant::now();
    let mut complete = 0;
    loop {
        let server = setup_serve(t);
        let round = t.round(&mut rng);
        for (k, (input, datalog)) in round.iter().enumerate() {
            if start.elapsed().as_secs_f64() >= seconds {
                return complete;
            }
            let line = request_line(k, input, *datalog);
            let (hits, rejected) = (server.cache_counters().0, server.gate().rejected());
            let begin = cpu::process_ns();
            let response = server.process_line(&line);
            let ns = cpu::process_ns() - begin;
            each(Served {
                input,
                ns,
                hit: server.cache_counters().0 > hits,
                verdict: served_verdict(response),
                rejected: server.gate().rejected() > rejected,
            });
        }
        complete += round.len();
    }
}

/// Every served request is checked, but only the rounds that ran to
/// their end are timed: each sends the same requests, so the metrics are
/// over whole copies of one multiset. With the unfinished round counted,
/// which of its requests the deadline cut off moved `cpu_p99_ms`. A run
/// too short to finish a round times the part it ran.
fn run_serve(t: &Traffic, seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let mut meter = Meter::new();
    let complete = serve_rounds(t, seed, seconds, |s| {
        run.attempted += 1;
        meter.record(s.ns);
        check(&s.input.name, s.input.expect, s.verdict, &mut run.failures);
    });
    run.request_ms = meter.finish();
    if complete > 0 {
        run.request_ms.truncate(complete);
    }
    run
}

/// Runs `setup` [`SETUP_REPEATS`] times; returns each one's time in
/// seconds at the reference speed and the last one's result.
fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut meter = Meter::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous set-up outside the timed item.
        drop(last.take());
        last = Some(meter.time(&mut setup));
    }
    let seconds = meter.finish().into_iter().map(|ms| ms / 1e3).collect();
    (seconds, last.expect("at least one set-up"))
}

/// Set-up times (one per repeat) and the measured run.
pub fn measure(w: Workload, seed: u64, seconds: f64, answers: &Answers) -> (Vec<f64>, Run) {
    if w == Workload::ServeMixed {
        let (setups, (traffic, heap_base)) = timed_setups(|| {
            let traffic = Traffic::new(answers);
            let heap_base = heap_in_use();
            drop(setup_serve(&traffic));
            (traffic, heap_base)
        });
        let run = run_serve(&traffic, seed, seconds);
        return (setups, Run { heap_base, ..run });
    }
    let (setups, (c, heap_base)) = timed_setups(|| setup_closed(w, seed, answers));
    let run = run_closed(&c, seconds);
    (setups, Run { heap_base, ..run })
}

/// Work counted by the traced run, summed over its requests.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub requests: u64,
    pub guesses: u64,
    pub evaluated: u64,
    pub plan_calls: u64,
    pub plan_hits: u64,
    pub join_attempts: u64,
    pub index_builds: u64,
    pub index_hits: u64,
    pub states: u64,
    pub worlds: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub rejected: u64,
}

/// The traced run: spans, counts, and the comparison with the untraced
/// reference pass over the same requests.
#[derive(Debug)]
pub struct Traced {
    pub tracer: Tracer,
    pub counts: Counts,
    /// Traced CPU time over untraced CPU time for the same requests.
    pub overhead: f64,
    pub attempted: usize,
    pub failures: Vec<String>,
}

/// What `Verifier::new` does before an engine runs: classify, reject
/// undecidable or looping systems, goal-transform, size the budget.
fn prepare(sys: &ParamSystem) -> Result<(GoalSystem, Budget), String> {
    let class = SystemClass::of(sys);
    if !class.env.nocas || !class.dis.iter().all(|d| d.acyc) {
        return Err("system outside the decidable loop-free class".into());
    }
    let goal = transform::assert_to_goal(sys);
    let budget = Budget::exact(&goal.system).ok_or("dis is not loop-free")?;
    Ok((goal, budget))
}

fn plan_counted(cache: &mut PlanCache, prog: &Program, c: &mut Counts) -> Arc<Plan> {
    let before = cache.len();
    let plan = cache.plan(prog);
    c.plan_calls += 1;
    c.plan_hits += u64::from(cache.len() == before);
    plan
}

/// `cache-datalog` one layer call at a time, in the order the engine makes
/// them: one sequential fleet in guess order, then the witness replay of
/// the winning guess.
fn datalog_layers(
    t: &mut Tracer,
    req: usize,
    text: &str,
    rec: &Recorder,
    c: &mut Counts,
) -> Result<Verdict, String> {
    let sys = t
        .time("program.parse", req, || parse_system(text))
        .map_err(|e| e.to_string())?;
    let (goal, budget) = t.time("core.prepare", req, || prepare(&sys))?;
    if !goal.had_assert {
        return Ok(Verdict::Safe);
    }
    let (mk, guesses) = t
        .time("core.makep.guess", req, || {
            let mk = MakeP::new(&goal.system, budget, MakePLimits::default())?;
            let guesses = mk.guesses()?;
            Ok::<_, parra_core::makep::MakePError>((mk, guesses))
        })
        .map_err(|e| e.to_string())?;
    c.guesses += guesses.len() as u64;
    let target = DatalogTarget::MessageGenerated(goal.goal_var, goal.goal_val);
    let mut cache = PlanCache::new();
    let mut winner = None;
    for (i, g) in guesses.iter().enumerate() {
        let (prog, atom) = t.time("core.makep.construct", req, || mk.program(g, target));
        let plan = t.time("datalog.plan", req, || plan_counted(&mut cache, &prog, c));
        let won = t.time("datalog.eval", req, || {
            Evaluator::with_plan(&prog, plan)
                .with_recorder(rec.clone())
                .run_until(Some(&atom))
                .contains(&atom)
        });
        c.evaluated += 1;
        if won {
            winner = Some(i);
            break;
        }
    }
    let Some(wi) = winner else {
        return Ok(Verdict::Safe);
    };
    let (prog, atom) = t.time("core.makep.construct", req, || {
        mk.program(&guesses[wi], target)
    });
    let plan = t.time("datalog.plan", req, || plan_counted(&mut cache, &prog, c));
    t.time("core.witness", req, || {
        witness::extract(&prog, &atom, rec, SINGLE, Some(plan))
    })
    .ok_or("the winning guess did not replay")?;
    Ok(Verdict::Unsafe)
}

/// `simplified-reach` one layer call at a time: the state search, then
/// (on UNSAFE) the dependency graph, thread bound and witness lines.
fn reach_layers(t: &mut Tracer, req: usize, text: &str, c: &mut Counts) -> Result<Verdict, String> {
    let sys = t
        .time("program.parse", req, || parse_system(text))
        .map_err(|e| e.to_string())?;
    let (goal, budget) = t.time("core.prepare", req, || prepare(&sys))?;
    if !goal.had_assert {
        return Ok(Verdict::Safe);
    }
    let report = t
        .time("simplified.reach", req, || {
            Reachability::new(goal.system.clone(), budget.clone(), ReachLimits::default()).map(
                |r| {
                    r.with_threads(SINGLE)
                        .run(SimpTarget::MessageGenerated(goal.goal_var, goal.goal_val))
                },
            )
        })
        .map_err(|e| format!("{e:?}"))?;
    c.states += report.states as u64;
    c.worlds += report.worlds as u64;
    if let Some(w) = &report.witness {
        t.time("simplified.witness", req, || {
            let sys = &goal.system;
            let graph = DepGraph::build(sys, &budget, w);
            let bound = graph
                .find_message(goal.goal_var, goal.goal_val)
                .map(|n| cost_of_graph(&graph, n));
            let lines: Vec<String> = w
                .dis_path
                .iter()
                .map(|s| {
                    let p = &sys.dis[s.thread];
                    let names = Names::for_program(&sys.vars, p);
                    let instr = instr_to_string(&p.cfa().edges()[s.edge].instr, names);
                    format!("dis{}: {instr}", s.thread + 1)
                })
                .collect();
            std::hint::black_box((bound, lines));
        });
    }
    Ok(match report.outcome {
        ReachOutcome::Unsafe => Verdict::Unsafe,
        ReachOutcome::Safe => Verdict::Safe,
        ReachOutcome::Truncated => Verdict::Unknown,
        ReachOutcome::Interrupted(r) => Verdict::Interrupted(r),
    })
}

/// `--trace`: each request runs untraced and then again with a span
/// around every layer call, back to back so that both see the same host.
pub fn trace(w: Workload, seed: u64, seconds: f64, answers: &Answers) -> Traced {
    if w == Workload::ServeMixed {
        return trace_serve(seed, answers, seconds);
    }
    let (mut c, _) = setup_closed(w, seed, answers);
    // The decomposition is single-threaded, so the reference is too.
    c.threads = SINGLE;
    let mut failures = Vec::new();
    let mut tracer = Tracer::new();
    let rec = Recorder::enabled(Level::Summary);
    let mut counts = Counts::default();
    let (mut untraced_ns, mut traced_ns) = (0, 0);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let k = counts.requests as usize;
        counts.requests += 1;
        let input = c.input(k);
        let mut untraced = || {
            let t = cpu::process_ns();
            let want = decide(&input.text, c.engine, c.threads);
            untraced_ns += cpu::process_ns() - t;
            want
        };
        // Alternate which pass goes first: the second finds warm caches.
        let want = k.is_multiple_of(2).then(&mut untraced);
        let req = tracer.open(k as u32, REQUEST, None);
        let got = match c.engine {
            EngineId::CacheDatalog => {
                datalog_layers(&mut tracer, req, &input.text, &rec, &mut counts)
            }
            _ => reach_layers(&mut tracer, req, &input.text, &mut counts),
        };
        tracer.close(req);
        traced_ns += tracer.spans[req].end - tracer.spans[req].start;
        let want = want.unwrap_or_else(untraced);
        if got != want {
            failures.push(format!(
                "{}: traced verdict {got:?} differs from untraced {want:?}",
                input.name
            ));
        }
        check(&input.name, input.expect, got, &mut failures);
    }
    let snapshot = rec.snapshot();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    counts.join_attempts = counter("join_attempts");
    counts.index_builds = counter("index_builds");
    counts.index_hits = counter("index_hits");
    Traced {
        tracer,
        overhead: traced_ns as f64 / untraced_ns as f64,
        attempted: 2 * counts.requests as usize,
        counts,
        failures,
    }
}

/// `serve-mixed` traced: one span per request around `process_line`,
/// named for whether the server's verifier cache had the program
/// (`serve.process.hit`) or not (`serve.process.miss`). A served request
/// cannot be run twice alike, since the second run would find it cached,
/// so there is a single pass, and the overhead is the CPU time spent
/// building the spans.
fn trace_serve(seed: u64, answers: &Answers, seconds: f64) -> Traced {
    let traffic = Traffic::new(answers);
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut failures = Vec::new();
    let (mut request_ns, mut building_ns) = (0, 0);
    serve_rounds(&traffic, seed, seconds, |s| {
        let building = cpu::process_ns();
        let layer = if s.hit {
            "serve.process.hit"
        } else {
            "serve.process.miss"
        };
        let k = counts.requests as u32;
        counts.requests += 1;
        counts.cache_lookups += 1;
        counts.cache_hits += u64::from(s.hit);
        counts.rejected += u64::from(s.rejected);
        let end = tracer.now();
        let req = tracer.push(k, REQUEST, None, end - s.ns, end);
        tracer.push(k, layer, Some(req), end - s.ns, end);
        request_ns += s.ns;
        check(&s.input.name, s.input.expect, s.verdict, &mut failures);
        building_ns += cpu::process_ns() - building;
    });
    Traced {
        tracer,
        overhead: (request_ns + building_ns) as f64 / request_ns as f64,
        attempted: counts.requests as usize,
        counts,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answers() -> Answers {
        Answers::parse(inputs::ANSWERS).expect("answers parse")
    }

    /// A round's request lines, as the server receives them.
    fn lines(t: &Traffic, seed: u64) -> Vec<String> {
        t.round(&mut Rng::new(seed))
            .into_iter()
            .enumerate()
            .map(|(k, (input, datalog))| request_line(k, input, *datalog))
            .collect()
    }

    #[test]
    fn a_seed_fixes_the_request_bytes() {
        let t = Traffic::new(&answers());
        assert_eq!(lines(&t, 1), lines(&t, 1));
        assert_ne!(lines(&t, 1), lines(&t, 2));
        assert_eq!(
            lines(&t, 1).len(),
            SERVE_HOT_PASSES * t.hot.len() + SERVE_FRESH
        );
        // Later rounds of one run draw new orders.
        let mut rng = Rng::new(1);
        let first: Vec<&str> = t.round(&mut rng).iter().map(|r| &*r.0.name).collect();
        let second: Vec<&str> = t.round(&mut rng).iter().map(|r| &*r.0.name).collect();
        assert_ne!(first, second);
    }

    #[test]
    fn every_round_sends_the_same_multiset() {
        let t = Traffic::new(&answers());
        assert_eq!(t.hot.len(), 26 + SERVE_HOT_GENERATED);
        let hot: Vec<&str> = t.hot.iter().map(|(i, _)| &*i.name).collect();
        let traffic = |seed| {
            let round = t.round(&mut Rng::new(seed));
            let (repeats, fresh): (Vec<_>, Vec<_>) = round
                .into_iter()
                .partition(|(i, _)| hot.contains(&&*i.name));
            let mut names: Vec<&str> = fresh.iter().map(|(i, _)| &*i.name).collect();
            names.sort_unstable();
            let datalog = fresh.iter().filter(|(_, d)| *d).count();
            (names, repeats.len(), datalog)
        };
        let (fresh1, hot1, datalog1) = traffic(1);
        assert_eq!(hot1, SERVE_HOT_PASSES * t.hot.len());
        assert_eq!(fresh1.len(), SERVE_FRESH);
        assert!(fresh1.windows(2).all(|w| w[0] != w[1]), "fresh means once");
        assert_eq!(datalog1, 87, "every fifth fresh program asks for Datalog");
        assert_eq!(traffic(2), (fresh1, hot1, datalog1));
    }

    #[test]
    fn closed_loops_send_their_whole_pool_in_every_pass() {
        let a = answers();
        for (w, pool) in [
            (Workload::LitmusDatalog, 26),
            (Workload::FleetSaturate, FLEET_POOL),
            (Workload::ReachGenerated, REACH_POOL),
        ] {
            let c = build_closed(w, 1, &a);
            assert_eq!(c.inputs.len(), pool, "{}", w.name());
            let mut pass = c.order[..pool].to_vec();
            assert_ne!(pass, (0..pool).collect::<Vec<_>>(), "shuffled");
            pass.sort_unstable();
            assert_eq!(pass, (0..pool).collect::<Vec<_>>(), "{}", w.name());
            assert_ne!(c.order, build_closed(w, 2, &a).order);
            assert!(c.order.len() >= ORDER_LEN);
        }
    }

    #[test]
    fn requests_carry_the_program_text_and_engine() {
        let input = &inputs::litmus()[0];
        let v = json::parse(&request_line(7, input, true)).unwrap();
        assert_eq!(v.get("program").and_then(Value::as_str), Some(&*input.text));
        assert_eq!(
            v.get("engine").and_then(Value::as_str),
            Some("cache-datalog")
        );
        assert_eq!(v.get("id").and_then(Value::as_str), Some("7"));
        let plain = json::parse(&request_line(7, input, false)).unwrap();
        assert!(plain.get("engine").is_none());
    }

    #[test]
    fn the_layer_decomposition_decides_like_the_engines() {
        let opts = || VerifierOptions {
            threads: SINGLE,
            ..Default::default()
        };
        let rec = Recorder::enabled(Level::Summary);
        for input in inputs::litmus() {
            let sys = parse_system(&input.text).unwrap();
            let v = Verifier::new(&sys, opts()).unwrap();
            let mut t = Tracer::new();
            let mut c = Counts::default();
            let req = t.open(0, REQUEST, None);
            let datalog = datalog_layers(&mut t, req, &input.text, &rec, &mut c);
            assert_eq!(
                datalog,
                Ok(v.run(EngineId::CacheDatalog).verdict),
                "{}",
                input.name
            );
            let reach = reach_layers(&mut t, req, &input.text, &mut c);
            assert_eq!(
                reach,
                Ok(v.run(EngineId::SimplifiedReach).verdict),
                "{}",
                input.name
            );
            assert_eq!(reach, Ok(input.expect), "{}", input.name);
        }
    }
}
