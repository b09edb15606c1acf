//! `parra report`: aggregate, render, and diff flight-recorder output.
//!
//! Ingests JSONL produced anywhere in the pipeline — flight-recorder
//! event logs (`--events-out`), `parra batch` result lines, single-run
//! `--json` reports, and fuzz-campaign summaries — classifying each line
//! by shape. The aggregate [`ReportSet`] renders as a text dashboard
//! (per-engine verdict tallies, duration percentiles from power-of-two
//! buckets, phase breakdowns) and two sets diff against each other,
//! surfacing **verdict flips** and **phase-time regressions** past a
//! threshold — the crater-style comparison batch sweeps and campaigns
//! need.

use crate::events;
use crate::json::{parse, Value};
use crate::metrics::HistSnapshot;
use std::collections::BTreeMap;

/// One verification run, as recovered from any ingestible line shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// The input file, when the line carried attribution.
    pub file: Option<String>,
    /// The engine name (e.g. `simplified-reach`).
    pub engine: String,
    /// The verdict string (`safe` / `unsafe` / `unknown` / ...).
    pub verdict: String,
    /// The interruption reason, if the run was cut short.
    pub interrupted: Option<String>,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
    /// Phase name → accumulated microseconds.
    pub phases: BTreeMap<String, u64>,
}

/// One portfolio race, as recovered from a `race` flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceRecord {
    /// The input file, when the line carried attribution.
    pub file: Option<String>,
    /// The racers, in portfolio order.
    pub engines: Vec<String>,
    /// The aggregate verdict (equals the sequential aggregate).
    pub verdict: String,
    /// The engine whose decisive answer won, if any. The `winner` index
    /// lives in the event's volatile section (which racer wins is
    /// wall-clock-bound); it is resolved against `engines` here.
    pub winner: Option<String>,
    /// Wall-clock duration of the race in microseconds.
    pub duration_us: u64,
}

/// A fuzz-campaign summary line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzRecord {
    /// The oracle name.
    pub oracle: String,
    /// Cases executed.
    pub cases: u64,
    /// Failing cases.
    pub failures: u64,
}

/// An aggregated set of ingested telemetry.
#[derive(Debug, Clone, Default)]
pub struct ReportSet {
    /// Every recovered run.
    pub runs: Vec<RunRecord>,
    /// Every recovered portfolio race.
    pub races: Vec<RaceRecord>,
    /// Fuzz summaries.
    pub fuzz: Vec<FuzzRecord>,
    /// Flight-recorder event lines seen (all kinds).
    pub event_lines: usize,
    /// Batch lines that carried an error instead of reports.
    pub errors: usize,
    /// Valid JSON lines of no recognized shape.
    pub other_lines: usize,
}

/// A line that failed to ingest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedLine {
    /// Source path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl ReportSet {
    /// Ingests one JSONL line, classified by shape.
    pub fn ingest_line(&mut self, line: &str) -> Result<(), String> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        let v = parse(line).map_err(|e| e.to_string())?;
        if v.get("v").is_some() {
            // Flight-recorder event: validate strictly.
            let v = events::check_line(line).map_err(|e| e.message)?;
            self.event_lines += 1;
            match v.get("kind").and_then(Value::as_str) {
                Some("run_end") => self.runs.push(run_from_event(&v)),
                Some("race") => self.races.push(race_from_event(&v)),
                _ => {}
            }
            return Ok(());
        }
        if let Some(reports) = v.get("reports").and_then(Value::as_arr) {
            // `parra batch` line.
            let file = v.get("file").and_then(Value::as_str).map(str::to_string);
            if v.get("error").map(Value::is_null) == Some(false) {
                self.errors += 1;
            }
            for r in reports {
                self.runs.push(run_from_report(file.clone(), r)?);
            }
            return Ok(());
        }
        if v.get("key").is_some() && v.get("input").is_some() {
            // A campaign store record (`results.jsonl`): one run per
            // input, attributed to the input path, with the wall clock
            // in the record's volatile section. Errored inputs count as
            // errors and still surface as `ERROR`-verdict runs so a diff
            // sees them flip rather than disappear.
            if v.get("error").map(Value::is_null) == Some(false) {
                self.errors += 1;
            }
            self.runs.push(RunRecord {
                file: v.get("input").and_then(Value::as_str).map(str::to_string),
                engine: v
                    .get("engine")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string(),
                verdict: v
                    .get("verdict")
                    .and_then(Value::as_str)
                    .unwrap_or("ERROR")
                    .to_string(),
                interrupted: v
                    .get("interrupted")
                    .and_then(Value::as_str)
                    .map(str::to_string),
                duration_us: v
                    .get("volatile")
                    .and_then(|vol| vol.get("duration_us"))
                    .and_then(Value::as_u64)
                    .unwrap_or(0),
                phases: BTreeMap::new(),
            });
            return Ok(());
        }
        if v.get("engine").is_some() && v.get("verdict").is_some() {
            // A single `--json` run report.
            self.runs.push(run_from_report(None, &v)?);
            return Ok(());
        }
        if v.get("cases").is_some() && v.get("failures").is_some() {
            self.fuzz.push(FuzzRecord {
                oracle: v
                    .get("oracle")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string(),
                cases: v.get("cases").and_then(Value::as_u64).unwrap_or(0),
                failures: v.get("failures").and_then(Value::as_u64).unwrap_or(0),
            });
            return Ok(());
        }
        self.other_lines += 1;
        Ok(())
    }

    /// Whether anything usable was ingested.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.fuzz.is_empty() && self.event_lines == 0
    }
}

fn run_from_event(v: &Value) -> RunRecord {
    let scope = v.get("scope").and_then(Value::as_str).unwrap_or("");
    let fields = v.get("fields");
    let get_field = |k: &str| fields.and_then(|f| f.get(k));
    let mut phases = BTreeMap::new();
    let mut duration_us = 0;
    if let Some(vol) = v.get("volatile").and_then(Value::as_obj) {
        for (k, val) in vol {
            let Some(n) = val.as_u64() else { continue };
            if let Some(name) = k
                .strip_prefix("phase/")
                .and_then(|rest| rest.strip_suffix("_us"))
            {
                phases.insert(name.to_string(), n);
            } else if k == "duration_us" {
                duration_us = n;
            }
        }
    }
    RunRecord {
        file: v.get("file").and_then(Value::as_str).map(str::to_string),
        engine: scope.trim_end_matches('/').to_string(),
        verdict: get_field("verdict")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string(),
        interrupted: get_field("interrupted")
            .and_then(Value::as_str)
            .map(str::to_string),
        duration_us,
        phases,
    }
}

fn race_from_event(v: &Value) -> RaceRecord {
    let fields = v.get("fields");
    let get_field = |k: &str| fields.and_then(|f| f.get(k));
    let engines: Vec<String> = get_field("engines")
        .and_then(Value::as_str)
        .unwrap_or("")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let mut duration_us = 0;
    let mut winner_idx = None;
    if let Some(vol) = v.get("volatile").and_then(Value::as_obj) {
        for (k, val) in vol {
            match (k.as_str(), val.as_u64()) {
                ("duration_us", Some(n)) => duration_us = n,
                ("winner", Some(n)) => winner_idx = Some(n as usize),
                _ => {}
            }
        }
    }
    RaceRecord {
        file: v.get("file").and_then(Value::as_str).map(str::to_string),
        verdict: get_field("verdict")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string(),
        winner: winner_idx.and_then(|i| engines.get(i).cloned()),
        engines,
        duration_us,
    }
}

fn run_from_report(file: Option<String>, v: &Value) -> Result<RunRecord, String> {
    let engine = v
        .get("engine")
        .and_then(Value::as_str)
        .ok_or("report missing `engine`")?;
    let verdict = v
        .get("verdict")
        .and_then(Value::as_str)
        .ok_or("report missing `verdict`")?;
    let mut phases = BTreeMap::new();
    if let Some(ph) = v.get("phases").and_then(Value::as_obj) {
        for (k, val) in ph {
            if let Some(n) = val.as_u64() {
                phases.insert(k.clone(), n);
            }
        }
    }
    Ok(RunRecord {
        file,
        engine: engine.to_string(),
        verdict: verdict.to_string(),
        interrupted: v
            .get("interrupted")
            .and_then(Value::as_str)
            .map(str::to_string),
        duration_us: v.get("duration_us").and_then(Value::as_u64).unwrap_or(0),
        phases,
    })
}

/// Loads and ingests `paths` (files, or directories scanned for
/// `*.json` / `*.jsonl`); malformed lines are collected, not fatal.
pub fn load(paths: &[std::path::PathBuf]) -> std::io::Result<(ReportSet, Vec<MalformedLine>)> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            let mut entries: Vec<_> = std::fs::read_dir(p)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    matches!(
                        p.extension().and_then(|e| e.to_str()),
                        Some("json") | Some("jsonl")
                    )
                })
                .collect();
            entries.sort();
            files.extend(entries);
        } else {
            files.push(p.clone());
        }
    }
    let mut set = ReportSet::default();
    let mut malformed = Vec::new();
    for f in &files {
        let text = std::fs::read_to_string(f)?;
        for (i, line) in text.lines().enumerate() {
            if let Err(message) = set.ingest_line(line) {
                malformed.push(MalformedLine {
                    path: f.display().to_string(),
                    line: i + 1,
                    message,
                });
            }
        }
    }
    Ok((set, malformed))
}

/// Strictly validates `text` as a flight-recorder event log: every
/// non-empty line must satisfy the versioned event schema. Returns the
/// number of valid lines.
pub fn check_schema(text: &str) -> Result<usize, MalformedLine> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events::check_line(line).map_err(|e| MalformedLine {
            path: String::new(),
            line: i + 1,
            message: e.message,
        })?;
        n += 1;
    }
    Ok(n)
}

fn hist_of(samples: impl Iterator<Item = u64>) -> HistSnapshot {
    let mut buckets: BTreeMap<u32, u64> = BTreeMap::new();
    let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
    for v in samples {
        *buckets.entry(u64::BITS - v.leading_zeros()).or_default() += 1;
        count += 1;
        sum += v;
        max = max.max(v);
    }
    HistSnapshot {
        count,
        sum,
        max,
        buckets: buckets.into_iter().collect(),
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

/// Renders the per-engine dashboard: verdict/interruption tallies,
/// duration percentiles (upper-bound estimates from power-of-two
/// buckets), and phase breakdowns.
pub fn render_dashboard(set: &ReportSet) -> String {
    let mut out = String::new();
    let files: std::collections::BTreeSet<&str> =
        set.runs.iter().filter_map(|r| r.file.as_deref()).collect();
    out.push_str(&format!(
        "flight report — {} runs over {} files ({} event lines, {} errors)\n",
        set.runs.len(),
        files.len(),
        set.event_lines,
        set.errors,
    ));
    let mut by_engine: BTreeMap<&str, Vec<&RunRecord>> = BTreeMap::new();
    for r in &set.runs {
        by_engine.entry(&r.engine).or_default().push(r);
    }
    if !by_engine.is_empty() {
        out.push_str(&format!(
            "\n{:<22} {:>5} {:>5} {:>7} {:>8} {:>5} {:>9} {:>9} {:>9}\n",
            "engine", "runs", "safe", "unsafe", "unknown", "intr", "p50", "p90", "p99"
        ));
        for (engine, runs) in &by_engine {
            let tally = |v: &str| {
                runs.iter()
                    .filter(|r| r.verdict.eq_ignore_ascii_case(v))
                    .count()
            };
            let intr = runs
                .iter()
                .filter(|r| {
                    r.interrupted.is_some()
                        || r.verdict.to_ascii_uppercase().starts_with("INTERRUPTED")
                })
                .count();
            let h = hist_of(runs.iter().map(|r| r.duration_us));
            out.push_str(&format!(
                "{:<22} {:>5} {:>5} {:>7} {:>8} {:>5} {:>9} {:>9} {:>9}\n",
                engine,
                runs.len(),
                tally("safe"),
                tally("unsafe"),
                tally("unknown"),
                intr,
                fmt_us(h.p50()),
                fmt_us(h.p90()),
                fmt_us(h.p99()),
            ));
        }
        out.push_str("\nphase breakdown (sums across runs; only --race runs overlap):\n");
        for (engine, runs) in &by_engine {
            let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
            for r in runs {
                for (k, v) in &r.phases {
                    *totals.entry(k).or_default() += v;
                }
            }
            if totals.is_empty() {
                out.push_str(&format!("  {engine:<20} (no phase data)\n"));
                continue;
            }
            let grand: u64 = totals.values().sum();
            let mut parts: Vec<(&str, u64)> = totals.into_iter().collect();
            parts.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
            let body = parts
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{k} {:.1}% ({})",
                        *v as f64 * 100.0 / grand as f64,
                        fmt_us(*v)
                    )
                })
                .collect::<Vec<_>>()
                .join(" · ");
            out.push_str(&format!("  {engine:<20} {body}\n"));
        }
    }
    if !set.races.is_empty() {
        let h = hist_of(set.races.iter().map(|r| r.duration_us));
        out.push_str(&format!(
            "\nportfolio races: {} (p50 {}, p90 {}, p99 {})\n",
            set.races.len(),
            fmt_us(h.p50()),
            fmt_us(h.p90()),
            fmt_us(h.p99()),
        ));
        let mut wins: BTreeMap<&str, usize> = BTreeMap::new();
        let mut verdicts: BTreeMap<&str, usize> = BTreeMap::new();
        for r in &set.races {
            *wins
                .entry(r.winner.as_deref().unwrap_or("(no decisive answer)"))
                .or_default() += 1;
            *verdicts.entry(&r.verdict).or_default() += 1;
        }
        let fmt_tally = |m: &BTreeMap<&str, usize>| {
            m.iter()
                .map(|(k, n)| format!("{k} ×{n}"))
                .collect::<Vec<_>>()
                .join(" · ")
        };
        out.push_str(&format!("  verdicts       : {}\n", fmt_tally(&verdicts)));
        out.push_str(&format!("  first decisive : {}\n", fmt_tally(&wins)));
    }
    for f in &set.fuzz {
        out.push_str(&format!(
            "\nfuzz [{}]: {} cases, {} failures\n",
            f.oracle, f.cases, f.failures
        ));
    }
    out
}

/// Knobs for [`diff`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// A phase regresses when it grows by more than this percentage...
    pub threshold_pct: u64,
    /// ...and by more than this absolute floor (filters noise on
    /// sub-millisecond phases).
    pub floor_us: u64,
}

impl DiffOptions {
    /// Whether a time that went from `base_us` to `new_us` regressed:
    /// it grew by more than `threshold_pct` percent *and* by more than
    /// `floor_us`. The one regression rule shared by `report --diff`,
    /// `campaign diff` and the `bench_*` gates.
    pub fn regressed(&self, base_us: u64, new_us: u64) -> bool {
        new_us > base_us + base_us * self.threshold_pct / 100 && new_us > base_us + self.floor_us
    }
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            threshold_pct: 25,
            floor_us: 1_000,
        }
    }
}

/// A run whose verdict changed between the two sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictFlip {
    /// `file · engine` key.
    pub key: String,
    /// Verdict in the baseline set.
    pub from: String,
    /// Verdict in the new set.
    pub to: String,
}

/// A phase that slowed past the threshold between the two sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRegression {
    /// `file · engine` key.
    pub key: String,
    /// The phase name (`total` is the whole-run pseudo-phase).
    pub phase: String,
    /// Baseline microseconds.
    pub a_us: u64,
    /// New microseconds.
    pub b_us: u64,
}

/// The outcome of diffing two report sets.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Runs compared (present in both sets).
    pub compared: usize,
    /// Verdict flips.
    pub flips: Vec<VerdictFlip>,
    /// Phase-time regressions.
    pub regressions: Vec<PhaseRegression>,
    /// Keys only in the baseline.
    pub only_in_a: Vec<String>,
    /// Keys only in the new set.
    pub only_in_b: Vec<String>,
}

impl DiffReport {
    /// Whether the diff found anything worth failing a gate over.
    pub fn is_clean(&self) -> bool {
        self.flips.is_empty() && self.regressions.is_empty()
    }
}

fn keyed(set: &ReportSet) -> BTreeMap<(String, String, usize), &RunRecord> {
    let mut occurrence: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for r in &set.runs {
        let base = (r.file.clone().unwrap_or_default(), r.engine.clone());
        let n = occurrence.entry(base.clone()).or_default();
        out.insert((base.0, base.1, *n), r);
        *n += 1;
    }
    out
}

fn key_label(k: &(String, String, usize)) -> String {
    let file = if k.0.is_empty() { "<run>" } else { &k.0 };
    if k.2 == 0 {
        format!("{file} · {}", k.1)
    } else {
        format!("{file} · {} #{}", k.1, k.2)
    }
}

/// Per (file, engine), the fastest of its runs phase by phase: the least
/// `duration` (as the pseudo-phase `total`), then the least time of each
/// phase, a run without the phase counting 0. A stall slows one run of a
/// repeated input; a regression slows every run.
fn fastest(set: &ReportSet) -> BTreeMap<(String, String), BTreeMap<&str, u64>> {
    let mut runs: BTreeMap<(String, String), Vec<&RunRecord>> = BTreeMap::new();
    for r in &set.runs {
        let key = (r.file.clone().unwrap_or_default(), r.engine.clone());
        runs.entry(key).or_default().push(r);
    }
    let mut out = BTreeMap::new();
    for (key, runs) in runs {
        let names = runs
            .iter()
            .flat_map(|r| r.phases.keys().map(String::as_str));
        let mut least: BTreeMap<&str, u64> = names.map(|n| (n, 0)).collect();
        for (name, us) in &mut least {
            let times = runs
                .iter()
                .map(|r| r.phases.get(*name).copied().unwrap_or(0));
            *us = times.min().unwrap_or(0);
        }
        let total = runs.iter().map(|r| r.duration_us).min().unwrap_or(0);
        least.insert("total", total);
        out.insert(key, least);
    }
    out
}

/// Diffs two report sets: verdict flips (run by run), phase regressions
/// past the threshold (between the fastest runs of each input and
/// engine, phase by phase), and coverage differences.
pub fn diff(a: &ReportSet, b: &ReportSet, opts: DiffOptions) -> DiffReport {
    let (ka, kb) = (keyed(a), keyed(b));
    let mut report = DiffReport::default();
    for (k, ra) in &ka {
        let Some(rb) = kb.get(k) else {
            report.only_in_a.push(key_label(k));
            continue;
        };
        report.compared += 1;
        if ra.verdict != rb.verdict {
            report.flips.push(VerdictFlip {
                key: key_label(k),
                from: ra.verdict.clone(),
                to: rb.verdict.clone(),
            });
        }
    }
    let (fa, fb) = (fastest(a), fastest(b));
    for (key, pa) in &fa {
        let Some(pb) = fb.get(key) else { continue };
        let names: std::collections::BTreeSet<&str> = pa.keys().chain(pb.keys()).copied().collect();
        // `total` first, then the phases by name.
        let phases = std::iter::once("total").chain(names.into_iter().filter(|n| *n != "total"));
        for phase in phases {
            let time = |least: &BTreeMap<&str, u64>| least.get(phase).copied().unwrap_or(0);
            let (a_us, b_us) = (time(pa), time(pb));
            if opts.regressed(a_us, b_us) {
                report.regressions.push(PhaseRegression {
                    key: key_label(&(key.0.clone(), key.1.clone(), 0)),
                    phase: phase.to_string(),
                    a_us,
                    b_us,
                });
            }
        }
    }
    for k in kb.keys() {
        if !ka.contains_key(k) {
            report.only_in_b.push(key_label(k));
        }
    }
    report
}

/// Renders a diff as text.
pub fn render_diff(d: &DiffReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "diff: {} runs compared, {} verdict flips, {} phase regressions\n",
        d.compared,
        d.flips.len(),
        d.regressions.len()
    ));
    for f in &d.flips {
        out.push_str(&format!("  FLIP {}: {} -> {}\n", f.key, f.from, f.to));
    }
    for r in &d.regressions {
        out.push_str(&format!(
            "  SLOWER {} [{}]: {} -> {} (+{:.0}%)\n",
            r.key,
            r.phase,
            fmt_us(r.a_us),
            fmt_us(r.b_us),
            (r.b_us as f64 / r.a_us.max(1) as f64 - 1.0) * 100.0,
        ));
    }
    if !d.only_in_a.is_empty() {
        out.push_str(&format!("  only in baseline: {}\n", d.only_in_a.join(", ")));
    }
    if !d.only_in_b.is_empty() {
        out.push_str(&format!("  only in new set: {}\n", d.only_in_b.join(", ")));
    }
    if d.is_clean() {
        out.push_str("  clean: no flips, no regressions\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(file: &str, engine: &str, verdict: &str, dur: u64, search_us: u64) -> RunRecord {
        RunRecord {
            file: Some(file.to_string()),
            engine: engine.to_string(),
            verdict: verdict.to_string(),
            interrupted: None,
            duration_us: dur,
            phases: [("search".to_string(), search_us)].into_iter().collect(),
        }
    }

    #[test]
    fn ingests_batch_and_event_and_fuzz_lines() {
        let mut set = ReportSet::default();
        set.ingest_line(r#"{"file":"a.ra","verdict":"safe","interrupted":null,"error":null,"duration_us":10,"reports":[{"engine":"simplified-reach","verdict":"safe","duration_us":9,"interrupted":null,"phases":{"search":7}}]}"#).unwrap();
        set.ingest_line(r#"{"v":1,"seq":4,"t_us":9,"scope":"ra-explore/","kind":"run_end","fields":{"verdict":"unsafe"},"volatile":{"duration_us":123,"phase/search_us":99}}"#).unwrap();
        set.ingest_line(r#"{"v":1,"seq":0,"t_us":1,"scope":"ra-explore/","kind":"round","fields":{"round":0},"volatile":{}}"#).unwrap();
        set.ingest_line(r#"{"oracle":"cross","cases":50,"failures":1,"skipped":0}"#)
            .unwrap();
        assert_eq!(set.runs.len(), 2);
        assert_eq!(set.event_lines, 2);
        assert_eq!(set.fuzz.len(), 1);
        let r = &set.runs[0];
        assert_eq!(
            (r.file.as_deref(), r.engine.as_str()),
            (Some("a.ra"), "simplified-reach")
        );
        assert_eq!(r.phases["search"], 7);
        let e = &set.runs[1];
        assert_eq!(
            (e.engine.as_str(), e.verdict.as_str()),
            ("ra-explore", "unsafe")
        );
        assert_eq!((e.duration_us, e.phases["search"]), (123, 99));
        assert!(set.ingest_line("{ not json").is_err());

        let dash = render_dashboard(&set);
        assert!(dash.contains("simplified-reach"));
        assert!(dash.contains("fuzz [cross]: 50 cases, 1 failures"));
    }

    #[test]
    fn ingests_campaign_store_records() {
        let mut set = ReportSet::default();
        set.ingest_line(r#"{"key":"0123abcd","input":"a.ra","engine":"all-engines","verdict":"SAFE","interrupted":null,"error":null,"volatile":{"duration_us":42}}"#).unwrap();
        set.ingest_line(r#"{"key":"4567abcd","input":"b.ra","engine":"all-engines","verdict":null,"interrupted":null,"error":"parse: boom","volatile":{"duration_us":1}}"#).unwrap();
        assert_eq!(set.runs.len(), 2);
        assert_eq!(set.errors, 1);
        let r = &set.runs[0];
        assert_eq!(
            (r.file.as_deref(), r.engine.as_str(), r.verdict.as_str()),
            (Some("a.ra"), "all-engines", "SAFE")
        );
        assert_eq!(r.duration_us, 42);
        assert_eq!(set.runs[1].verdict, "ERROR");
    }

    #[test]
    fn ingests_race_events_and_attributes_the_winner() {
        let mut set = ReportSet::default();
        set.ingest_line(r#"{"v":1,"file":"a.ra","seq":9,"t_us":50,"scope":"race/","kind":"race","fields":{"n_engines":3,"engines":"simplified-reach,cache-datalog,bounded-concrete","verdict":"UNSAFE"},"volatile":{"duration_us":1234,"winner":1}}"#).unwrap();
        set.ingest_line(r#"{"v":1,"seq":9,"t_us":50,"scope":"race/","kind":"race","fields":{"n_engines":2,"engines":"simplified-reach,cache-datalog","verdict":"UNKNOWN"},"volatile":{"duration_us":7}}"#).unwrap();
        assert_eq!(set.races.len(), 2);
        let r = &set.races[0];
        assert_eq!(r.file.as_deref(), Some("a.ra"));
        assert_eq!(r.engines.len(), 3);
        // The volatile winner index resolves against the engines field.
        assert_eq!(r.winner.as_deref(), Some("cache-datalog"));
        assert_eq!((r.verdict.as_str(), r.duration_us), ("UNSAFE", 1234));
        assert_eq!(set.races[1].winner, None);

        let dash = render_dashboard(&set);
        assert!(dash.contains("portfolio races: 2"));
        assert!(dash.contains("first decisive : (no decisive answer) ×1 · cache-datalog ×1"));
        assert!(dash.contains("UNKNOWN ×1 · UNSAFE ×1"));
    }

    #[test]
    fn check_schema_rejects_non_event_lines() {
        assert_eq!(
            check_schema("{\"v\":1,\"seq\":0,\"t_us\":0,\"scope\":\"\",\"kind\":\"x\",\"fields\":{},\"volatile\":{}}\n\n"),
            Ok(1)
        );
        let err = check_schema("{\"engine\":\"x\"}").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn diff_detects_injected_flip_and_phase_regression() {
        // The synthetic fixture from the acceptance criteria: one
        // verdict flip and one phase regression, nothing else.
        let base = ReportSet {
            runs: vec![
                run("a.ra", "simplified-reach", "safe", 10_000, 8_000),
                run("b.ra", "simplified-reach", "unsafe", 12_000, 9_000),
                run("a.ra", "cache-datalog", "safe", 50_000, 1_000),
            ],
            ..Default::default()
        };
        let new = ReportSet {
            runs: vec![
                run("a.ra", "simplified-reach", "unknown", 10_100, 8_100), // flip
                run("b.ra", "simplified-reach", "unsafe", 12_100, 30_000), // regression
                run("a.ra", "cache-datalog", "safe", 50_500, 1_100),
            ],
            ..Default::default()
        };
        let d = diff(&base, &new, DiffOptions::default());
        assert_eq!(d.compared, 3);
        assert_eq!(d.flips.len(), 1);
        assert_eq!(d.flips[0].from, "safe");
        assert_eq!(d.flips[0].to, "unknown");
        assert!(d.flips[0].key.contains("a.ra"));
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].phase, "search");
        assert!(!d.is_clean());
        let text = render_diff(&d);
        assert!(text.contains("FLIP"));
        assert!(text.contains("SLOWER"));

        // Identical sets are clean.
        let d2 = diff(&base, &base, DiffOptions::default());
        assert!(d2.is_clean());
        assert_eq!(d2.compared, 3);
        assert!(render_diff(&d2).contains("clean"));
    }

    #[test]
    fn diff_small_absolute_changes_are_filtered_by_the_floor() {
        let base = ReportSet {
            runs: vec![run("a.ra", "e", "safe", 100, 80)],
            ..Default::default()
        };
        let new = ReportSet {
            runs: vec![run("a.ra", "e", "safe", 900, 700)], // 9× but < 1ms floor
            ..Default::default()
        };
        assert!(diff(&base, &new, DiffOptions::default()).is_clean());
    }

    #[test]
    fn repeated_runs_compare_their_fastest_phases() {
        // Three runs of one input per set. A stall in one run of the new
        // set does not move its fastest time; a planted 10x slowdown of
        // `search` in every run does.
        let set = |search_us: [u64; 3]| ReportSet {
            runs: search_us
                .iter()
                .map(|&us| run("a.ra", "e", "safe", us + 500, us))
                .collect(),
            ..Default::default()
        };
        let base = set([300, 310, 305]);
        let stalled = set([300, 3_000, 320]);
        assert!(diff(&base, &stalled, DiffOptions::default()).is_clean());
        let slower = set([3_000, 3_100, 3_050]);
        let d = diff(&base, &slower, DiffOptions::default());
        let flagged: Vec<(&str, u64, u64)> = d
            .regressions
            .iter()
            .map(|r| (r.phase.as_str(), r.a_us, r.b_us))
            .collect();
        assert_eq!(flagged, [("total", 800, 3_500), ("search", 300, 3_000)]);
        assert_eq!(d.regressions[0].key, "a.ra · e");
        assert!(render_diff(&d).contains("SLOWER a.ra · e [search]: 300µs -> 3.0ms"));
    }

    #[test]
    fn repeated_engine_runs_pair_by_occurrence() {
        let mk = |verdicts: [&str; 2]| ReportSet {
            runs: verdicts
                .iter()
                .map(|v| run("a.ra", "e", v, 10, 5))
                .collect(),
            ..Default::default()
        };
        let d = diff(
            &mk(["safe", "safe"]),
            &mk(["safe", "unknown"]),
            DiffOptions::default(),
        );
        assert_eq!(d.flips.len(), 1);
        assert!(d.flips[0].key.contains("#1"));
        // Coverage differences surface instead of spurious flips.
        let d = diff(
            &mk(["safe", "safe"]),
            &ReportSet {
                runs: vec![run("a.ra", "e", "safe", 10, 5)],
                ..Default::default()
            },
            DiffOptions::default(),
        );
        assert!(d.is_clean());
        assert_eq!(d.only_in_a.len(), 1);
    }
}
