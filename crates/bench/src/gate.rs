//! The one regression gate behind every `bench_*` binary.
//!
//! A binary measures its workloads into [`Row`]s, adds its own
//! structural failures (contracts that need no baseline), and hands both
//! to [`main`]. The gate owns everything else: the command line, the
//! `BENCH_*.json` schema, the baseline lookup, the comparison rule, the
//! report lines and the exit code.
//!
//! ```text
//! bench_X [--out FILE]        # measure and write FILE (default BENCH_X.json)
//! bench_X --check BASELINE    # measure and compare; exit 1 on regression
//! ```
//!
//! Exit codes: 0 pass, 1 regression, 64 usage or I/O error. A mistyped
//! or repeated flag is a usage error, so a typo can never turn a
//! `--check` into a baseline rewrite.
//!
//! Every baseline is `{"entries":[row,…]}`. A row is an
//! ordered list of named cells, written in the order the binary gives
//! them; its key is its `bench` cell, plus its `engine` cell when it has
//! one. Each cell is tagged with how `--check` treats it: informational
//! ([`Row::info`]), wall-clock under [`WALL_CLOCK`] ([`Row::wall`]), or
//! exact ([`Row::exact`]).

use parra_obs::json::{self, ObjWriter, Value};
use parra_obs::report::DiffOptions;
use std::collections::BTreeMap;
use std::fmt;
use std::process::ExitCode;

/// The wall-clock rule of every `--check`: a [`Row::wall`] cell fails
/// when it grew by more than 25% *and* by more than 20 ms over its
/// baseline (sub-floor drift is timer noise on CI runners).
pub const WALL_CLOCK: DiffOptions = DiffOptions {
    threshold_pct: 25,
    floor_us: 20_000,
};

/// `bench_obs`'s self-relative rule: a recorded run may not exceed the
/// unrecorded run by more than 5% *and* 2 ms.
pub const RECORDER_OVERHEAD: DiffOptions = DiffOptions {
    threshold_pct: 5,
    floor_us: 2_000,
};

/// How `--check` treats one cell of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Recorded, never compared.
    Info,
    /// Wall-clock microseconds; fails past [`WALL_CLOCK`].
    Wall,
    /// A deterministic value (work counter, verdict); any change fails.
    Exact,
}

/// A cell value: a string or an unsigned integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Val {
    /// A string cell.
    Str(String),
    /// A numeric cell.
    Num(u64),
}

impl From<u64> for Val {
    fn from(n: u64) -> Val {
        Val::Num(n)
    }
}

impl From<&str> for Val {
    fn from(s: &str) -> Val {
        Val::Str(s.to_string())
    }
}

impl From<String> for Val {
    fn from(s: String) -> Val {
        Val::Str(s)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Str(s) => f.write_str(s),
            Val::Num(n) => write!(f, "{n}"),
        }
    }
}

/// One measured entry: named cells in output order.
#[derive(Debug, Clone, Default)]
pub struct Row {
    cells: Vec<(&'static str, Val, Gate)>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Appends an informational cell.
    pub fn info(self, name: &'static str, value: impl Into<Val>) -> Row {
        self.cell(name, value.into(), Gate::Info)
    }

    /// Appends a wall-clock cell (microseconds).
    pub fn wall(self, name: &'static str, us: u64) -> Row {
        self.cell(name, Val::Num(us), Gate::Wall)
    }

    /// Appends an exactly gated cell: a deterministic value (work
    /// counter, verdict); any change to it fails `--check`.
    pub fn exact(self, name: &'static str, value: impl Into<Val>) -> Row {
        self.cell(name, value.into(), Gate::Exact)
    }

    fn cell(mut self, name: &'static str, value: Val, gate: Gate) -> Row {
        self.cells.push((name, value, gate));
        self
    }

    fn key(&self) -> String {
        let get = |k| self.cells.iter().find(|c| c.0 == k).map(|c| &c.1);
        key_of(get("bench"), get("engine"))
    }

    /// The row as one report line; wall-clock cells show their baseline.
    fn render(&self, base: Option<&Entry>) -> String {
        let mut out = format!("{:<36}", self.key());
        for (name, value, gate) in &self.cells {
            if matches!(*name, "bench" | "engine") {
                continue;
            }
            out.push_str(&format!("  {name} {value}"));
            if let (Gate::Wall, Some(was)) = (gate, base.and_then(|b| b.get(*name))) {
                out.push_str(&format!(" (baseline {was})"));
            }
        }
        out
    }
}

/// A baseline entry as read back: field name → value.
type Entry = BTreeMap<String, Val>;

fn key_of(bench: Option<&Val>, engine: Option<&Val>) -> String {
    let bench = bench.map(Val::to_string).unwrap_or_default();
    match engine {
        Some(engine) => format!("{bench} / {engine}"),
        None => bench,
    }
}

fn to_json(rows: &[Row]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|row| {
            let mut w = ObjWriter::new();
            for (name, value, _) in &row.cells {
                match value {
                    Val::Str(s) => w.str_field(name, s),
                    Val::Num(n) => w.num_field(name, *n),
                }
            }
            w.finish()
        })
        .collect();
    let mut root = ObjWriter::new();
    root.raw_field("entries", &format!("[{}]", items.join(",")));
    root.finish() + "\n"
}

fn parse_baseline(text: &str) -> Result<Vec<Entry>, String> {
    let root = json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e:?}"))?;
    let entries = root
        .get("entries")
        .and_then(Value::as_arr)
        .ok_or("baseline has no `entries` array")?;
    entries
        .iter()
        .map(|e| {
            let fields = e.as_obj().ok_or("baseline entry is not an object")?;
            fields
                .iter()
                .map(|(name, v)| {
                    let value = match (v.as_str(), v.as_u64()) {
                        (Some(s), _) => Val::from(s),
                        (None, Some(n)) => Val::Num(n),
                        _ => return Err(format!("baseline field `{name}` is not a string or u64")),
                    };
                    Ok((name.clone(), value))
                })
                .collect()
        })
        .collect()
}

/// Every way `row` fails against its baseline entry (empty: it passes).
/// A gated cell missing from the baseline is an error, not a failure.
fn compare(row: &Row, base: &Entry) -> Result<Vec<String>, String> {
    let key = row.key();
    let mut failures = Vec::new();
    for (name, now, gate) in &row.cells {
        if *gate == Gate::Info {
            continue;
        }
        let was = base
            .get(*name)
            .ok_or_else(|| format!("baseline entry {key} has no `{name}`"))?;
        match (gate, was, now) {
            (Gate::Wall, Val::Num(was), Val::Num(now)) if WALL_CLOCK.regressed(*was, *now) => {
                failures.push(format!(
                    "{key}: {name} {now} µs vs baseline {was} µs (>{}% and >{} ms floor)",
                    WALL_CLOCK.threshold_pct,
                    WALL_CLOCK.floor_us / 1000
                ));
            }
            (Gate::Wall, Val::Num(_), _) => {}
            (Gate::Wall, _, _) => {
                return Err(format!("baseline entry {key}: `{name}` is not numeric"))
            }
            _ if was != now => {
                failures.push(format!("{key}: {name} {was} -> {now} (exact gate)"));
            }
            _ => {}
        }
    }
    Ok(failures)
}

/// Compares `rows` against the baseline, printing one line per row;
/// returns every failure, after the binary's structural ones.
fn check(
    rows: &[Row],
    mut failures: Vec<String>,
    baseline: &[Entry],
) -> Result<Vec<String>, String> {
    for row in rows {
        let key = row.key();
        let Some(base) = baseline
            .iter()
            .find(|b| key_of(b.get("bench"), b.get("engine")) == key)
        else {
            println!("note: {key} has no baseline entry (new benchmark?)");
            continue;
        };
        let row_failures = compare(row, base)?;
        let marker = if row_failures.is_empty() {
            "ok"
        } else {
            "FAILED"
        };
        println!("{} {marker}", row.render(Some(base)));
        failures.extend(row_failures);
    }
    Ok(failures)
}

#[derive(Debug, PartialEq, Eq)]
enum Mode {
    Out(String),
    Check(String),
}

/// Accepts only `--out FILE` and `--check FILE`, each at most once, each
/// with a value, and not both.
fn parse_args(args: impl IntoIterator<Item = String>, default_out: &str) -> Result<Mode, String> {
    let (mut out, mut check) = (None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--out" => &mut out,
            "--check" => &mut check,
            _ => return Err(format!("unexpected argument `{flag}`")),
        };
        let value = args
            .next()
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("`{flag}` needs a FILE"))?;
        if slot.replace(value).is_some() {
            return Err(format!("`{flag}` given more than once"));
        }
    }
    match (out, check) {
        (Some(_), Some(_)) => Err("`--out` and `--check` are exclusive".into()),
        (None, Some(baseline)) => Ok(Mode::Check(baseline)),
        (out, None) => Ok(Mode::Out(out.unwrap_or_else(|| default_out.to_string()))),
    }
}

/// Runs a `bench_*` binary: parses the command line (before measuring),
/// calls `measure` for the rows and the binary's structural failures,
/// then writes the baseline (`--out`) or gates against it (`--check`).
pub fn main(bin: &str, default_out: &str, measure: fn() -> (Vec<Row>, Vec<String>)) -> ExitCode {
    let exit_64 = |msg: String| {
        eprintln!("{bin}: {msg}");
        ExitCode::from(64)
    };
    let mode = match parse_args(std::env::args().skip(1), default_out) {
        Ok(mode) => mode,
        Err(msg) => {
            return exit_64(format!(
                "{msg}\nusage: {bin} [--out FILE] | {bin} --check BASELINE"
            ))
        }
    };
    match mode {
        Mode::Out(path) => {
            let (rows, failures) = measure();
            for row in &rows {
                println!("{}", row.render(None));
            }
            for f in &failures {
                eprintln!("{bin}: warning: {f}");
            }
            if let Err(e) = std::fs::write(&path, to_json(&rows)) {
                return exit_64(format!("cannot write `{path}`: {e}"));
            }
            println!("wrote {path}");
            ExitCode::SUCCESS
        }
        Mode::Check(path) => {
            let baseline = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read baseline `{path}`: {e}"))
                .and_then(|text| parse_baseline(&text));
            let baseline = match baseline {
                Ok(baseline) => baseline,
                Err(msg) => return exit_64(msg),
            };
            let (rows, failures) = measure();
            match check(&rows, failures, &baseline) {
                Err(msg) => exit_64(msg),
                Ok(failures) if failures.is_empty() => {
                    println!("all {} entries within the gate", rows.len());
                    ExitCode::SUCCESS
                }
                Ok(failures) => {
                    eprintln!("{bin} regression:");
                    for f in &failures {
                        eprintln!("  {f}");
                    }
                    ExitCode::from(1)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_rule_needs_both_ratio_and_floor_under_both_constants() {
        let cases = [
            (WALL_CLOCK, 1_000, 10_000, false), // tiny baseline: under the floor
            (WALL_CLOCK, 100_000, 119_000, false), // under 25%
            (WALL_CLOCK, 100_000, 110_000, false),
            (WALL_CLOCK, 100_000, 125_000, false), // exactly 25%: not past it
            (WALL_CLOCK, 100_000, 126_000, true),  // over both
            (RECORDER_OVERHEAD, 1_000, 2_900, false), // tiny run: under the floor
            (RECORDER_OVERHEAD, 100_000, 104_000, false), // under 5%
            (RECORDER_OVERHEAD, 100_000, 106_000, true), // over both
        ];
        for (opts, base, new, want) in cases {
            assert_eq!(opts.regressed(base, new), want, "{opts:?}: {base} -> {new}");
        }
    }

    fn sample() -> Row {
        Row::new()
            .info("bench", "peterson-ra")
            .info("engine", "cache-datalog")
            .exact("verdict", "UNSAFE")
            .wall("wall_us", 1234)
            .exact("join_attempts", 99)
            .info("winner", "simplified-reach")
    }

    #[test]
    fn rows_round_trip_through_the_baseline_parser_in_cell_order() {
        let text = to_json(&[sample()]);
        assert_eq!(
            text,
            "{\"entries\":[{\"bench\":\"peterson-ra\",\"engine\":\"cache-datalog\",\
             \"verdict\":\"UNSAFE\",\"wall_us\":1234,\"join_attempts\":99,\
             \"winner\":\"simplified-reach\"}]}\n"
        );
        let parsed = parse_baseline(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        for (name, value, _) in &sample().cells {
            assert_eq!(parsed[0].get(*name), Some(value), "{name}");
        }
        assert_eq!(check(&[sample()], vec![], &parsed), Ok(vec![]));
    }

    /// The baseline entry of `sample()` with one field replaced.
    fn base_with(name: &str, value: Val) -> Entry {
        let mut base = parse_baseline(&to_json(&[sample()])).unwrap().remove(0);
        base.insert(name.to_string(), value);
        base
    }

    #[test]
    fn exact_cells_fail_on_any_change_and_informational_ones_never() {
        let counter = compare(&sample(), &base_with("join_attempts", Val::Num(98))).unwrap();
        assert_eq!(
            counter,
            ["peterson-ra / cache-datalog: join_attempts 98 -> 99 (exact gate)"]
        );
        let verdict = compare(&sample(), &base_with("verdict", "SAFE".into())).unwrap();
        assert_eq!(
            verdict,
            ["peterson-ra / cache-datalog: verdict SAFE -> UNSAFE (exact gate)"]
        );
        let winner = compare(&sample(), &base_with("winner", "cache-datalog".into()));
        assert_eq!(winner, Ok(vec![]));
    }

    #[test]
    fn wall_cells_use_the_shared_rule() {
        let noise = compare(&sample(), &base_with("wall_us", Val::Num(1))).unwrap();
        assert!(noise.is_empty(), "sub-floor drift must pass: {noise:?}");
        let slow = Row::new().info("bench", "b").wall("wall_us", 130_000);
        let base = Entry::from([
            ("bench".into(), "b".into()),
            ("wall_us".into(), Val::Num(100_000)),
        ]);
        assert_eq!(compare(&slow, &base).unwrap().len(), 1);
        let missing = Entry::from([("bench".into(), "b".into())]);
        assert!(compare(&slow, &missing).is_err());
    }

    #[test]
    fn the_command_line_rejects_anything_but_one_out_or_one_check() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()), "BENCH_x.json");
        assert_eq!(parse(&[]), Ok(Mode::Out("BENCH_x.json".into())));
        assert_eq!(parse(&["--out", "a"]), Ok(Mode::Out("a".into())));
        assert_eq!(parse(&["--check", "b"]), Ok(Mode::Check("b".into())));
        for bad in [
            &["--chek", "x"][..],
            &["--check"],
            &["--check", "--out"],
            &["stray"],
            &["--out", "a", "stray"],
            &["--out", "a", "--out", "b"],
            &["--check", "a", "--check", "b"],
            &["--out", "a", "--check", "b"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be a usage error");
        }
    }

    #[test]
    fn committed_baselines_carry_every_gated_field() {
        // (file, wall-clock cells, exact cells) as each binary gates them.
        let files: [(&str, &str, &[&str], &[&str]); 6] = [
            (
                "BENCH_datalog.json",
                include_str!("../../../BENCH_datalog.json"),
                &["wall_us"],
                &[
                    "verdict",
                    "join_attempts",
                    "index_builds",
                    "index_hits",
                    "rules_planned",
                    "rules_encoded",
                ],
            ),
            (
                "BENCH_governance.json",
                include_str!("../../../BENCH_governance.json"),
                &["governed_us"],
                &["verdict"],
            ),
            (
                "BENCH_obs.json",
                include_str!("../../../BENCH_obs.json"),
                &["on_us"],
                &["verdict", "events"],
            ),
            (
                "BENCH_race.json",
                include_str!("../../../BENCH_race.json"),
                &["raced_us"],
                &["verdict"],
            ),
            (
                "BENCH_campaign.json",
                include_str!("../../../BENCH_campaign.json"),
                &["cold_us"],
                &[],
            ),
            (
                "BENCH_serve.json",
                include_str!("../../../BENCH_serve.json"),
                &["cold_us"],
                &[],
            ),
        ];
        for (file, text, walls, exacts) in files {
            let root = json::parse(text).unwrap_or_else(|e| panic!("{file}: {e:?}"));
            assert!(
                root.get("threads").is_none(),
                "{file}: stale threads header"
            );
            let entries = parse_baseline(text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(!entries.is_empty(), "{file} has no entries");
            for entry in &entries {
                assert!(
                    matches!(entry.get("bench"), Some(Val::Str(_))),
                    "{file}: no bench"
                );
                for field in walls {
                    let numeric = matches!(entry.get(*field), Some(Val::Num(_)));
                    assert!(numeric, "{file}: an entry lacks numeric `{field}`");
                }
                for field in exacts {
                    assert!(
                        entry.contains_key(*field),
                        "{file}: an entry lacks `{field}`"
                    );
                }
            }
        }
    }
}
