//! Corpus replay and round-trip regression tests (tier 1).
//!
//! * every `.ra` file in `examples/systems/` and `corpus/` survives
//!   `parse → pretty → parse` with an identical [`ParamSystem`] (catches
//!   silent parser/printer drift);
//! * every corpus entry passes the fuzz oracles its file name designates
//!   (regressions caught by fuzzing stay caught);
//! * `Verifier` verdicts and report statistics are insensitive to the
//!   order in which a `SystemBuilder` interned variables and registers.

use parra_core::verify::{EngineId, Verifier, VerifierOptions};
use parra_fuzz::oracle::all_oracles;
use parra_fuzz::{corpus, runner};
use parra_program::builder::SystemBuilder;
use parra_program::expr::Expr;
use parra_program::parser::parse_system;
use parra_program::pretty;
use std::path::Path;

fn ra_files(dir: &str) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {dir}: {e}"))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ra"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "{dir} holds no .ra files");
    files
}

#[test]
fn example_systems_round_trip_through_the_pretty_printer() {
    for path in ra_files("examples/systems") {
        let text = std::fs::read_to_string(&path).unwrap();
        let sys = parse_system(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let printed = pretty::system_to_string(&sys);
        let reparsed = parse_system(&printed).unwrap_or_else(|e| {
            panic!(
                "{}: pretty output does not parse: {e}\n{printed}",
                path.display()
            )
        });
        assert_eq!(
            reparsed,
            sys,
            "{}: parse(pretty(sys)) != sys",
            path.display()
        );
    }
}

#[test]
fn corpus_entries_round_trip_through_the_pretty_printer() {
    for entry in corpus::load_dir(Path::new("corpus")).unwrap() {
        let printed = pretty::system_to_string(&entry.sys);
        let reparsed = parse_system(&printed).unwrap_or_else(|e| {
            panic!(
                "{}: pretty output does not parse: {e}\n{printed}",
                entry.path.display()
            )
        });
        assert_eq!(
            reparsed,
            entry.sys,
            "{}: parse(pretty(sys)) != sys",
            entry.path.display()
        );
    }
}

#[test]
fn corpus_replays_clean_against_its_oracles() {
    let failures = runner::replay_corpus(Path::new("corpus")).unwrap();
    assert!(
        failures.is_empty(),
        "corpus regressions resurfaced:\n{}",
        failures
            .iter()
            .map(|(path, oracle, msg)| format!("  {} [{oracle}]: {msg}", path.display()))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The corpus naming convention ties each seed entry — a file carrying a
/// `// parra-fuzz: oracle=… seed=…` header — to a live oracle: the
/// header names a known oracle and the file name starts with it.
/// Hand-written entries carry no header; an unprefixed one replays
/// against every oracle.
#[test]
fn corpus_seed_entries_name_known_oracles() {
    let oracle_names: Vec<&str> = all_oracles().iter().map(|o| o.name()).collect();
    let mut seeds = 0;
    for path in ra_files("corpus") {
        let text = std::fs::read_to_string(&path).unwrap();
        let Some(header) = text.lines().find_map(|l| l.strip_prefix("// parra-fuzz: ")) else {
            continue;
        };
        seeds += 1;
        let oracle = header
            .split_whitespace()
            .find_map(|f| f.strip_prefix("oracle="))
            .unwrap_or_else(|| panic!("{}: header names no oracle", path.display()));
        assert!(
            oracle_names.contains(&oracle),
            "{}: header oracle `{oracle}` is unknown (known: {})",
            path.display(),
            oracle_names.join(", ")
        );
        let stem = path.file_stem().unwrap().to_str().unwrap();
        assert!(
            stem.starts_with(&format!("{oracle}-")),
            "{}: header oracle `{oracle}` does not match the file name",
            path.display()
        );
    }
    assert!(
        seeds >= oracle_names.len(),
        "corpus holds too few seed entries"
    );
}

/// Builds the store-buffering shape with its vars/regs/threads interned
/// in the given order; `flip` swaps every interning decision.
fn store_buffering(flip: bool) -> parra_program::system::ParamSystem {
    let mut b = SystemBuilder::new(2);
    let (x, y) = if flip {
        let y = b.var("y");
        let x = b.var("x");
        (x, y)
    } else {
        let x = b.var("x");
        let y = b.var("y");
        (x, y)
    };
    let mut env = b.program("env");
    let (r0, r1) = if flip {
        let r1 = env.reg("r1");
        let r0 = env.reg("r0");
        (r0, r1)
    } else {
        let r0 = env.reg("r0");
        let r1 = env.reg("r1");
        (r0, r1)
    };
    env.store(x, Expr::val(1)).load(r0, y).load(r1, x);
    let env = env.finish();
    let mut d = b.program("d");
    let s = d.reg("s");
    d.store(y, Expr::val(1))
        .load(s, x)
        .assume_eq(s, 0)
        .assert_false();
    let d = d.finish();
    b.build(env, vec![d])
}

/// Satellite of the fuzzing issue: two `SystemBuilder` constructions of
/// the same program — differing only in the order variables and
/// registers were interned — must yield identical verdicts and identical
/// search statistics from every engine. Identifier order must not leak
/// into the search.
#[test]
fn verdicts_and_stats_are_insensitive_to_interning_order() {
    let a = store_buffering(false);
    let b = store_buffering(true);
    // The systems are intentionally *not* equal as values (their symbol
    // tables differ); the claim is about the verification results.
    assert_ne!(a, b, "flip did not change interning order");
    let va = Verifier::new(&a, VerifierOptions::default()).unwrap();
    let vb = Verifier::new(&b, VerifierOptions::default()).unwrap();
    for engine in [
        EngineId::SimplifiedReach,
        EngineId::CacheDatalog,
        EngineId::BoundedConcrete,
    ] {
        let ra = va.run(engine);
        let rb = vb.run(engine);
        assert_eq!(ra.verdict, rb.verdict, "{engine}: verdict");
        assert_eq!(ra.stats.states, rb.stats.states, "{engine}: states");
        assert_eq!(ra.stats.worlds, rb.stats.worlds, "{engine}: worlds");
        assert_eq!(
            ra.stats.peak_env_msgs, rb.stats.peak_env_msgs,
            "{engine}: peak_env_msgs"
        );
        assert_eq!(ra.stats.guesses, rb.stats.guesses, "{engine}: guesses");
        assert_eq!(
            ra.stats.datalog_rules, rb.stats.datalog_rules,
            "{engine}: datalog_rules"
        );
        assert_eq!(
            ra.env_thread_bound, rb.env_thread_bound,
            "{engine}: env_thread_bound"
        );
    }
}

/// The seed entries written by `examples/seed_corpus.rs` regenerate
/// byte-identically from their recorded oracle + seed — the provenance
/// headers stay honest.
#[test]
fn seed_corpus_entries_match_their_provenance() {
    use parra_fuzz::gen::SystemGen;
    for o in all_oracles() {
        let path = format!("corpus/{}-{:016x}.ra", o.name(), 7);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{path}: {e} (run `cargo run -p parra-fuzz --example seed_corpus -- corpus/`)")
        });
        let recorded = parse_system(&text).unwrap();
        let regenerated = SystemGen::new(o.gen_config()).case(7).sys;
        assert_eq!(
            recorded, regenerated,
            "{path}: stale seed entry — regenerate with the seed_corpus example"
        );
        // And the oracle itself accepts its own family representative.
        assert!(
            !o.check(&recorded).is_fail(),
            "{path}: oracle {} fails on its seed entry",
            o.name()
        );
    }
}

/// A corpus file whose name matches no oracle is replayed against every
/// oracle (the conservative fallback) rather than silently skipped.
#[test]
fn unprefixed_entries_replay_against_all_oracles() {
    let dir = std::env::temp_dir().join(format!("parra-fuzz-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("unprefixed.ra"),
        "system { dom 2; vars x; env e { regs r; r <- x; } dis d { x := 1; } }",
    )
    .unwrap();
    let failures = runner::replay_corpus(&dir).unwrap();
    assert!(failures.is_empty(), "{failures:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
