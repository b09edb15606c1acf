//! Benchmark inputs and the answers they are checked against.
//!
//! Generated programs come from one fixed *universe*: generator seeds
//! `0..UNIVERSE` of `GenConfig::wide()`, printed with `system_to_string`.
//! Every workload draws its programs from the same fixed *corpus*, the
//! light universe members in member order, and a benchmark seed only
//! shuffles the order in which they are sent. So every seed sends nearly
//! the same multiset of programs, and every seed is checked against the
//! same committed answers file (`answers/wide.txt`): a content hash over
//! all universe texts, one verdict letter per member, and one fleet mark
//! per member. When the generator or the printer drifts, the hash no
//! longer matches and the benchmark refuses to run until the answers are
//! re-recorded.
//!
//! A member that took longer than [`HEAVY`] under either engine when the
//! answers were recorded is *heavy* (a lowercase letter) and no workload
//! sends it: the slowest members take seconds, and one of them would
//! decide a whole time-bounded run by itself.
//!
//! The fleet mark says whether a member's makeP fleet had
//! [`FLEET_GUESSES`] guesses when the answers were recorded. It is
//! recorded rather than recomputed so that a change to the guess
//! enumeration cannot change which programs `fleet-saturate` sends.

use parra_core::makep::{MakeP, MakePLimits};
use parra_core::verify::{EngineId, Verdict, Verifier, VerifierOptions};
use parra_fuzz::gen::{GenConfig, SystemGen};
use parra_litmus::Expected;
use parra_program::parser::parse_system;
use parra_program::pretty::system_to_string;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Generator seeds `0..UNIVERSE` make up the generated-program universe.
pub const UNIVERSE: usize = 12_000;

/// Members slower than this under either engine at one thread are heavy.
pub const HEAVY: Duration = Duration::from_millis(50);

/// A member belongs to the `fleet-saturate` band when its makeP fleet has
/// this many guesses: enough that a SAFE run evaluates a real fleet, few
/// enough that a handful of huge fleets do not decide the run's timing.
pub const FLEET_GUESSES: std::ops::RangeInclusive<usize> = 8..=64;

/// The committed answers, compiled in so a run reads no file.
pub const ANSWERS: &str = include_str!("../answers/wide.txt");

/// Where `--record-answers` writes, relative to this package.
pub const ANSWERS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/answers/wide.txt");

/// One request payload with its known verdict.
#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    pub text: String,
    pub expect: Verdict,
}

/// The text of universe member `i`.
pub fn universe_text(i: usize) -> String {
    system_to_string(&SystemGen::new(GenConfig::wide()).case(i as u64).sys)
}

/// FNV-1a over length-framed texts, and how many there were: a change to
/// any text, or to the split between texts, changes the hash.
pub fn content_hash<S: AsRef<str>>(texts: impl IntoIterator<Item = S>) -> (u64, usize) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut n = 0;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in texts {
        let t = t.as_ref();
        eat(&(t.len() as u64).to_le_bytes());
        eat(t.as_bytes());
        n += 1;
    }
    (h, n)
}

/// A parsed answers file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answers {
    pub hash: u64,
    /// `S` or `U` per universe member, in member order; lowercase for a
    /// heavy member.
    pub verdicts: Vec<u8>,
    /// `1` per member in the [`FLEET_GUESSES`] band, `0` otherwise.
    pub fleet: Vec<u8>,
}

impl Answers {
    pub fn parse(text: &str) -> Result<Answers, String> {
        let mut hash = None;
        let mut verdicts = None;
        let mut fleet = None;
        let letters = |v: &str, allowed: &[u8], what: &str| -> Result<Vec<u8>, String> {
            let v = v.trim().as_bytes().to_vec();
            match v.iter().find(|c| !allowed.contains(c)) {
                Some(bad) => Err(format!("answers: bad {what} letter `{}`", *bad as char)),
                None => Ok(v),
            }
        };
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match line.split_once(' ') {
                Some(("hash", h)) => {
                    hash = Some(
                        u64::from_str_radix(h.trim(), 16)
                            .map_err(|e| format!("answers: bad hash `{h}`: {e}"))?,
                    )
                }
                Some(("verdicts", v)) => verdicts = Some(letters(v, b"SUsu", "verdict")?),
                Some(("fleet", v)) => fleet = Some(letters(v, b"01", "fleet")?),
                _ => return Err(format!("answers: unexpected line `{line}`")),
            }
        }
        let hash = hash.ok_or("answers: missing `hash` line")?;
        let verdicts = verdicts.ok_or("answers: missing `verdicts` line")?;
        let fleet = fleet.ok_or("answers: missing `fleet` line")?;
        if fleet.len() != verdicts.len() {
            return Err(format!(
                "answers: {} verdicts but {} fleet marks",
                verdicts.len(),
                fleet.len()
            ));
        }
        Ok(Answers {
            hash,
            verdicts,
            fleet,
        })
    }

    pub fn render(&self) -> String {
        format!(
            "# Verdicts of GenConfig::wide() generator seeds 0..{}, recorded with\n\
             # `benchmark --record-answers` (simplified-reach and cache-datalog agree on each;\n\
             # lowercase: slower than {} ms under one of them, sent by no workload).\n\
             # fleet: 1 where the makeP fleet has {} to {} guesses.\n\
             hash {:016x}\nverdicts {}\nfleet {}\n",
            self.verdicts.len(),
            HEAVY.as_millis(),
            FLEET_GUESSES.start(),
            FLEET_GUESSES.end(),
            self.hash,
            String::from_utf8_lossy(&self.verdicts),
            String::from_utf8_lossy(&self.fleet)
        )
    }

    /// Checks the answers against the universe texts as generated now.
    pub fn check<S: AsRef<str>>(&self, texts: impl IntoIterator<Item = S>) -> Result<(), String> {
        let (now, n) = content_hash(texts);
        if self.verdicts.len() != n || self.hash != now {
            return Err(format!(
                "the generated inputs no longer match answers/wide.txt (hash {now:016x} over \
                 {n} programs, recorded {:016x} over {}): the generator or the printer changed; \
                 re-record with `benchmark --record-answers`",
                self.hash,
                self.verdicts.len()
            ));
        }
        Ok(())
    }

    pub fn verdict(&self, i: usize) -> Verdict {
        if self.verdicts[i].eq_ignore_ascii_case(&b'U') {
            Verdict::Unsafe
        } else {
            Verdict::Safe
        }
    }
}

/// The committed answers, validated against the universe as generated
/// now, one text at a time so the check leaves no mark on the heap.
pub fn load_answers() -> Result<Answers, String> {
    let answers = Answers::parse(ANSWERS)?;
    answers.check((0..UNIVERSE).map(universe_text))?;
    Ok(answers)
}

/// The corpus: the members workloads may send, in member order. A
/// workload's pool is a prefix of it (or of its fleet band), the same for
/// every seed.
pub fn corpus(answers: &Answers) -> Vec<usize> {
    (0..UNIVERSE)
        .filter(|&i| answers.verdicts[i].is_ascii_uppercase())
        .collect()
}

/// How many makeP guesses the program `text` has, or `None` when it does
/// not get that far.
fn guess_count(text: &str) -> Option<usize> {
    let sys = parse_system(text).ok()?;
    let v = Verifier::new(&sys, one_thread()).ok()?;
    let mk = MakeP::new(v.goal_system(), v.budget().clone(), MakePLimits::default()).ok()?;
    Some(mk.guesses().ok()?.len())
}

fn one_thread() -> VerifierOptions {
    VerifierOptions {
        threads: 1,
        ..Default::default()
    }
}

/// Universe member `i` as an input.
pub fn generated(answers: &Answers, i: usize) -> Input {
    Input {
        name: format!("wide-{i}"),
        text: universe_text(i),
        expect: answers.verdict(i),
    }
}

/// The litmus suite as program text, with the paper's expected verdicts.
pub fn litmus() -> Vec<Input> {
    parra_litmus::all()
        .into_iter()
        .map(|b| Input {
            name: b.name.to_string(),
            text: system_to_string(&b.system),
            expect: match b.expected {
                Expected::Safe => Verdict::Safe,
                Expected::Unsafe => Verdict::Unsafe,
            },
        })
        .collect()
}

/// Decides every universe member with `simplified-reach` and
/// `cache-datalog` on `threads` workers and returns the answers, or the
/// members where an engine did not decide or the engines disagree.
/// Members slower than [`HEAVY`] under either engine are marked heavy.
pub fn record(threads: usize) -> Result<Answers, String> {
    let texts: Vec<String> = (0..UNIVERSE).map(universe_text).collect();
    // (verdict letter, fleet mark) per member.
    let marks = Mutex::new(vec![(0u8, 0u8); UNIVERSE]);
    let problems = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= UNIVERSE {
                    break;
                }
                if i.is_multiple_of(1000) {
                    eprintln!("record-answers: {i}/{UNIVERSE}");
                }
                let mut slowest = Duration::ZERO;
                let mut decide = |engine| -> Result<Verdict, String> {
                    let start = Instant::now();
                    let sys = parse_system(&texts[i]).map_err(|e| e.to_string())?;
                    let v = Verifier::new(&sys, one_thread()).map_err(|e| e.to_string())?;
                    let verdict = v.run(engine).verdict;
                    slowest = slowest.max(start.elapsed());
                    Ok(verdict)
                };
                let reach = decide(EngineId::SimplifiedReach);
                let datalog = decide(EngineId::CacheDatalog);
                match (reach, datalog) {
                    (Ok(a), Ok(b)) if a == b && a.is_decided() => {
                        let letter = if a == Verdict::Unsafe { b'U' } else { b'S' };
                        let letter = if slowest > HEAVY {
                            letter.to_ascii_lowercase()
                        } else {
                            letter
                        };
                        let band =
                            guess_count(&texts[i]).is_some_and(|g| FLEET_GUESSES.contains(&g));
                        marks.lock().expect("answer table poisoned")[i] =
                            (letter, if band { b'1' } else { b'0' });
                    }
                    (a, b) => problems
                        .lock()
                        .expect("problem list poisoned")
                        .push(format!(
                            "wide-{i}: simplified-reach {a:?}, cache-datalog {b:?}"
                        )),
                }
            });
        }
    });
    let problems = problems.into_inner().expect("problem list poisoned");
    if !problems.is_empty() {
        return Err(format!(
            "{} universe members are not decided identically by both engines:\n  {}",
            problems.len(),
            problems.join("\n  ")
        ));
    }
    let (verdicts, fleet) = marks
        .into_inner()
        .expect("answer table poisoned")
        .into_iter()
        .unzip();
    Ok(Answers {
        hash: content_hash(&texts).0,
        verdicts,
        fleet,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_round_trip_through_their_text_form() {
        let a = Answers {
            hash: 0xdead_beef_0123_4567,
            verdicts: b"SUus".to_vec(),
            fleet: b"0110".to_vec(),
        };
        assert_eq!(Answers::parse(&a.render()), Ok(a));
        assert!(Answers::parse("hash 12\nverdicts SXU\nfleet 000\n").is_err());
        assert!(Answers::parse("hash 12\nverdicts SUU\nfleet 0x0\n").is_err());
        assert!(Answers::parse("hash 12\nverdicts SUU\nfleet 00\n").is_err());
        assert!(Answers::parse("hash 12\nverdicts SU\n").is_err());
        assert!(Answers::parse("verdicts SU\nfleet 00\n").is_err());
    }

    #[test]
    fn hash_drift_is_rejected() {
        let texts = vec!["var x".to_string(), "var y".to_string()];
        let a = Answers {
            hash: content_hash(&texts).0,
            verdicts: b"SU".to_vec(),
            fleet: b"00".to_vec(),
        };
        assert!(a.check(&texts).is_ok());
        let drifted = vec!["var x".to_string(), "var z".to_string()];
        let err = a.check(&drifted).unwrap_err();
        assert!(err.contains("re-record"), "{err}");
        assert!(
            a.check(&texts[..1]).is_err(),
            "a missing member is drift too"
        );
        // Moving a byte across the boundary between two texts is drift too.
        assert_ne!(
            content_hash(["ab", "c"]),
            content_hash(["a", "bc"]),
            "length framing"
        );
    }

    #[test]
    fn the_committed_answers_cover_the_universe() {
        let a = Answers::parse(ANSWERS).expect("answers/wide.txt parses");
        assert_eq!(a.verdicts.len(), UNIVERSE);
        a.check((0..UNIVERSE).map(universe_text))
            .expect("answers match the generator");
    }

    #[test]
    fn the_corpus_leaves_heavy_members_out() {
        let a = Answers::parse(ANSWERS).unwrap();
        let corpus = corpus(&a);
        let heavy = a.verdicts.iter().filter(|c| c.is_ascii_lowercase()).count();
        assert!(heavy > 0 && heavy < UNIVERSE / 5, "{heavy} heavy members");
        assert_eq!(corpus.len(), UNIVERSE - heavy);
        assert!(corpus.iter().all(|&i| a.verdicts[i].is_ascii_uppercase()));
        assert!(corpus.windows(2).all(|w| w[0] < w[1]));
        let band = corpus.iter().filter(|&&i| a.fleet[i] == b'1').count();
        assert!(band > 1000, "{band} light members in the fleet band");
    }
}
