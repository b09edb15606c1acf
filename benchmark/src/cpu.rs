//! The clock every benchmark time comes from: this process's CPU time,
//! scaled to a reference host speed by a calibration search run next to
//! the work it scales.
//!
//! Wall time is no use on a virtual machine that shares its host. The
//! hypervisor takes the vCPUs away for stretches (the `steal` column of
//! `/proc/stat`), and a vCPU that went idle while a request waited for a
//! worker thread takes the host's scheduling delay to wake up. The kernel
//! leaves both out of a task's CPU time, and so does this clock.
//!
//! CPU time still moves with the host: on the 2-vCPU x86-64 virtual
//! machine this benchmark was written on, other guests on the same cores
//! and caches made the same requests take up to 40% more CPU time from
//! one minute to the next. A fixed calibration search, run between
//! requests, slows down with them. Each stretch of work is scaled by the median time of
//! the calibration searches run next to it, so that the search takes
//! exactly [`REFERENCE_MS`]: a time reads as it would on a host at the
//! reference speed, and the part of the host's drift the search shares
//! with the verifier cancels out.

use crate::stats::median;
use std::collections::{HashSet, VecDeque};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// Nanoseconds that every thread of this process, running or ended, has
/// spent on a CPU.
pub fn process_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id exists
    // on every Linux kernel.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// What one calibration search takes at the reference speed. About what
/// it took on the 2-vCPU x86-64 host the benchmark was written on, so a
/// scaled time there reads close to plain CPU time.
pub const REFERENCE_MS: f64 = 1.0;

/// Counters per state in the calibration search, each in `0..4`.
const CALIBRATION_COUNTERS: usize = 5;

/// The calibration search: a breadth-first search over every state of
/// [`CALIBRATION_COUNTERS`] 2-bit counters (1024 states), one counter
/// stepped per move. Like the verifier's state searches and Datalog joins
/// it clones small vectors, hashes them with SipHash into a growing set
/// and allocates as it goes. Returns its CPU time in nanoseconds.
pub fn calibrate() -> u64 {
    let start = process_ns();
    let mut seen: HashSet<Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashSet::default();
    let mut queue = VecDeque::new();
    let origin = vec![0u8; CALIBRATION_COUNTERS];
    seen.insert(origin.clone());
    queue.push_back(origin);
    while let Some(state) = queue.pop_front() {
        for i in 0..state.len() {
            let mut next = state.clone();
            next[i] = (next[i] + 1) % 4;
            if seen.insert(next.clone()) {
                queue.push_back(next);
            }
        }
    }
    assert_eq!(seen.len(), 1 << (2 * CALIBRATION_COUNTERS));
    drop(seen);
    process_ns() - start
}

/// Measured CPU time between two calibration searches, so that they cost
/// about 4% of the run.
const SLICE_NS: u64 = 25_000_000;
/// Calibration searches per round; a round's items are scaled by their
/// median. Twenty slices make a round of about half a second.
const ROUND: usize = 20;
/// A round that ends early (the run is over) tops its calibration up to
/// this many searches.
const MIN_ROUND: usize = 5;

/// Times items of work in CPU time and scales them to the reference
/// speed, round by round.
#[derive(Debug, Default)]
pub struct Meter {
    /// Raw CPU nanoseconds of the current round's items.
    pending: Vec<u64>,
    /// Calibration searches of the current round.
    calibrations: Vec<u64>,
    since_calibration: u64,
    /// Every finished item, in milliseconds at the reference speed.
    scaled_ms: Vec<f64>,
}

impl Meter {
    pub fn new() -> Meter {
        Meter::default()
    }

    /// Runs `f` as one item of work.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = process_ns();
        let out = f();
        self.record(process_ns() - start);
        out
    }

    /// Adds an item that took `ns` of CPU time, then calibrates once for
    /// every slice of work since the last calibration.
    pub fn record(&mut self, ns: u64) {
        self.pending.push(ns);
        self.since_calibration += ns;
        while self.since_calibration >= SLICE_NS {
            self.since_calibration -= SLICE_NS;
            self.calibrations.push(calibrate());
            if self.calibrations.len() >= ROUND {
                self.flush();
            }
        }
    }

    fn flush(&mut self) {
        if self.pending.is_empty() {
            self.calibrations.clear();
            return;
        }
        while self.calibrations.len() < MIN_ROUND {
            self.calibrations.push(calibrate());
        }
        let samples: Vec<f64> = self.calibrations.iter().map(|&n| n as f64).collect();
        let scale = REFERENCE_MS / median(&samples);
        self.scaled_ms
            .extend(self.pending.drain(..).map(|ns| ns as f64 * scale));
        self.calibrations.clear();
    }

    /// Every item, in order, in milliseconds at the reference speed.
    pub fn finish(mut self) -> Vec<f64> {
        self.flush();
        self.scaled_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_advances_with_work() {
        let t0 = process_ns();
        let wall = std::time::Instant::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x ^ i);
        }
        let (cpu, wall) = (process_ns() - t0, wall.elapsed().as_nanos() as u64);
        assert!(cpu > 0, "20M iterations took no CPU time");
        // Other test threads may add their own CPU time, but not more
        // than the machine has cores.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        assert!(
            cpu <= wall * cores + 10_000_000,
            "{cpu} ns of CPU in {wall} ns"
        );
    }

    #[test]
    fn a_meter_scales_every_item_by_its_round() {
        let mut m = Meter::new();
        // Items that together span more than one round.
        let items = 3 * ROUND + 7;
        for _ in 0..items {
            m.record(SLICE_NS / 2);
            m.record(SLICE_NS / 2);
        }
        m.record(1);
        let scaled = m.finish();
        assert_eq!(scaled.len(), 2 * items + 1);
        // Items of equal CPU time within a round scale equally, and the
        // scale is a plausible host speed.
        assert_eq!(scaled[0], scaled[1]);
        let ms = scaled[0];
        let raw_ms = (SLICE_NS / 2) as f64 / 1e6;
        assert!(ms > raw_ms / 20.0 && ms < raw_ms * 20.0, "{ms} ms");
        assert!(scaled.iter().all(|v| v.is_finite() && *v > 0.0));
        assert!(Meter::new().finish().is_empty());
    }
}
