//! Phoenix-2.0 data-parallel kernels (Kozyrakis \[29\]), reduced to their
//! shared-memory synchronization skeletons.
//!
//! All eight benchmarks follow the map-reduce shape the paper classifies
//! as `env(nocas, acyc)`: a master (`dis`) publishes input and collects
//! results; workers (`env`) wait for the publication, compute, and publish
//! results. The data-parallel computation itself is thread-local and
//! irrelevant to safety — what each skeleton checks is the *publication
//! discipline*: a consumer that synchronized on a ready-flag must observe
//! the data written before the flag (the RA message-passing guarantee).
//! Every kernel is therefore **safe**; what distinguishes them is the
//! structure of the handshake (number of phases, split inputs, reduction
//! direction), reflecting the source programs' fixed-size loops (unrolled,
//! per the paper).

use crate::{Benchmark, Expected};
use parra_program::builder::SystemBuilder;

/// `histogram`: the master publishes the image, workers bin pixels into
/// per-bucket counters and raise `done`; the master reading `done` must
/// see the bucket write.
pub fn histogram() -> Benchmark {
    let mut b = SystemBuilder::new(2);
    let input = b.var("input");
    let bucket_r = b.var("bucket_r");
    let bucket_g = b.var("bucket_g");
    let done = b.var("done");
    let mut env = b.program("worker");
    let r = env.reg("r");
    env.load(r, input).assume_eq(r, 1);
    env.choice(
        |p| {
            p.store(bucket_r, 1);
        },
        |p| {
            p.store(bucket_g, 1);
        },
    );
    env.store(done, 1);
    let env = env.finish();
    let mut d = b.program("master");
    let s = d.reg("s");
    let t = d.reg("t");
    d.store(input, 1);
    d.load(s, done).assume_eq(s, 1);
    // Seeing done = 1 implies some bucket write is visible.
    d.load(s, bucket_r).load(t, bucket_g);
    d.assume_eq(s, 0).assume_eq(t, 0).assert_false();
    let d = d.finish();
    Benchmark {
        name: "histogram",
        source: "Phoenix-2.0 [29]",
        class_note: "env(nocas, acyc) ‖ dis(acyc); pixel loop is thread-local",
        expected: Expected::Safe,
        system: b.build(env, vec![d]),
    }
}

/// `kmeans`: two assignment/update rounds (the source's fixed iteration
/// count, unrolled). Each round is a full handshake.
pub fn kmeans() -> Benchmark {
    let mut b = SystemBuilder::new(2);
    let means0 = b.var("means0");
    let assign0 = b.var("assign0");
    let means1 = b.var("means1");
    let assign1 = b.var("assign1");
    let mut env = b.program("worker");
    let r = env.reg("r");
    env.load(r, means0).assume_eq(r, 1).store(assign0, 1);
    env.load(r, means1).assume_eq(r, 1).store(assign1, 1);
    let env = env.finish();
    let mut d = b.program("master");
    let s = d.reg("s");
    d.store(means0, 1);
    d.load(s, assign0).assume_eq(s, 1);
    d.store(means1, 1);
    d.load(s, assign1).assume_eq(s, 1);
    // After round 2's assignment, round 1's means must be visible.
    d.load(s, means0).assume_eq(s, 0).assert_false();
    let d = d.finish();
    Benchmark {
        name: "kmeans",
        source: "Phoenix-2.0 [29]",
        class_note: "env(nocas, acyc) ‖ dis(acyc); fixed iteration count unrolled",
        expected: Expected::Safe,
        system: b.build(env, vec![d]),
    }
}

/// `linear-regression`: workers produce partial sums (`sx`, `sy`) guarded
/// by one ready flag; the master must see both after the flag.
pub fn linear_regression() -> Benchmark {
    let mut b = SystemBuilder::new(2);
    let points = b.var("points");
    let sx = b.var("sx");
    let sy = b.var("sy");
    let ready = b.var("ready");
    let mut env = b.program("worker");
    let r = env.reg("r");
    env.load(r, points).assume_eq(r, 1);
    env.store(sx, 1).store(sy, 1).store(ready, 1);
    let env = env.finish();
    let mut d = b.program("master");
    let s = d.reg("s");
    let t = d.reg("t");
    d.store(points, 1);
    d.load(s, ready).assume_eq(s, 1);
    d.load(s, sx).load(t, sy);
    // Both partial sums were written before ready.
    d.choice(
        |p| {
            p.assume_eq(s, 0);
            p.assert_false();
        },
        |p| {
            p.assume_eq(t, 0);
            p.assert_false();
        },
    );
    let d = d.finish();
    Benchmark {
        name: "linear-regression",
        source: "Phoenix-2.0 [29]",
        class_note: "env(nocas, acyc) ‖ dis(acyc)",
        expected: Expected::Safe,
        system: b.build(env, vec![d]),
    }
}

/// `matrix-multiply`: two input blocks published separately; a worker
/// waits for both and publishes its output block. The master must then
/// see the output after the worker's flag.
pub fn matrix_multiply() -> Benchmark {
    let mut b = SystemBuilder::new(2);
    let block_a = b.var("block_a");
    let block_b = b.var("block_b");
    let out = b.var("out");
    let done = b.var("done");
    let mut env = b.program("worker");
    let r = env.reg("r");
    let s = env.reg("s");
    env.load(r, block_a)
        .assume_eq(r, 1)
        .load(s, block_b)
        .assume_eq(s, 1)
        .store(out, 1)
        .store(done, 1);
    let env = env.finish();
    let mut d = b.program("master");
    let t = d.reg("t");
    d.store(block_a, 1).store(block_b, 1);
    d.load(t, done).assume_eq(t, 1);
    d.load(t, out).assume_eq(t, 0).assert_false();
    let d = d.finish();
    Benchmark {
        name: "matrix-multiply",
        source: "Phoenix-2.0 [29]",
        class_note: "env(nocas, acyc) ‖ dis(acyc); block loops are thread-local",
        expected: Expected::Safe,
        system: b.build(env, vec![d]),
    }
}

/// `pca`: two dependent phases (mean, then covariance): phase 2 input is
/// gated on phase 1 output *through the master*.
pub fn pca() -> Benchmark {
    let mut b = SystemBuilder::new(2);
    let data = b.var("data");
    let mean = b.var("mean");
    let go2 = b.var("go2");
    let cov = b.var("cov");
    let mut env = b.program("worker");
    let r = env.reg("r");
    env.choice(
        |p| {
            // Phase 1 worker: data → mean.
            p.load(r, data);
            p.assume_eq(r, 1);
            p.store(mean, 1);
        },
        |p| {
            // Phase 2 worker: needs the go-ahead, then covariance; the
            // mean must be visible through go2.
            p.load(r, go2);
            p.assume_eq(r, 1);
            p.load(r, mean);
            p.assume_eq(r, 0);
            p.assert_false();
        },
    );
    let env = env.finish();
    let mut d = b.program("master");
    let s = d.reg("s");
    d.store(data, 1);
    d.load(s, mean).assume_eq(s, 1);
    d.store(go2, 1);
    d.load(s, cov);
    let d = d.finish();
    Benchmark {
        name: "pca",
        source: "Phoenix-2.0 [29]",
        class_note: "env(nocas, acyc) ‖ dis(acyc); two phases",
        expected: Expected::Safe,
        system: b.build(env, vec![d]),
    }
}

/// `string-match`: workers scan chunks and set a found-flag; the master
/// reads the flag and then the match offset, which must be visible.
pub fn string_match() -> Benchmark {
    let mut b = SystemBuilder::new(2);
    let text = b.var("text");
    let offset = b.var("offset");
    let found = b.var("found");
    let mut env = b.program("worker");
    let r = env.reg("r");
    env.load(r, text).assume_eq(r, 1);
    env.choice(
        |p| {
            // Match: record the offset, then raise the flag.
            p.store(offset, 1);
            p.store(found, 1);
        },
        |p| {
            // No match in this chunk.
            p.skip();
        },
    );
    let env = env.finish();
    let mut d = b.program("master");
    let s = d.reg("s");
    d.store(text, 1);
    d.load(s, found).assume_eq(s, 1);
    d.load(s, offset).assume_eq(s, 0).assert_false();
    let d = d.finish();
    Benchmark {
        name: "string-match",
        source: "Phoenix-2.0 [29]",
        class_note: "env(nocas, acyc) ‖ dis(acyc)",
        expected: Expected::Safe,
        system: b.build(env, vec![d]),
    }
}

/// `word-count`: two counters, each guarded by its own flag; the master
/// joins on both flags and must see both counters.
pub fn word_count() -> Benchmark {
    let mut b = SystemBuilder::new(2);
    let text = b.var("text");
    let count_a = b.var("count_a");
    let flag_a = b.var("flag_a");
    let count_b = b.var("count_b");
    let flag_b = b.var("flag_b");
    let mut env = b.program("worker");
    let r = env.reg("r");
    env.load(r, text).assume_eq(r, 1);
    env.choice(
        |p| {
            p.store(count_a, 1);
            p.store(flag_a, 1);
        },
        |p| {
            p.store(count_b, 1);
            p.store(flag_b, 1);
        },
    );
    let env = env.finish();
    let mut d = b.program("master");
    let s = d.reg("s");
    let t = d.reg("t");
    d.store(text, 1);
    d.load(s, flag_a).assume_eq(s, 1);
    d.load(t, flag_b).assume_eq(t, 1);
    d.load(s, count_a).load(t, count_b);
    d.choice(
        |p| {
            p.assume_eq(s, 0);
            p.assert_false();
        },
        |p| {
            p.assume_eq(t, 0);
            p.assert_false();
        },
    );
    let d = d.finish();
    Benchmark {
        name: "word-count",
        source: "Phoenix-2.0 [29]",
        class_note: "env(nocas, acyc) ‖ dis(acyc)",
        expected: Expected::Safe,
        system: b.build(env, vec![d]),
    }
}

/// `sort-pthread`: a two-level merge: leaf sorters publish sorted runs,
/// a merger (also `env`) waits for both runs and publishes the merge; the
/// master must see the runs through the merge flag (transitive message
/// passing).
pub fn sort_pthread() -> Benchmark {
    let mut b = SystemBuilder::new(2);
    let input = b.var("input");
    let run_a = b.var("run_a");
    let run_b = b.var("run_b");
    let merged = b.var("merged");
    let mut env = b.program("worker");
    let r = env.reg("r");
    let s = env.reg("s");
    env.choice(
        |p| {
            // Leaf sorter A / B.
            p.load(r, input);
            p.assume_eq(r, 1);
            p.choice(
                |p| {
                    p.store(run_a, 1);
                },
                |p| {
                    p.store(run_b, 1);
                },
            );
        },
        |p| {
            // Merger: joins both runs, publishes the merge.
            p.load(r, run_a);
            p.assume_eq(r, 1);
            p.load(s, run_b);
            p.assume_eq(s, 1);
            p.store(merged, 1);
        },
    );
    let env = env.finish();
    let mut d = b.program("master");
    let t = d.reg("t");
    d.store(input, 1);
    d.load(t, merged).assume_eq(t, 1);
    // Transitivity: the merge flag carries both runs.
    d.load(t, run_a).assume_eq(t, 0).assert_false();
    let d = d.finish();
    Benchmark {
        name: "sort-pthread",
        source: "Phoenix-2.0 [29]",
        class_note: "env(nocas, acyc) ‖ dis(acyc); two-level merge",
        expected: Expected::Safe,
        system: b.build(env, vec![d]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parra_program::classify::SystemClass;

    fn kernels() -> Vec<Benchmark> {
        vec![
            histogram(),
            kmeans(),
            linear_regression(),
            matrix_multiply(),
            pca(),
            string_match(),
            word_count(),
            sort_pthread(),
        ]
    }

    #[test]
    fn all_kernels_classify_as_nocas_acyc() {
        for k in kernels() {
            let class = SystemClass::of(&k.system);
            assert!(class.env.nocas && class.env.acyc, "{}", k.name);
            assert!(class.is_decidable_fragment(), "{}", k.name);
        }
    }

    #[test]
    fn all_kernels_expected_safe() {
        for k in kernels() {
            assert_eq!(k.expected, Expected::Safe, "{}", k.name);
        }
    }

    #[test]
    fn kernels_are_structurally_distinct() {
        let mut shapes: Vec<String> = kernels()
            .iter()
            .map(|k| parra_program::pretty::system_to_string(&k.system))
            .collect();
        shapes.sort();
        shapes.dedup();
        assert_eq!(shapes.len(), kernels().len());
    }
}
