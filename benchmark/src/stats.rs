//! Seeded randomness and the order statistics every metric is built from.

/// SplitMix64: a tiny, fixed generator, so a seed maps to the same inputs
/// whatever happens to the workspace's own RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A nearest-rank percentile of `sorted` (ascending) with the number of
/// samples strictly above its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub beyond: usize,
}

impl Percentile {
    /// A tail percentile is only trusted with at least this many samples
    /// beyond it.
    pub const MIN_BEYOND: usize = 10;

    pub fn is_trusted(&self) -> bool {
        self.beyond >= Self::MIN_BEYOND
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of an ascending slice; `None`
/// when the slice is empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(Percentile {
        value: sorted[rank - 1],
        beyond: sorted.len() - rank,
    })
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so spreads printed here match the acceptance rule.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_count_the_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert!(p99.is_trusted());
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(!percentile(&short, 0.99).unwrap().is_trusted());
        let tiny = [3.0, 1.0, 2.0];
        assert!(!percentile(&tiny, 0.5).unwrap().is_trusted());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn the_generator_is_a_pure_function_of_its_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut v: Vec<usize> = (0..50).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
