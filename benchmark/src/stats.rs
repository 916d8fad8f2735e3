//! Order statistics and the seeded generators the workloads draw from.
//!
//! Everything here is deterministic: the same seed gives the same
//! shuffle and the same Zipf draw, so a run's inputs depend on `--seed`
//! and nothing else.

/// Fewest samples that must lie beyond a reported percentile. A p95 from
/// 40 samples rests on two of them; the benchmark refuses to print it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(xs, n=4)` uses, so spreads printed here match
/// the ones the acceptance driver computes. `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile spread as a share of the median; 0 below two samples.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let m = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// splitmix64 stream: small, seedable, and good enough to order requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let u = rng.next_f64() * total;
        self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len().saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        // 199 samples: p95 is rank 190, nine beyond it.
        assert_eq!(percentile(&xs, 95.0), None);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: rank 190, ten beyond it.
        assert_eq!(percentile(&xs, 95.0), Some(190.0));
        // The median needs twenty samples.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shuffle_and_zipf_repeat_for_a_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let mut order: Vec<usize> = (0..50).collect();
            rng.shuffle(&mut order);
            let zipf = Zipf::new(200, 1.0);
            let ranks: Vec<usize> = (0..500).map(|_| zipf.sample(&mut rng)).collect();
            (order, ranks)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let (order, ranks) = draw(7);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>(), "a shuffle is a permutation");
        assert!(ranks.iter().all(|&r| r < 200));
        // Zipf(1.0) over 200 ranks puts about 17% of the mass on rank 0.
        let head = ranks.iter().filter(|&&r| r == 0).count();
        assert!((50..130).contains(&head), "rank 0 drawn {head} of 500 times");
    }
}
