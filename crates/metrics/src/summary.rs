//! Summary statistics with confidence intervals for repeated-trial
//! experiments (each figure is regenerated from N seeded trials).

/// Streaming mean/variance accumulator (Welford).
#[derive(Debug, Clone)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    pub fn new() -> Accumulator {
        Accumulator {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample");
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        assert!(self.n > 0, "empty accumulator");
        self.mean
    }

    /// Sample variance (n−1 denominator).
    pub fn variance(&self) -> f64 {
        assert!(self.n > 1, "variance needs ≥ 2 samples");
        self.m2 / (self.n - 1) as f64
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        assert!(self.n > 0);
        self.min
    }

    pub fn max(&self) -> f64 {
        assert!(self.n > 0);
        self.max
    }

    /// Half-width of the ~95% CI on the mean (normal approximation,
    /// 1.96·s/√n) — adequate for the ≥ 20-trial runs used by the benches.
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_dev() / (self.n as f64).sqrt()
    }

    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean(),
            std_dev: if self.n > 1 { self.std_dev() } else { 0.0 },
            min: self.min(),
            max: self.max(),
            ci95: if self.n > 1 {
                self.ci95_half_width()
            } else {
                0.0
            },
        }
    }
}

/// The empty accumulator, as [`Accumulator::new`]: its extremes start at
/// ±∞, so the first sample sets both.
impl Default for Accumulator {
    fn default() -> Accumulator {
        Accumulator::new()
    }
}

impl Extend<f64> for Accumulator {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Immutable snapshot of an accumulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: u64,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
    /// 95% CI half-width on the mean.
    pub ci95: f64,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} ± {:.3} (n={}, min {:.3}, max {:.3})",
            self.mean, self.ci95, self.n, self.min, self.max
        )
    }
}

/// Success-rate counter for pass/fail trials (Fig. 2a right: "Search
/// Success Rate").
#[derive(Debug, Clone, Copy, Default)]
pub struct RateCounter {
    pub successes: u64,
    pub trials: u64,
}

impl RateCounter {
    pub fn record(&mut self, success: bool) {
        self.trials += 1;
        if success {
            self.successes += 1;
        }
    }

    pub fn rate(&self) -> f64 {
        assert!(self.trials > 0, "no trials recorded");
        self.successes as f64 / self.trials as f64
    }

    pub fn percent(&self) -> f64 {
        self.rate() * 100.0
    }

    /// Wilson score interval at 95%, robust for rates near 0 or 1.
    pub fn wilson_ci95(&self) -> (f64, f64) {
        let n = self.trials as f64;
        let p = self.rate();
        let z = 1.96f64;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = p + z2 / (2.0 * n);
        let margin = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        (
            ((centre - margin) / denom).max(0.0),
            ((centre + margin) / denom).min(1.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = Accumulator::new();
        acc.extend(data.iter().copied());
        assert_eq!(acc.count(), 8);
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        // Naive sample variance = 32/7.
        assert!((acc.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(acc.min(), 2.0);
        assert_eq!(acc.max(), 9.0);
    }

    #[test]
    fn default_starts_empty_like_new() {
        let mut acc = Accumulator::default();
        acc.push(5.0);
        acc.push(7.0);
        assert_eq!((acc.min(), acc.max()), (5.0, 7.0));
    }

    #[test]
    fn ci_shrinks_with_n() {
        let mut small = Accumulator::new();
        let mut large = Accumulator::new();
        for i in 0..10 {
            small.push((i % 3) as f64);
        }
        for i in 0..1000 {
            large.push((i % 3) as f64);
        }
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }

    #[test]
    fn summary_snapshot() {
        let mut acc = Accumulator::new();
        acc.push(1.0);
        acc.push(3.0);
        let s = acc.summary();
        assert_eq!(s.n, 2);
        assert_eq!(s.mean, 2.0);
        assert!(format!("{s}").contains("n=2"));
    }

    #[test]
    fn single_sample_summary_has_zero_spread() {
        let mut acc = Accumulator::new();
        acc.push(5.0);
        let s = acc.summary();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty accumulator")]
    fn empty_mean_panics() {
        Accumulator::new().mean();
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_rejected() {
        Accumulator::new().push(f64::NAN);
    }

    #[test]
    fn rate_counter() {
        let mut r = RateCounter::default();
        for i in 0..100 {
            r.record(i < 90);
        }
        assert!((r.rate() - 0.9).abs() < 1e-12);
        assert!((r.percent() - 90.0).abs() < 1e-12);
        let (lo, hi) = r.wilson_ci95();
        assert!(lo > 0.82 && lo < 0.9, "{lo}");
        assert!(hi > 0.9 && hi < 0.95, "{hi}");
    }

    #[test]
    fn wilson_stays_in_unit_interval() {
        let mut all = RateCounter::default();
        for _ in 0..10 {
            all.record(true);
        }
        let (lo, hi) = all.wilson_ci95();
        assert!(lo >= 0.0 && hi <= 1.0);
        assert!(lo < 1.0 && hi == 1.0);
    }
}
