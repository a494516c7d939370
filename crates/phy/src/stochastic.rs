//! Random processes used by the channel models.
//!
//! We implement Gaussian sampling (Box–Muller) and the temporally
//! correlated processes ourselves instead of pulling in `rand_distr`,
//! keeping the dependency set to the vendored crates (see DESIGN.md §5).

use rand::Rng;
use rand::RngExt as _;

/// Draw a standard normal sample via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 which would produce -inf.
    let u1: f64 = loop {
        let u: f64 = rng.random();
        if u > f64::EPSILON {
            break u;
        }
    };
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draw from N(mean, std²).
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

/// Draw an exponentially distributed sample with the given rate (1/mean).
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    let u: f64 = loop {
        let u: f64 = rng.random();
        if u > f64::EPSILON {
            break u;
        }
    };
    -u.ln() / rate
}

/// A discrete-time Ornstein–Uhlenbeck process.
///
/// Used for temporally correlated log-normal shadowing: successive RSS
/// samples a few milliseconds apart are strongly correlated, which matters
/// because Silent Tracker reacts to RSS *deltas* — white shadowing noise
/// would trigger spurious 3 dB beam switches that real channels do not.
#[derive(Debug, Clone)]
pub struct OrnsteinUhlenbeck {
    /// Stationary standard deviation.
    pub sigma: f64,
    /// Correlation time constant in seconds (the process decorrelates to
    /// 1/e over this horizon; spatially this corresponds to the shadowing
    /// decorrelation distance divided by speed).
    pub tau_s: f64,
    state: f64,
}

impl OrnsteinUhlenbeck {
    pub fn new<R: Rng + ?Sized>(rng: &mut R, sigma: f64, tau_s: f64) -> Self {
        // Start in the stationary distribution.
        let state = sigma * standard_normal(rng);
        OrnsteinUhlenbeck {
            sigma,
            tau_s,
            state,
        }
    }

    /// Current value of the process.
    pub fn value(&self) -> f64 {
        self.state
    }

    /// Advance the process by `dt_s` seconds and return the new value.
    ///
    /// Exact discretization: x' = ρ x + σ √(1-ρ²) w, ρ = exp(-dt/τ).
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R, dt_s: f64) -> f64 {
        debug_assert!(dt_s >= 0.0);
        if self.sigma == 0.0 {
            self.state = 0.0;
            return 0.0;
        }
        let rho = (-dt_s / self.tau_s).exp();
        self.state =
            rho * self.state + self.sigma * (1.0 - rho * rho).sqrt() * standard_normal(rng);
        self.state
    }

    /// [`step`](OrnsteinUhlenbeck::step) with the decay factors already
    /// evaluated, for processes that share one `dt` and one τ. Bit-identical
    /// to `step(rng, dt)` when `decay` is `OuDecay::new(dt, self.tau_s)`.
    pub(crate) fn step_decayed<R: Rng + ?Sized>(&mut self, rng: &mut R, decay: OuDecay) -> f64 {
        if self.sigma == 0.0 {
            self.state = 0.0;
            return 0.0;
        }
        self.state = decay.rho * self.state + self.sigma * decay.innovation * standard_normal(rng);
        self.state
    }
}

/// The decay factors of one Ornstein–Uhlenbeck step of `dt` under
/// correlation time τ: ρ = exp(−dt/τ) and √(1 − ρ²), evaluated once and
/// shared by every process with that `dt` and τ.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OuDecay {
    rho: f64,
    innovation: f64,
}

impl OuDecay {
    pub(crate) fn new(dt_s: f64, tau_s: f64) -> OuDecay {
        debug_assert!(dt_s >= 0.0);
        let rho = (-dt_s / tau_s).exp();
        OuDecay {
            rho,
            innovation: (1.0 - rho * rho).sqrt(),
        }
    }
}

/// A *time-correlated* Rician fading process (Gauss–Markov channel).
///
/// The scattered component is a complex Gaussian whose I/Q parts evolve as
/// independent Ornstein–Uhlenbeck processes with the channel's coherence
/// time as their correlation constant; the specular component is constant.
/// Two samples taken at the same instant (no `step` between them) return
/// the *same* fade — which is what makes within-burst beam comparisons
/// physically meaningful — while samples a coherence time apart decorrelate
/// to the usual Rician envelope statistics.
#[derive(Debug, Clone)]
pub struct CorrelatedRician {
    /// Specular amplitude √(K/(K+1)).
    spec: f64,
    i: OrnsteinUhlenbeck,
    q: OrnsteinUhlenbeck,
}

impl CorrelatedRician {
    /// `coherence_s` is the fading coherence time (τ of the underlying OU
    /// processes); at 60 GHz and walking speed this is a few milliseconds.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, k_db: f64, coherence_s: f64) -> CorrelatedRician {
        let k = 10f64.powf(k_db / 10.0);
        let spec = (k / (k + 1.0)).sqrt();
        let sigma = (1.0 / (2.0 * (k + 1.0))).sqrt();
        CorrelatedRician {
            spec,
            i: OrnsteinUhlenbeck::new(rng, sigma, coherence_s),
            q: OrnsteinUhlenbeck::new(rng, sigma, coherence_s),
        }
    }

    /// Advance the scattered component by `dt_s` seconds.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R, dt_s: f64) {
        self.i.step(rng, dt_s);
        self.q.step(rng, dt_s);
    }

    /// [`step`](CorrelatedRician::step) with the decay factors of `dt` under
    /// this process's coherence time already evaluated.
    pub(crate) fn step_decayed<R: Rng + ?Sized>(&mut self, rng: &mut R, decay: OuDecay) {
        self.i.step_decayed(rng, decay);
        self.q.step_decayed(rng, decay);
    }

    /// Current linear fading power gain around a unit mean (floored at
    /// 1e-12, −120 dB). Pure read — repeated calls between steps return
    /// the identical value.
    pub fn power(&self) -> f64 {
        let i = self.spec + self.i.value();
        let q = self.q.value();
        (i * i + q * q).max(1e-12)
    }
}

/// A two-state (on/off) Markov renewal process for human-body blockage.
///
/// Blockers arrive as a Poisson process (rate `arrival_rate_hz`); each
/// blockage lasts an exponentially distributed duration. This reproduces
/// the deep (15–30 dB), hundreds-of-milliseconds fades observed on 60 GHz
/// links when a person crosses the LOS path.
#[derive(Debug, Clone)]
pub struct BlockageProcess {
    pub arrival_rate_hz: f64,
    pub mean_duration_s: f64,
    pub attenuation_db: f64,
    /// Time remaining until the next state change, seconds.
    time_to_toggle_s: f64,
    blocked: bool,
}

impl BlockageProcess {
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        arrival_rate_hz: f64,
        mean_duration_s: f64,
        attenuation_db: f64,
    ) -> Self {
        let time_to_toggle_s = if arrival_rate_hz > 0.0 {
            exponential(rng, arrival_rate_hz)
        } else {
            f64::INFINITY
        };
        BlockageProcess {
            arrival_rate_hz,
            mean_duration_s,
            attenuation_db,
            time_to_toggle_s,
            blocked: false,
        }
    }

    /// A process that never blocks.
    pub fn disabled() -> Self {
        BlockageProcess {
            arrival_rate_hz: 0.0,
            mean_duration_s: 0.0,
            attenuation_db: 0.0,
            time_to_toggle_s: f64::INFINITY,
            blocked: false,
        }
    }

    pub fn is_blocked(&self) -> bool {
        self.blocked
    }

    /// Advance by `dt_s`, toggling through as many state changes as fit.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R, dt_s: f64) {
        let mut remaining = dt_s;
        while remaining >= self.time_to_toggle_s {
            remaining -= self.time_to_toggle_s;
            self.blocked = !self.blocked;
            self.time_to_toggle_s = if self.blocked {
                exponential(rng, 1.0 / self.mean_duration_s.max(1e-9))
            } else if self.arrival_rate_hz > 0.0 {
                exponential(rng, self.arrival_rate_hz)
            } else {
                f64::INFINITY
            };
        }
        self.time_to_toggle_s -= remaining;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 50_000;
        let mean = (0..n).map(|_| exponential(&mut rng, 4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn ou_is_stationary_and_correlated() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ou = OrnsteinUhlenbeck::new(&mut rng, 3.0, 0.5);
        // Tiny steps stay correlated...
        let v0 = ou.value();
        let v1 = ou.step(&mut rng, 1e-4);
        assert!((v1 - v0).abs() < 1.0);
        // ...and the long-run std approaches sigma.
        let n = 100_000;
        let mut acc = 0.0;
        for _ in 0..n {
            let v = ou.step(&mut rng, 0.05);
            acc += v * v;
        }
        let std = (acc / n as f64).sqrt();
        assert!((std - 3.0).abs() < 0.15, "std {std}");
    }

    #[test]
    fn ou_zero_sigma_is_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ou = OrnsteinUhlenbeck::new(&mut rng, 0.0, 0.5);
        assert_eq!(ou.step(&mut rng, 0.1), 0.0);
    }

    #[test]
    fn ou_step_decayed_matches_step_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(14);
        for (sigma, tau) in [(0.0, 0.5), (2.5, 1.5), (0.3, 0.002), (0.7, 1e-6)] {
            let mut a = OrnsteinUhlenbeck::new(&mut rng, sigma, tau);
            let mut b = a.clone();
            let mut rng_b = rng.clone();
            for dt in [0.0, 0.005, 0.005, 1e-4, 0.0, 0.02, 3.0, 0.001] {
                let x = a.step(&mut rng, dt);
                let y = b.step_decayed(&mut rng_b, OuDecay::new(dt, tau));
                assert_eq!(x.to_bits(), y.to_bits(), "sigma {sigma} tau {tau} dt {dt}");
                assert_eq!(rng, rng_b);
            }
        }
    }

    /// Sample mean and (population) variance.
    fn moments(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    /// A link that is sampled lazily advances over a whole gap in one
    /// step. Under the exact discretization one OU step of dt₁ + dt₂ from
    /// x₀ has the law of a step of dt₁ followed by one of dt₂: both are
    /// N(ρx₀, σ²(1 − ρ²)) with ρ = exp(−(dt₁ + dt₂)/τ). Checked on the
    /// shadowing and fading regimes, within 4 standard errors.
    #[test]
    fn ou_one_step_has_the_law_of_two() {
        let n = 20_000;
        let cases = [
            // (σ, τ, x₀, dt₁, dt₂): shadowing over gap bursts, fading over
            // a few coherence times, and shadowing over a long gap.
            (2.5, 1.5, 1.8, 0.005, 0.015),
            (0.2, 0.002, -0.3, 0.001, 0.003),
            (2.5, 1.5, -4.0, 0.7, 1.1),
        ];
        for (k, &(sigma, tau_s, x0, dt1, dt2)) in cases.iter().enumerate() {
            let from_x0 = || OrnsteinUhlenbeck {
                sigma,
                tau_s,
                state: x0,
            };
            let mut rng_one = StdRng::seed_from_u64(40 + k as u64);
            let mut rng_two = StdRng::seed_from_u64(50 + k as u64);
            let one: Vec<f64> = (0..n)
                .map(|_| from_x0().step(&mut rng_one, dt1 + dt2))
                .collect();
            let two: Vec<f64> = (0..n)
                .map(|_| {
                    let mut p = from_x0();
                    p.step(&mut rng_two, dt1);
                    p.step(&mut rng_two, dt2)
                })
                .collect();
            let rho = (-(dt1 + dt2) / tau_s).exp();
            let (mean, var) = (rho * x0, sigma * sigma * (1.0 - rho * rho));
            // Standard errors of a sample mean and a normal sample variance.
            let se_mean = (var / n as f64).sqrt();
            let se_var = var * (2.0 / (n - 1) as f64).sqrt();
            let (m1, v1) = moments(&one);
            let (m2, v2) = moments(&two);
            for (label, m, v) in [("one step", m1, v1), ("two steps", m2, v2)] {
                assert!(
                    (m - mean).abs() < 4.0 * se_mean,
                    "case {k} {label}: mean {m} vs {mean}"
                );
                assert!(
                    (v - var).abs() < 4.0 * se_var,
                    "case {k} {label}: var {v} vs {var}"
                );
            }
            let sqrt2 = std::f64::consts::SQRT_2;
            assert!(
                (m1 - m2).abs() < 4.0 * sqrt2 * se_mean,
                "case {k}: means {m1} vs {m2}"
            );
            assert!(
                (v1 - v2).abs() < 4.0 * sqrt2 * se_var,
                "case {k}: vars {v1} vs {v2}"
            );
        }
    }

    /// The blockage counterpart: the process consumes exponential holding
    /// times, so one step of dt₁ + dt₂ leaves it blocked at T = dt₁ + dt₂
    /// with the probability two steps do — the two-state chain's
    /// a/(a+b)·(1 − e^{−(a+b)T}) from unblocked, a the arrival rate and
    /// 1/b the mean blockage — within 4 standard errors.
    #[test]
    fn blockage_one_step_has_the_occupancy_of_two() {
        let n = 20_000;
        let (rate_hz, mean_s) = (2.0, 0.4);
        for (k, &(dt1, dt2)) in [(0.15, 0.35), (0.005, 0.015), (0.9, 1.3)]
            .iter()
            .enumerate()
        {
            let mut rng_one = StdRng::seed_from_u64(60 + k as u64);
            let mut rng_two = StdRng::seed_from_u64(70 + k as u64);
            let mut blocked_one = 0u32;
            let mut blocked_two = 0u32;
            for _ in 0..n {
                let mut b = BlockageProcess::new(&mut rng_one, rate_hz, mean_s, 20.0);
                b.step(&mut rng_one, dt1 + dt2);
                blocked_one += u32::from(b.is_blocked());
                let mut b = BlockageProcess::new(&mut rng_two, rate_hz, mean_s, 20.0);
                b.step(&mut rng_two, dt1);
                b.step(&mut rng_two, dt2);
                blocked_two += u32::from(b.is_blocked());
            }
            let (a, b) = (rate_hz, 1.0 / mean_s);
            let p = a / (a + b) * (1.0 - (-(a + b) * (dt1 + dt2)).exp());
            let se = (p * (1.0 - p) / n as f64).sqrt();
            let p1 = f64::from(blocked_one) / n as f64;
            let p2 = f64::from(blocked_two) / n as f64;
            assert!((p1 - p).abs() < 4.0 * se, "case {k} one step: {p1} vs {p}");
            assert!((p2 - p).abs() < 4.0 * se, "case {k} two steps: {p2} vs {p}");
            assert!(
                (p1 - p2).abs() < 4.0 * std::f64::consts::SQRT_2 * se,
                "case {k}: {p1} vs {p2}"
            );
        }
    }

    #[test]
    fn correlated_rician_is_constant_between_steps() {
        let mut rng = StdRng::seed_from_u64(11);
        let f = CorrelatedRician::new(&mut rng, 10.0, 0.002);
        assert_eq!(f.power(), f.power());
    }

    #[test]
    fn correlated_rician_decorrelates_over_coherence_time() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut f = CorrelatedRician::new(&mut rng, 3.0, 0.002);
        let power_db = |f: &CorrelatedRician| 10.0 * f.power().log10();
        // Tiny step: fade barely moves.
        let v0 = power_db(&f);
        f.step(&mut rng, 1e-5);
        assert!((power_db(&f) - v0).abs() < 1.0, "{} vs {v0}", power_db(&f));
        // Many coherence times: the fade takes a fresh value.
        let mut max_delta = 0.0f64;
        for _ in 0..100 {
            f.step(&mut rng, 0.05);
            max_delta = max_delta.max((power_db(&f) - v0).abs());
        }
        assert!(max_delta > 1.0, "fade never moved: {max_delta}");
    }

    #[test]
    fn correlated_rician_mean_power_is_0db() {
        let mut rng = StdRng::seed_from_u64(13);
        for k_db in [-100.0, 0.0, 10.0] {
            let mut f = CorrelatedRician::new(&mut rng, k_db, 0.002);
            let n = 50_000;
            let mut acc = 0.0;
            for _ in 0..n {
                // Steps ≫ coherence time: effectively i.i.d. samples.
                f.step(&mut rng, 0.1);
                acc += f.power();
            }
            let mean_lin = acc / n as f64;
            assert!((mean_lin - 1.0).abs() < 0.05, "k={k_db} mean={mean_lin}");
        }
    }

    #[test]
    fn blockage_duty_cycle() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = BlockageProcess::new(&mut rng, 0.2, 0.5, 25.0);
        let dt = 0.01;
        let mut blocked_time = 0.0;
        let total = 20_000.0 * dt;
        for _ in 0..20_000 {
            b.step(&mut rng, dt);
            if b.is_blocked() {
                blocked_time += dt;
            }
        }
        // Expected duty cycle ≈ rate*dur/(1+rate*dur) = 0.1/1.1 ≈ 0.0909.
        let duty = blocked_time / total;
        assert!((duty - 0.09).abs() < 0.04, "duty {duty}");
    }

    #[test]
    fn disabled_blockage_never_blocks() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut b = BlockageProcess::disabled();
        for _ in 0..1000 {
            b.step(&mut rng, 1.0);
            assert!(!b.is_blocked());
        }
    }
}
