//! The composite link channel: rays × path loss × shadowing × fading ×
//! blockage.
//!
//! A [`LinkChannel`] models one (base-station, mobile) radio link. It is
//! advanced in time with [`LinkChannel::step`] (evolving the correlated
//! shadowing and the blockage process) and sampled with
//! [`LinkChannel::paths`], which returns every propagation path with its
//! total power gain *excluding* antenna gains — the antenna/beam
//! contribution is applied by [`crate::link`] because it depends on which
//! beams the two ends currently use. Path gains are linear power ratios:
//! the link budget multiplies them and converts to dB once per RSS.

pub mod pathloss;
pub mod raytrace;

use rand::Rng;

use crate::geometry::{Radians, Vec2};
use crate::stochastic::{BlockageProcess, CorrelatedRician, OrnsteinUhlenbeck, OuDecay};
use crate::units::{Carrier, Db};

pub use pathloss::{CloseIn, FreeSpace, PathLossModel, UmiStreetCanyonLos, UmiStreetCanyonNlos};
pub use raytrace::{Environment, Ray, Wall};

/// One resolvable propagation path at a sampling instant, with everything
/// except antenna gains folded into `power` (a linear ratio below 1).
#[derive(Debug, Clone, Copy)]
pub struct PathSample {
    /// Departure bearing at the transmitter, global frame.
    pub aod: Radians,
    /// Arrival bearing at the receiver, global frame.
    pub aoa: Radians,
    /// Channel power gain, linear: path loss × excess × shadowing ×
    /// blockage × fading.
    pub power: f64,
    pub is_los: bool,
}

impl PathSample {
    /// The channel gain in decibels (a negative value).
    pub fn gain(&self) -> Db {
        Db::from_linear(self.power)
    }
}

/// The propagation paths of one link at one measurement instant, plus the
/// ray-trace scratch they were built from. Both buffers are reused across
/// instants, so steady-state sampling allocates nothing: take the snapshot
/// once per (link, instant) with [`LinkChannel::trace_into`] and evaluate
/// every beam of an SSB sweep against it.
#[derive(Debug, Clone, Default)]
pub struct PathSet {
    /// Ray-trace scratch (geometry only, reused between traces).
    rays: Vec<Ray>,
    samples: Vec<PathSample>,
}

impl PathSet {
    pub fn new() -> PathSet {
        PathSet::default()
    }

    /// The path samples of the snapshot instant.
    pub fn samples(&self) -> &[PathSample] {
        &self.samples
    }

    /// The traced rays the samples were built from. Parallel to
    /// [`samples`](PathSet::samples): `rays()[i]` is the geometry of
    /// `samples()[i]` (same order, same length after a trace).
    pub fn rays(&self) -> &[Ray] {
        &self.rays
    }

    /// Apply an extra per-ray loss to every sample in place: the
    /// corresponding sample's power is scaled down by `extra(ray)`
    /// decibels. The dynamic-environment occlusion pass uses this to fold
    /// moving-blocker diffraction losses into an already-traced snapshot
    /// without re-tracing, allocating, or touching the RNG stream. A ray
    /// for which `extra` returns exactly `Db::ZERO` keeps its power
    /// bit-identical.
    pub fn attenuate(&mut self, mut extra: impl FnMut(&Ray) -> Db) {
        for (ray, sample) in self.rays.iter().zip(self.samples.iter_mut()) {
            let loss = extra(ray);
            if loss != Db::ZERO {
                sample.power *= (-loss).linear();
            }
        }
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

impl std::ops::Deref for PathSet {
    type Target = [PathSample];

    fn deref(&self) -> &[PathSample] {
        &self.samples
    }
}

/// Configuration of the stochastic channel components.
#[derive(Debug, Clone, Copy)]
pub struct ChannelConfig {
    pub carrier: Carrier,
    /// LOS path-loss exponent (close-in model).
    pub los_exponent: f64,
    /// Extra exponent applied to reflected (NLOS) rays.
    pub nlos_exponent: f64,
    /// Log-normal shadowing standard deviation, dB.
    pub shadowing_sigma_db: f64,
    /// Shadowing decorrelation time constant, seconds.
    pub shadowing_tau_s: f64,
    /// Rician K-factor for the LOS ray, dB.
    pub los_k_db: f64,
    /// Rician K-factor for reflected rays, dB.
    pub nlos_k_db: f64,
    /// Human-blockage arrival rate (events/s) on the LOS ray.
    pub blockage_rate_hz: f64,
    /// Mean blockage duration, seconds.
    pub blockage_duration_s: f64,
    /// Blockage attenuation, dB.
    pub blockage_loss_db: f64,
    /// Disable small-scale fading (for deterministic unit tests).
    pub fading_enabled: bool,
    /// Small-scale fading coherence time, seconds. Samples closer together
    /// than this share (most of) one fade; at 60 GHz and pedestrian speed
    /// T_c ≈ 0.423·λ/v ≈ 1.5 ms.
    pub fading_coherence_s: f64,
}

impl ChannelConfig {
    /// 60 GHz outdoor cell-edge defaults matching the paper's testbed
    /// regime: strong LOS, occasional pedestrian blockage.
    pub fn outdoor_60ghz() -> ChannelConfig {
        ChannelConfig {
            carrier: Carrier::MM_WAVE_60GHZ,
            los_exponent: 2.0,
            nlos_exponent: 2.4,
            shadowing_sigma_db: 2.5,
            shadowing_tau_s: 1.5,
            los_k_db: 10.0,
            nlos_k_db: 3.0,
            blockage_rate_hz: 0.05,
            blockage_duration_s: 0.4,
            blockage_loss_db: 22.0,
            fading_enabled: true,
            fading_coherence_s: 0.002,
        }
    }

    /// Fully deterministic variant: no shadowing, fading, or blockage.
    /// Useful for tests that assert exact link-budget arithmetic.
    pub fn deterministic() -> ChannelConfig {
        ChannelConfig {
            shadowing_sigma_db: 0.0,
            blockage_rate_hz: 0.0,
            fading_enabled: false,
            ..ChannelConfig::outdoor_60ghz()
        }
    }
}

/// Stochastic state of one radio link.
#[derive(Debug, Clone)]
pub struct LinkChannel {
    config: ChannelConfig,
    /// `config.carrier.fspl(1.0)` as a linear power factor: the close-in
    /// reference loss of every ray, evaluated once per link.
    fspl_1m_factor: f64,
    /// `config.blockage_loss_db` as a linear power factor, applied to the
    /// LOS ray while it is blocked.
    blocked_factor: f64,
    shadowing: OrnsteinUhlenbeck,
    blockage: BlockageProcess,
    /// One time-correlated fading process per resolvable ray, keyed by ray
    /// index and class (`is_los`), created lazily the first time the ray
    /// appears. Two `paths` calls with no `step` in between therefore see
    /// the identical fade on every ray — within-burst beam comparisons
    /// share one channel realization.
    fading: Vec<(bool, CorrelatedRician)>,
}

impl LinkChannel {
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: ChannelConfig) -> LinkChannel {
        let shadowing =
            OrnsteinUhlenbeck::new(rng, config.shadowing_sigma_db, config.shadowing_tau_s);
        let blockage = if config.blockage_rate_hz > 0.0 {
            BlockageProcess::new(
                rng,
                config.blockage_rate_hz,
                config.blockage_duration_s,
                config.blockage_loss_db,
            )
        } else {
            BlockageProcess::disabled()
        };
        LinkChannel {
            config,
            fspl_1m_factor: (-config.carrier.fspl(1.0)).linear(),
            blocked_factor: Db(-blockage.attenuation_db).linear(),
            shadowing,
            blockage,
            fading: Vec::new(),
        }
    }

    /// Advance the time-correlated components by `dt_s`.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R, dt_s: f64) {
        self.shadowing.step(rng, dt_s);
        self.blockage.step(rng, dt_s);
        if self.fading.is_empty() {
            return;
        }
        // Every fading I/Q process of the link has this `dt` and the same
        // τ, so one decay serves them all (bit-identical to each process
        // evaluating its own).
        let decay = OuDecay::new(dt_s, self.fading_tau_s());
        for (_, f) in &mut self.fading {
            f.step_decayed(rng, decay);
        }
    }

    /// Correlation time of every fading process of the link.
    fn fading_tau_s(&self) -> f64 {
        self.config.fading_coherence_s.max(1e-6)
    }

    /// The linear fading power of ray `idx` (class `is_los`), creating its
    /// process in the stationary distribution on first appearance. Rays
    /// are visited in trace order, so `idx` is at most `fading.len()`. A
    /// ray whose class flips (geometry change re-ordering the trace) gets
    /// a fresh process.
    fn fading_for<R: Rng + ?Sized>(&mut self, rng: &mut R, idx: usize, is_los: bool) -> f64 {
        debug_assert!(idx <= self.fading.len());
        let k_db = if is_los {
            self.config.los_k_db
        } else {
            self.config.nlos_k_db
        };
        let coherence = self.fading_tau_s();
        if idx == self.fading.len() {
            self.fading
                .push((is_los, CorrelatedRician::new(rng, k_db, coherence)));
        } else if self.fading[idx].0 != is_los {
            self.fading[idx] = (is_los, CorrelatedRician::new(rng, k_db, coherence));
        }
        self.fading[idx].1.power()
    }

    /// Whether the LOS ray is currently blocked by a pedestrian.
    pub fn los_blocked(&self) -> bool {
        self.blockage.is_blocked()
    }

    /// Sample every propagation path between `tx` and `rx` through `env`,
    /// reusing `set`'s buffers — the zero-allocation hot-path entry point.
    ///
    /// RNG discipline: fading processes are created lazily per ray in
    /// trace order, exactly as many and in exactly the order the
    /// allocating [`paths`](LinkChannel::paths) would create them, so
    /// swapping call sites between the two (or snapshotting once instead
    /// of sampling per beam within one instant) never perturbs the
    /// stream — the determinism contracts depend on this.
    ///
    /// Each path's power is a product of linear factors: FSPL(1 m) per
    /// link, `d^−n` (`1/d²` at n = 2, one `powf` otherwise), the ray's
    /// excess factor, one `exp` per trace for the shadowing, the cached
    /// blockage factor on a blocked LOS ray, and the fading's I² + Q².
    pub fn trace_into<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        env: &Environment,
        tx: Vec2,
        rx: Vec2,
        set: &mut PathSet,
    ) {
        let PathSet { rays, samples } = set;
        env.trace_into(tx, rx, rays);
        samples.clear();
        let common = self.fspl_1m_factor * Db(-self.shadowing.value()).linear();
        for (idx, ray) in rays.iter().enumerate() {
            let exponent = if ray.is_los {
                self.config.los_exponent
            } else {
                self.config.nlos_exponent
            };
            let d = ray.length_m.max(1.0);
            let spread = if exponent == 2.0 {
                1.0 / (d * d)
            } else {
                d.powf(-exponent)
            };
            let mut power = common * spread * ray.excess;
            if ray.is_los && self.blockage.is_blocked() {
                power *= self.blocked_factor;
            }
            if self.config.fading_enabled {
                power *= self.fading_for(rng, idx, ray.is_los);
            }
            samples.push(PathSample {
                aod: ray.aod,
                aoa: ray.aoa,
                power,
                is_los: ray.is_los,
            });
        }
    }

    /// Sample every propagation path between `tx` and `rx` through `env`.
    /// Allocating convenience wrapper around
    /// [`trace_into`](LinkChannel::trace_into) for tests and one-shot use.
    pub fn paths<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        env: &Environment,
        tx: Vec2,
        rx: Vec2,
    ) -> Vec<PathSample> {
        let mut set = PathSet::new();
        self.trace_into(rng, env, tx, rx, &mut set);
        set.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference for [`LinkChannel::step`]: every process evaluates its
    /// own decay through `OrnsteinUhlenbeck::step`.
    fn step_per_process(ch: &mut LinkChannel, rng: &mut StdRng, dt_s: f64) {
        ch.shadowing.step(rng, dt_s);
        ch.blockage.step(rng, dt_s);
        for (_, f) in &mut ch.fading {
            f.step(rng, dt_s);
        }
    }

    proptest! {
        #[test]
        fn shared_decay_step_matches_per_process_step(
            seed in 0u64..1_000_000,
            walls in 0usize..3,
            dts in prop::collection::vec(
                (prop_oneof![Just(0.0), Just(0.005), 0.0f64..0.05, 0.0f64..2.0], 1usize..4),
                1..24,
            ),
            xs in prop::collection::vec(-60.0f64..60.0, 24..25),
        ) {
            // A street canyon keeping its first `walls` walls: 1–3 rays.
            let mut env = Environment::street_canyon(200.0, 20.0);
            env.walls.truncate(walls);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut shared = LinkChannel::new(&mut rng, ChannelConfig::outdoor_60ghz());
            let mut reference = shared.clone();
            let mut rng_ref = rng.clone();
            let (mut a, mut b) = (PathSet::new(), PathSet::new());
            let tx = Vec2::new(0.0, 8.0);
            for (k, &(dt, repeats)) in dts.iter().enumerate() {
                let rx = Vec2::new(xs[k], -3.0);
                shared.trace_into(&mut rng, &env, tx, rx, &mut a);
                reference.trace_into(&mut rng_ref, &env, tx, rx, &mut b);
                prop_assert_eq!(a.len(), walls + 1);
                for (x, y) in a.samples().iter().zip(b.samples()) {
                    prop_assert_eq!(x.power.to_bits(), y.power.to_bits());
                }
                for _ in 0..repeats {
                    shared.step(&mut rng, dt);
                    step_per_process(&mut reference, &mut rng_ref, dt);
                    prop_assert!(rng == rng_ref, "draw streams diverged at step {}", k);
                }
            }
        }
    }

    #[test]
    fn deterministic_config_gives_pure_pathloss() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ch = LinkChannel::new(&mut rng, ChannelConfig::deterministic());
        let env = Environment::open();
        let paths = ch.paths(&mut rng, &env, Vec2::ZERO, Vec2::new(10.0, 0.0));
        assert_eq!(paths.len(), 1);
        // -88 dB at 10 m (close-in n=2).
        assert!(
            (paths[0].gain().0 + 88.0).abs() < 0.3,
            "{:?}",
            paths[0].gain()
        );
        // Repeatable: same answer twice.
        let again = ch.paths(&mut rng, &env, Vec2::ZERO, Vec2::new(10.0, 0.0));
        assert_eq!(paths[0].power, again[0].power);
    }

    #[test]
    fn reflections_are_weaker_than_los() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ch = LinkChannel::new(&mut rng, ChannelConfig::deterministic());
        let env = Environment::street_canyon(100.0, 20.0);
        let paths = ch.paths(&mut rng, &env, Vec2::new(-10.0, 0.0), Vec2::new(10.0, 0.0));
        let los = paths.iter().find(|p| p.is_los).unwrap();
        for p in paths.iter().filter(|p| !p.is_los) {
            assert!(p.gain().0 < los.gain().0 - 5.0);
        }
    }

    #[test]
    fn blockage_hits_only_los() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut cfg = ChannelConfig::deterministic();
        cfg.blockage_rate_hz = 1000.0; // force a blockage quickly
        cfg.blockage_duration_s = 100.0;
        cfg.blockage_loss_db = 25.0;
        let mut ch = LinkChannel::new(&mut rng, cfg);
        let env = Environment::street_canyon(100.0, 20.0);
        let tx = Vec2::new(-10.0, 0.0);
        let rx = Vec2::new(10.0, 0.0);
        let before = ch.paths(&mut rng, &env, tx, rx);
        // Step until blocked.
        for _ in 0..100 {
            ch.step(&mut rng, 0.01);
            if ch.los_blocked() {
                break;
            }
        }
        assert!(ch.los_blocked());
        let after = ch.paths(&mut rng, &env, tx, rx);
        let los_drop = before.iter().find(|p| p.is_los).unwrap().gain()
            - after.iter().find(|p| p.is_los).unwrap().gain();
        assert!((los_drop.0 - 25.0).abs() < 1e-9, "{los_drop}");
        let nlos_before = before.iter().find(|p| !p.is_los).unwrap().power;
        let nlos_after = after.iter().find(|p| !p.is_los).unwrap().power;
        assert_eq!(nlos_before, nlos_after);
    }

    #[test]
    fn shadowing_moves_all_rays_together() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut cfg = ChannelConfig::deterministic();
        cfg.shadowing_sigma_db = 4.0;
        let mut ch = LinkChannel::new(&mut rng, cfg);
        let env = Environment::street_canyon(100.0, 20.0);
        let tx = Vec2::new(-10.0, 0.0);
        let rx = Vec2::new(10.0, 0.0);
        let a = ch.paths(&mut rng, &env, tx, rx);
        ch.step(&mut rng, 10.0); // long step decorrelates shadowing
        let b = ch.paths(&mut rng, &env, tx, rx);
        let delta_los = (a[0].gain() - b[0].gain()).0;
        let delta_r1 = (a[1].gain() - b[1].gain()).0;
        // Same shadowing shift applies to each ray.
        assert!((delta_los - delta_r1).abs() < 1e-9);
    }

    #[test]
    fn fading_is_shared_within_an_instant() {
        // Two samples with no time step between them (e.g. two beams
        // probed in the same SSB burst) must see the same fade.
        let mut rng = StdRng::seed_from_u64(5);
        let mut cfg = ChannelConfig::deterministic();
        cfg.fading_enabled = true;
        let mut ch = LinkChannel::new(&mut rng, cfg);
        let env = Environment::open();
        let a = ch.paths(&mut rng, &env, Vec2::ZERO, Vec2::new(10.0, 0.0));
        let b = ch.paths(&mut rng, &env, Vec2::ZERO, Vec2::new(10.0, 0.0));
        assert_eq!(a[0].power, b[0].power);
    }

    #[test]
    fn trace_into_matches_paths_and_reuses_buffers() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut cfg = ChannelConfig::outdoor_60ghz();
        cfg.fading_enabled = true;
        let mut ch = LinkChannel::new(&mut rng, cfg);
        let env = Environment::street_canyon(100.0, 20.0);
        let tx = Vec2::new(-10.0, 0.0);
        let mut set = PathSet::new();
        for step in 0..20 {
            let rx = Vec2::new(10.0 + step as f64, 0.0);
            // Two identical clones of the channel+rng state must produce
            // bit-identical samples through both APIs (same RNG draws).
            let mut ch2 = ch.clone();
            let mut rng2 = rng.clone();
            ch.trace_into(&mut rng, &env, tx, rx, &mut set);
            let alloc = ch2.paths(&mut rng2, &env, tx, rx);
            assert_eq!(set.len(), alloc.len());
            for (a, b) in set.samples().iter().zip(alloc.iter()) {
                assert_eq!(a.power, b.power);
                assert_eq!(a.aod, b.aod);
                assert_eq!(a.is_los, b.is_los);
            }
            ch.step(&mut rng, 0.01);
            ch2.step(&mut rng2, 0.01);
        }
        // Steady state: the scratch capacity stabilized (no per-call growth).
        let cap = set.samples.capacity();
        ch.trace_into(&mut rng, &env, tx, Vec2::new(12.0, 1.0), &mut set);
        assert_eq!(set.samples.capacity(), cap);
        assert!(!set.is_empty());
    }

    #[test]
    fn fading_decorrelates_across_coherence_times() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cfg = ChannelConfig::deterministic();
        cfg.fading_enabled = true;
        let mut ch = LinkChannel::new(&mut rng, cfg);
        let env = Environment::open();
        let a = ch.paths(&mut rng, &env, Vec2::ZERO, Vec2::new(10.0, 0.0));
        // A tiny step moves the fade only slightly...
        ch.step(&mut rng, 1e-5);
        let b = ch.paths(&mut rng, &env, Vec2::ZERO, Vec2::new(10.0, 0.0));
        assert!((a[0].gain() - b[0].gain()).0.abs() < 1.0);
        // ...while many coherence times later the fade is fresh.
        let mut max_delta = 0.0f64;
        for _ in 0..100 {
            ch.step(&mut rng, 0.05);
            let c = ch.paths(&mut rng, &env, Vec2::ZERO, Vec2::new(10.0, 0.0));
            max_delta = max_delta.max((a[0].gain() - c[0].gain()).0.abs());
        }
        assert!(max_delta > 1.0, "fade never moved: {max_delta}");
    }
}
