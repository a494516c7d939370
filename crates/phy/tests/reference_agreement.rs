//! The linear-power kernel against the formulas it replaced.
//!
//! The tracer derives both bearings of a ray from one `atan2` (the image
//! method) and takes its length as one `sqrt`; the channel multiplies
//! linear power factors; the link budget multiplies linear beam gains and
//! converts to dBm once per output. All of that is exact in real
//! arithmetic but not bit-identical, so this file keeps the previous
//! formulas as a reference — two `atan2` and two `hypot` per reflection,
//! a normalising mirror, and a dB link budget summed through milliwatts —
//! and bounds the disagreement on random geometry: walls at any
//! orientation and in either endpoint order, random positions and
//! headings, every codebook family, and channels with fading, shadowing
//! and blockage on.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use st_phy::channel::{ChannelConfig, Environment, LinkChannel, PathSet, Wall};
use st_phy::geometry::{Degrees, Pose, Radians, Segment, Vec2};
use st_phy::link::{rss, rss_sweep_tx};
use st_phy::stochastic::{BlockageProcess, CorrelatedRician, OrnsteinUhlenbeck};
use st_phy::units::Dbm;
use st_phy::{BeamId, BeamwidthClass, Codebook};

/// One reference ray: the previous tracer's output, losses in dB.
#[derive(Debug, Clone, Copy)]
struct RefRay {
    length_m: f64,
    aod: f64,
    aoa: f64,
    excess_db: f64,
    is_los: bool,
}

/// The previous mirror: project onto the normalised wall direction.
fn ref_mirror(s: Segment, p: Vec2) -> Vec2 {
    let d = (s.b - s.a).normalized();
    let ap = p - s.a;
    let perp = ap - d * ap.dot(d);
    p - perp * 2.0
}

fn ref_penetration_db(walls: &[Wall], p: Vec2, q: Vec2, skip: Option<usize>) -> f64 {
    walls
        .iter()
        .enumerate()
        .filter(|&(i, w)| Some(i) != skip && w.segment().intersect(p, q).is_some())
        .map(|(_, w)| w.penetration_loss().0)
        .sum()
}

/// The previous tracer: every bearing from its own `atan2`, a reflection's
/// length as the sum of two `hypot` legs.
fn ref_trace(env: &Environment, tx: Vec2, rx: Vec2) -> Vec<RefRay> {
    let mut rays = vec![RefRay {
        length_m: tx.distance(rx),
        aod: (rx - tx).angle().0,
        aoa: (tx - rx).angle().0,
        excess_db: ref_penetration_db(&env.walls, tx, rx, None),
        is_los: true,
    }];
    for (i, wall) in env.walls.iter().enumerate() {
        let image = ref_mirror(wall.segment(), tx);
        let Some((_, refl)) = wall.segment().intersect(image, rx) else {
            continue;
        };
        let (leg1, leg2) = (tx.distance(refl), refl.distance(rx));
        if leg1 < 1e-6 || leg2 < 1e-6 {
            continue;
        }
        rays.push(RefRay {
            length_m: leg1 + leg2,
            aod: (refl - tx).angle().0,
            aoa: (refl - rx).angle().0,
            excess_db: wall.reflection_loss().0
                + ref_penetration_db(&env.walls, tx, refl, Some(i))
                + ref_penetration_db(&env.walls, refl, rx, Some(i)),
            is_los: false,
        });
    }
    rays
}

/// The previous channel: the same stochastic processes, built and stepped
/// in the same order on the same stream as `LinkChannel`, read in dB.
struct RefChannel {
    cfg: ChannelConfig,
    shadowing: OrnsteinUhlenbeck,
    blockage: BlockageProcess,
    fading: Vec<(bool, CorrelatedRician)>,
}

impl RefChannel {
    fn new(rng: &mut StdRng, cfg: ChannelConfig) -> RefChannel {
        let shadowing = OrnsteinUhlenbeck::new(rng, cfg.shadowing_sigma_db, cfg.shadowing_tau_s);
        let blockage = if cfg.blockage_rate_hz > 0.0 {
            BlockageProcess::new(
                rng,
                cfg.blockage_rate_hz,
                cfg.blockage_duration_s,
                cfg.blockage_loss_db,
            )
        } else {
            BlockageProcess::disabled()
        };
        RefChannel {
            cfg,
            shadowing,
            blockage,
            fading: Vec::new(),
        }
    }

    fn step(&mut self, rng: &mut StdRng, dt_s: f64) {
        self.shadowing.step(rng, dt_s);
        self.blockage.step(rng, dt_s);
        for (_, f) in &mut self.fading {
            f.step(rng, dt_s);
        }
    }

    /// Per-ray gain in dB: −(FSPL(1 m) + 10·n·log10 d + excess + shadowing
    /// + blockage) + fading.
    fn gains_db(&mut self, rng: &mut StdRng, rays: &[RefRay]) -> Vec<f64> {
        let coherence = self.cfg.fading_coherence_s.max(1e-6);
        let fspl_1m = self.cfg.carrier.fspl(1.0).0;
        rays.iter()
            .enumerate()
            .map(|(idx, ray)| {
                let n = if ray.is_los {
                    self.cfg.los_exponent
                } else {
                    self.cfg.nlos_exponent
                };
                let pl = fspl_1m + 10.0 * n * ray.length_m.max(1.0).log10();
                let mut gain = -(pl + ray.excess_db) - self.shadowing.value();
                if ray.is_los && self.blockage.is_blocked() {
                    gain -= self.cfg.blockage_loss_db;
                }
                if self.cfg.fading_enabled {
                    let k_db = if ray.is_los {
                        self.cfg.los_k_db
                    } else {
                        self.cfg.nlos_k_db
                    };
                    if idx == self.fading.len() {
                        self.fading
                            .push((ray.is_los, CorrelatedRician::new(rng, k_db, coherence)));
                    } else if self.fading[idx].0 != ray.is_los {
                        self.fading[idx] =
                            (ray.is_los, CorrelatedRician::new(rng, k_db, coherence));
                    }
                    gain += 10.0 * self.fading[idx].1.power().log10();
                }
                gain
            })
            .collect()
    }
}

/// The previous link budget: per ray `tx_power + g_tx + gain + g_rx` in
/// dBm, each converted to milliwatts, summed, and converted back.
#[allow(clippy::too_many_arguments)]
fn ref_rss(
    tx_power: Dbm,
    tx_pose: Pose,
    tx_cb: &Codebook,
    tx_beam: BeamId,
    rx_pose: Pose,
    rx_cb: &Codebook,
    rx_beam: BeamId,
    rays: &[RefRay],
    gains_db: &[f64],
) -> f64 {
    let mw: f64 = rays
        .iter()
        .zip(gains_db)
        .map(|(ray, gain)| {
            let tx_local = Radians(ray.aod - tx_pose.heading.0).wrapped();
            let rx_local = Radians(ray.aoa - rx_pose.heading.0).wrapped();
            let level = tx_power.0
                + tx_cb.gain(tx_beam, tx_local).0
                + gain
                + rx_cb.gain(rx_beam, rx_local).0;
            10f64.powf(level / 10.0)
        })
        .sum();
    10.0 * mw.log10()
}

fn codebooks() -> Vec<(&'static str, Codebook)> {
    vec![
        ("sectored 8", Codebook::uniform_sectored(8, Degrees(30.0))),
        ("sectored 16", Codebook::uniform_sectored(16, Degrees(30.0))),
        ("sectored 18", Codebook::for_class(BeamwidthClass::Narrow)),
        ("omni", Codebook::for_class(BeamwidthClass::Omni)),
        ("ula", Codebook::ula(16, 9, Radians::from_degrees(60.0))),
        ("multi-panel ula", Codebook::multi_panel_ula(3, 8, 6)),
    ]
}

fn point(rng: &mut StdRng) -> Vec2 {
    Vec2::new(rng.random_range(-60.0..60.0), rng.random_range(-60.0..60.0))
}

/// 1–4 walls of random material, orientation and endpoint order. The
/// street canyon has only wall bearings 0 and π, where a sign error in the
/// departure bearing 2φ − α goes unnoticed; these do not.
fn random_walls(rng: &mut StdRng) -> Environment {
    let walls = (0..rng.random_range(1..5))
        .map(|_| {
            let (a, b) = (point(rng), point(rng));
            match rng.random_range(0..3) {
                0 => Wall::concrete(a, b),
                1 => Wall::drywall(a, b),
                _ => Wall::glass(a, b),
            }
        })
        .collect();
    Environment { walls }
}

/// Distance from `p` to the infinite line through `s`.
fn line_distance(s: Segment, p: Vec2) -> f64 {
    (s.b - s.a).cross(p - s.a).abs() / s.length()
}

/// A transmitter and receiver at least 5 cm from every wall line. The
/// reference's per-leg `atan2` loses about 1e-13 m / leg of accuracy, so
/// on shorter legs it is the reference, not the kernel, that drifts past
/// the bearing bound.
fn endpoints(rng: &mut StdRng, env: &Environment) -> (Vec2, Vec2) {
    loop {
        let (tx, rx) = (point(rng), point(rng));
        let clear = |p: Vec2| {
            env.walls
                .iter()
                .all(|w| line_distance(w.segment(), p) > 0.05)
        };
        if tx.distance(rx) > 0.1 && clear(tx) && clear(rx) {
            return (tx, rx);
        }
    }
}

fn random_config(rng: &mut StdRng) -> ChannelConfig {
    let mut cfg = ChannelConfig::outdoor_60ghz();
    // Blockage often enough that blocked instants occur.
    cfg.blockage_rate_hz = 2.0;
    cfg.shadowing_sigma_db = 4.0;
    if rng.random_bool(0.5) {
        cfg.los_exponent = rng.random_range(1.6..4.0);
    }
    if rng.random_bool(0.5) {
        cfg.nlos_exponent = 2.0;
    }
    cfg
}

/// Largest disagreements seen, for the failure message.
#[derive(Debug, Default)]
struct Worst {
    bearing_rad: f64,
    length_rel: f64,
    gain_db: f64,
    rss_db: f64,
}

fn separation(a: f64, b: f64) -> f64 {
    Radians(a).separation(Radians(b)).0
}

#[test]
fn linear_kernel_agrees_with_the_db_reference() {
    let books = codebooks();
    let mut rng = StdRng::seed_from_u64(20);
    let mut worst = Worst::default();
    let mut blocked_samples = 0;
    for case in 0..400 {
        let env = random_walls(&mut rng);
        let cfg = random_config(&mut rng);
        let mut stream = StdRng::seed_from_u64(rng.random());
        let mut ref_stream = stream.clone();
        let mut channel = LinkChannel::new(&mut stream, cfg);
        let mut reference = RefChannel::new(&mut ref_stream, cfg);
        let mut set = PathSet::new();
        for instant in 0..6 {
            let (tx, rx) = endpoints(&mut rng, &env);
            channel.trace_into(&mut stream, &env, tx, rx, &mut set);
            let rays = ref_trace(&env, tx, rx);
            let gains = reference.gains_db(&mut ref_stream, &rays);
            let at = format!("case {case} instant {instant}: tx {tx:?} rx {rx:?} {env:?}");
            assert_eq!(set.len(), rays.len(), "ray count, {at}");
            blocked_samples += usize::from(channel.los_blocked());

            for ((ray, sample), (want, gain)) in set
                .rays()
                .iter()
                .zip(set.samples())
                .zip(rays.iter().zip(&gains))
            {
                assert_eq!(ray.is_los, want.is_los, "ray class, {at}");
                assert_eq!(sample.is_los, want.is_los, "sample class, {at}");
                let bearing = separation(ray.aod.0, want.aod).max(separation(ray.aoa.0, want.aoa));
                let length = (ray.length_m - want.length_m).abs() / want.length_m;
                let gain_err = (sample.gain().0 - gain).abs();
                assert!(bearing < 1e-11, "bearing off by {bearing:e} rad, {at}");
                assert!(length < 1e-12, "length off by {length:e} relative, {at}");
                assert!(gain_err < 1e-9, "gain off by {gain_err:e} dB, {at}");
                assert_eq!((sample.aod, sample.aoa), (ray.aod, ray.aoa));
                worst.bearing_rad = worst.bearing_rad.max(bearing);
                worst.length_rel = worst.length_rel.max(length);
                worst.gain_db = worst.gain_db.max(gain_err);
            }

            let (tx_cb, rx_cb) = (
                &books[case % books.len()].1,
                &books[(case / 3) % books.len()].1,
            );
            let tx_pose = Pose::new(tx, Radians(rng.random_range(-4.0..4.0)));
            let rx_pose = Pose::new(rx, Radians(rng.random_range(-4.0..4.0)));
            let tx_beam = BeamId(rng.random_range(0..tx_cb.len()) as u16);
            let rx_beam = BeamId(rng.random_range(0..rx_cb.len()) as u16);
            let p = Dbm(rng.random_range(-10.0..30.0));
            let reference_rss = |tb: BeamId, rb: BeamId| {
                ref_rss(p, tx_pose, tx_cb, tb, rx_pose, rx_cb, rb, &rays, &gains)
            };
            let mut check = |got: Dbm, want: f64, what: &str| {
                let err = (got.0 - want).abs();
                assert!(err < 1e-9, "{what} off by {err:e} dB, {at}");
                worst.rss_db = worst.rss_db.max(err);
            };
            let samples = set.samples();
            let one = rss(p, tx_pose, tx_cb, tx_beam, rx_pose, rx_cb, rx_beam, samples);
            check(one.unwrap(), reference_rss(tx_beam, rx_beam), "rss");
            let mut out = vec![Dbm(0.0); tx_cb.len()];
            assert!(rss_sweep_tx(
                p, tx_pose, tx_cb, rx_pose, rx_cb, rx_beam, samples, &mut out
            ));
            for (b, &got) in out.iter().enumerate() {
                check(
                    got,
                    reference_rss(BeamId(b as u16), rx_beam),
                    "rss_sweep_tx",
                );
            }

            let dt = rng.random_range(0.0..0.3);
            channel.step(&mut stream, dt);
            reference.step(&mut ref_stream, dt);
        }
    }
    assert!(blocked_samples > 0, "no blocked instant exercised");
    eprintln!("worst disagreement: {worst:?}");
}

#[test]
fn street_links_agree_with_the_db_reference() {
    // The fleet street: both canyon walls, the BS on one side, the mobile
    // anywhere along the street — the geometry every benchmark op traces.
    let env = Environment::street_canyon(800.0, 30.0);
    let bs = Codebook::uniform_sectored(8, Degrees(30.0));
    let ue = Codebook::for_class(BeamwidthClass::Narrow);
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..2_000 {
        let tx = Vec2::new(rng.random_range(-400.0..400.0), 12.0);
        let rx = Vec2::new(
            rng.random_range(-400.0..400.0),
            rng.random_range(-14.0..14.0),
        );
        let rays = ref_trace(&env, tx, rx);
        let traced = env.trace(tx, rx);
        assert_eq!(traced.len(), rays.len());
        for (ray, want) in traced.iter().zip(&rays) {
            assert_eq!(ray.is_los, want.is_los);
            assert!(separation(ray.aod.0, want.aod) < 1e-11, "{tx:?} {rx:?}");
            assert!(separation(ray.aoa.0, want.aoa) < 1e-11, "{tx:?} {rx:?}");
            assert!((ray.length_m - want.length_m).abs() / want.length_m < 1e-12);
            let excess_db = -10.0 * ray.excess.log10();
            assert!((excess_db - want.excess_db).abs() < 1e-9);
        }
        let tx_pose = Pose::new(tx, Radians(rng.random_range(-4.0..4.0)));
        let rx_pose = Pose::new(rx, Radians(rng.random_range(-4.0..4.0)));
        let mut stream = StdRng::seed_from_u64(rng.random());
        let mut ref_stream = stream.clone();
        let cfg = ChannelConfig::outdoor_60ghz();
        let mut channel = LinkChannel::new(&mut stream, cfg);
        let mut reference = RefChannel::new(&mut ref_stream, cfg);
        let mut set = PathSet::new();
        channel.trace_into(&mut stream, &env, tx, rx, &mut set);
        let gains = reference.gains_db(&mut ref_stream, &rays);
        let rx_beam = BeamId(rng.random_range(0..ue.len()) as u16);
        let mut out = vec![Dbm(0.0); bs.len()];
        assert!(rss_sweep_tx(
            Dbm(10.0),
            tx_pose,
            &bs,
            rx_pose,
            &ue,
            rx_beam,
            &set,
            &mut out
        ));
        for (b, got) in out.iter().enumerate() {
            let want = ref_rss(
                Dbm(10.0),
                tx_pose,
                &bs,
                BeamId(b as u16),
                rx_pose,
                &ue,
                rx_beam,
                &rays,
                &gains,
            );
            assert!((got.0 - want).abs() < 1e-9, "{} vs {want}", got.0);
        }
    }
}

#[test]
fn beam_linear_gain_matches_its_db_gain() {
    let mut rng = StdRng::seed_from_u64(22);
    for (name, cb) in codebooks() {
        for beam in cb.beams() {
            for _ in 0..2_000 {
                let aoa = Radians(rng.random_range(-7.0..7.0));
                let want = 10f64.powf(beam.gain_towards(aoa).0 / 10.0);
                let got = beam.linear_gain_towards(aoa);
                let rel = (got - want).abs() / want;
                assert!(
                    rel < 1e-12,
                    "{name} {}: {got} vs {want} at {aoa:?}",
                    beam.id
                );
            }
            // The boresight and the side-lobe floor, exactly where the
            // sectored pattern switches branches.
            for aoa in [beam.boresight, beam.boresight + Radians::PI] {
                let want = 10f64.powf(beam.gain_towards(aoa).0 / 10.0);
                let got = beam.linear_gain_towards(aoa);
                assert!((got - want).abs() / want < 1e-12, "{name} {}", beam.id);
            }
        }
    }
}
