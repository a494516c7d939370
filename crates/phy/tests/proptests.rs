//! Property-based tests for the PHY substrate invariants.

use std::f64::consts::{PI, TAU};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_phy::channel::pathloss::{CloseIn, PathLossModel};
use st_phy::channel::{ChannelConfig, Environment, LinkChannel, PathSet};
use st_phy::geometry::{Degrees, Pose, Radians, Segment, Vec2};
use st_phy::link::{rss, rss_sweep_tx};
use st_phy::units::{Carrier, Db, Dbm};
use st_phy::{BeamId, BeamwidthClass, Codebook, Pattern, SectoredPattern, UlaPattern};

/// Reference for `Radians::wrapped`: the plain `%` wrap, without the
/// `|x| < TAU` fast path.
fn wrapped_reference(x: f64) -> f64 {
    let mut a = x % TAU;
    if a <= -PI {
        a += TAU;
    } else if a > PI {
        a -= TAU;
    }
    a
}

/// The next representable `f64` above finite `x`.
fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

#[test]
fn wrapped_matches_reference_at_the_edges() {
    let mut inputs = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for x in [0.0, PI, TAU, 3.0 * PI, 1e6] {
        for v in [x, -x] {
            inputs.extend([v, next_up(v), -next_up(-v)]);
        }
    }
    for x in inputs {
        assert_eq!(
            Radians(x).wrapped().0.to_bits(),
            wrapped_reference(x).to_bits(),
            "{x:e}"
        );
    }
}

proptest! {
    #[test]
    fn db_linear_round_trip(v in -120.0f64..60.0) {
        let db = Db(v);
        let back = Db::from_linear(db.linear());
        prop_assert!((back.0 - v).abs() < 1e-9);
    }

    #[test]
    fn angle_wrap_is_idempotent(v in -100.0f64..100.0) {
        let w = Radians(v).wrapped();
        prop_assert!(w.0 > -std::f64::consts::PI - 1e-12);
        prop_assert!(w.0 <= std::f64::consts::PI + 1e-12);
        let w2 = w.wrapped();
        prop_assert!((w.0 - w2.0).abs() < 1e-12);
    }

    #[test]
    fn separation_bounds(a in -20.0f64..20.0, b in -20.0f64..20.0) {
        let s = Radians(a).separation(Radians(b));
        prop_assert!(s.0 >= 0.0 && s.0 <= std::f64::consts::PI + 1e-12);
        // Symmetric.
        let s2 = Radians(b).separation(Radians(a));
        prop_assert!((s.0 - s2.0).abs() < 1e-9);
    }

    #[test]
    fn fspl_monotone(d1 in 1.0f64..500.0, d2 in 1.0f64..500.0) {
        prop_assume!(d1 < d2);
        let c = Carrier::MM_WAVE_60GHZ;
        prop_assert!(c.fspl(d1).0 < c.fspl(d2).0);
    }

    #[test]
    fn close_in_monotone(d1 in 1.0f64..500.0, d2 in 1.0f64..500.0, n in 1.6f64..4.0) {
        prop_assume!(d1 + 0.01 < d2);
        let m = CloseIn { carrier: Carrier::MM_WAVE_60GHZ, exponent: n };
        prop_assert!(m.loss(d1).0 < m.loss(d2).0);
    }

    #[test]
    fn sectored_gain_never_exceeds_peak(bw in 5.0f64..120.0, off in -200.0f64..200.0) {
        let p = SectoredPattern::from_beamwidth(
            st_phy::Degrees(bw), st_phy::Degrees(60.0));
        let g = p.gain(Radians::from_degrees(off));
        prop_assert!(g.0 <= p.peak_gain().0 + 1e-9);
        prop_assert!(g.0 >= p.peak_gain().0 - p.sidelobe_level.0 - 1e-9);
    }

    #[test]
    fn ula_gain_bounded_by_peak(n in 2usize..64, off in -90.0f64..90.0) {
        let u = UlaPattern::broadside(n);
        prop_assert!(u.gain(Radians::from_degrees(off)).0 <= u.peak_gain().0 + 1e-9);
    }

    #[test]
    fn codebook_coverage_within_3db(n in 2usize..36, deg in -180.0f64..180.0) {
        let cb = Codebook::uniform_sectored(n, st_phy::Degrees(60.0));
        let aoa = Radians::from_degrees(deg);
        let best = cb.best_beam_towards(aoa);
        let peak = cb.beam(best).peak_gain();
        prop_assert!((peak - cb.gain(best, aoa)).0 <= 3.01);
    }

    #[test]
    fn codebook_adjacency_symmetric(n in 1usize..36, i in 0u16..36) {
        let cb = Codebook::uniform_sectored(n, st_phy::Degrees(60.0));
        prop_assume!((i as usize) < cb.len());
        let id = st_phy::BeamId(i);
        for a in cb.adjacent(id) {
            prop_assert!(cb.adjacent(a).contains(&id));
        }
    }

    #[test]
    fn best_beam_gain_at_least_any_other(deg in -180.0f64..180.0) {
        for class in [BeamwidthClass::Narrow, BeamwidthClass::Wide] {
            let cb = Codebook::for_class(class);
            let aoa = Radians::from_degrees(deg);
            let best = cb.best_beam_towards(aoa);
            let gb = cb.gain(best, aoa);
            for id in cb.ids() {
                prop_assert!(gb.0 >= cb.gain(id, aoa).0 - 1e-9);
            }
        }
    }

    #[test]
    fn mirror_is_involution(px in -50.0f64..50.0, py in -50.0f64..50.0,
                            ax in -50.0f64..50.0, ay in -50.0f64..50.0,
                            bx in -50.0f64..50.0, by in -50.0f64..50.0) {
        let a = Vec2::new(ax, ay);
        let b = Vec2::new(bx, by);
        prop_assume!(a.distance(b) > 0.1);
        let wall = Segment::new(a, b);
        let p = Vec2::new(px, py);
        let m = wall.mirror(wall.mirror(p));
        prop_assert!((m.x - p.x).abs() < 1e-6 && (m.y - p.y).abs() < 1e-6);
    }

    #[test]
    fn wrapped_matches_reference(x in -1e6f64..1e6, small in -20.0f64..20.0) {
        for v in [x, small] {
            prop_assert_eq!(Radians(v).wrapped().0.to_bits(), wrapped_reference(v).to_bits());
        }
    }

    #[test]
    fn sweeps_match_per_beam_rss_bit_for_bit(
        seed in 0u64..1_000_000,
        ux in -150.0f64..150.0, uy in -12.0f64..12.0,
        bs_heading in -4.0f64..4.0, ue_heading in -4.0f64..4.0,
        beam_pick in 0u16..18,
    ) {
        // The fleet street: an 800 m canyon, a BS on the wall side, the
        // mobile anywhere along the street.
        let bs = Vec2::new(0.0, 12.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ch = LinkChannel::new(&mut rng, ChannelConfig::outdoor_60ghz());
        let env = Environment::street_canyon(800.0, 30.0);
        let paths = ch.paths(&mut rng, &env, bs, Vec2::new(ux, uy));
        let bs_pose = Pose::new(bs, Radians(bs_heading));
        let ue_pose = Pose::new(Vec2::new(ux, uy), Radians(ue_heading));
        let bs_cb = Codebook::uniform_sectored(8, Degrees(30.0));
        let ue_cb = Codebook::for_class(BeamwidthClass::Narrow);
        let rx_beam = BeamId(beam_pick);
        let p = Dbm(10.0);

        let mut out = vec![Dbm(0.0); bs_cb.len()];
        prop_assert!(rss_sweep_tx(p, bs_pose, &bs_cb, ue_pose, &ue_cb, rx_beam, &paths, &mut out));
        for (b, got) in out.iter().enumerate() {
            let want = rss(p, bs_pose, &bs_cb, BeamId(b as u16), ue_pose, &ue_cb, rx_beam, &paths)
                .unwrap();
            prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
        }
    }

    #[test]
    fn precomputed_path_loss_matches_close_in(
        ghz in 20.0f64..80.0, los_n in 1.6f64..4.0, nlos_n in 1.6f64..4.0,
        ux in -150.0f64..150.0, uy in -12.0f64..12.0,
    ) {
        // No shadowing, fading or blockage: each gain is its path loss
        // plus the ray's excess loss, negated. The kernel multiplies
        // linear factors, so it agrees with the dB model to rounding.
        let carrier = Carrier { frequency_hz: ghz * 1e9 };
        let cfg = ChannelConfig {
            carrier,
            los_exponent: los_n,
            nlos_exponent: nlos_n,
            ..ChannelConfig::deterministic()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut ch = LinkChannel::new(&mut rng, cfg);
        let mut set = PathSet::new();
        let env = Environment::street_canyon(800.0, 30.0);
        ch.trace_into(&mut rng, &env, Vec2::new(0.0, 12.0), Vec2::new(ux, uy), &mut set);
        prop_assert_eq!(set.len(), 3);
        for (ray, sample) in set.rays().iter().zip(set.samples()) {
            let exponent = if ray.is_los { los_n } else { nlos_n };
            let pl = CloseIn { carrier, exponent }.loss(ray.length_m);
            let want = -(pl - Db::from_linear(ray.excess));
            prop_assert!((sample.gain() - want).0.abs() < 1e-9, "{} vs {}", sample.gain(), want);
        }
    }

    #[test]
    fn reflected_ray_longer_than_los(
        txx in -40.0f64..-5.0, rxx in 5.0f64..40.0,
        txy in -8.0f64..8.0, rxy in -8.0f64..8.0,
    ) {
        let env = st_phy::Environment::street_canyon(120.0, 20.0);
        let tx = Vec2::new(txx, txy);
        let rx = Vec2::new(rxx, rxy);
        let rays = env.trace(tx, rx);
        let los_len = tx.distance(rx);
        for r in rays.iter().filter(|r| !r.is_los) {
            prop_assert!(r.length_m >= los_len - 1e-9);
        }
    }
}
