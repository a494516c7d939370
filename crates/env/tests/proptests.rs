//! Property-based tests for the occlusion geometry invariants the
//! dynamic-environment subsystem is built on:
//!
//! * a blocker segment crossing the direct ray strictly reduces that
//!   ray's RSS;
//! * a blocker clear of every ray changes *nothing* — the occluded
//!   `PathSet` is bit-identical to the clear one;
//! * occlusion is a pure function of time (same instant, same losses),
//!   which is what makes occluded fleet sweeps deterministic across
//!   shard and worker counts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng as _;
use st_env::{Blocker, DynamicEnvironment, OcclusionScratch, Orientation};
use st_mobility::{Stationary, Vehicular};
use st_phy::channel::{ChannelConfig, Environment, LinkChannel, PathSet};
use st_phy::geometry::{Radians, Vec2};
use st_phy::units::Carrier;

/// A pedestrian standing at `(x, y)`, torso broadside across the street
/// axis (the worst case for an x-aligned ray).
fn standing(x: f64, y: f64) -> Blocker {
    Blocker::pedestrian(Box::new(Stationary::at(Vec2::new(x, y), Radians(0.0))))
        .with_orientation(Orientation::Fixed(Radians(std::f64::consts::FRAC_PI_2)))
}

fn dynamics(blockers: Vec<Blocker>) -> DynamicEnvironment {
    DynamicEnvironment::new(
        Environment::street_canyon(200.0, 30.0),
        blockers,
        Carrier::MM_WAVE_60GHZ,
        4.0,
    )
}

/// Trace tx→rx through the canyon, occlude at `t_s`, return (clear,
/// occluded) sample sets.
fn trace_pair(
    env: &DynamicEnvironment,
    seed: u64,
    tx: Vec2,
    rx: Vec2,
    t_s: f64,
) -> (Vec<st_phy::PathSample>, PathSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ch = LinkChannel::new(&mut rng, ChannelConfig::outdoor_60ghz());
    let mut set = PathSet::new();
    ch.trace_into(&mut rng, env.statics(), tx, rx, &mut set);
    let clear = set.samples().to_vec();
    let mut scratch = OcclusionScratch::new();
    env.occlude(t_s, tx, rx, &mut set, &mut scratch);
    (clear, set)
}

proptest! {
    /// A pedestrian planted anywhere strictly between the endpoints of an
    /// x-aligned direct ray cuts it: the LOS sample strictly loses gain.
    #[test]
    fn crossing_blocker_strictly_reduces_the_direct_ray(
        seed in 0u64..64,
        frac in 0.1f64..0.9,
        tx_x in -80.0f64..-20.0,
        rx_x in 20.0f64..80.0,
        y in -8.0f64..8.0,
    ) {
        let tx = Vec2::new(tx_x, y);
        let rx = Vec2::new(rx_x, y);
        let on_path = tx.lerp(rx, frac);
        let env = dynamics(vec![standing(on_path.x, on_path.y)]);
        let (clear, occluded) = trace_pair(&env, seed, tx, rx, 1.0);
        let los = occluded.samples().iter().zip(&clear).find(|(s, _)| s.is_los).unwrap();
        prop_assert!(
            los.0.power < los.1.power,
            "LOS not reduced: {} vs {}", los.0.gain(), los.1.gain()
        );
        // At least the grazing knife-edge loss, at most the through cap.
        let drop = los.1.gain().0 - los.0.gain().0;
        prop_assert!((6.0..=31.0 + 1e-9).contains(&drop), "drop {drop}");
    }

    /// A blocker that never touches any ray leg leaves every sample
    /// bit-identical (not merely close).
    #[test]
    fn clear_blocker_is_bit_identical(
        seed in 0u64..64,
        tx_x in -60.0f64..-20.0,
        rx_x in 20.0f64..60.0,
        off_x in 0.0f64..40.0,
    ) {
        let tx = Vec2::new(tx_x, 2.0);
        let rx = Vec2::new(rx_x, -2.0);
        // Far beyond the far endpoint along +x: outside the hull of every
        // leg (direct and reflected), so no leg can cross it.
        let env = dynamics(vec![standing(rx_x + 5.0 + off_x, 0.0)]);
        let (clear, occluded) = trace_pair(&env, seed, tx, rx, 1.0);
        prop_assert_eq!(clear.len(), occluded.samples().len());
        for (a, b) in clear.iter().zip(occluded.samples()) {
            prop_assert_eq!(a.power, b.power);
            prop_assert_eq!(a.aod, b.aod);
            prop_assert_eq!(a.aoa, b.aoa);
        }
    }

    /// Occlusion is a pure function of (time, geometry): evaluating the
    /// same instant repeatedly, in any order, yields bit-identical losses
    /// — the per-link property underlying worker-count invariance.
    #[test]
    fn occlusion_is_pure_in_time(
        seed in 0u64..32,
        t1 in 0.0f64..3.0,
        t2 in 0.0f64..3.0,
    ) {
        let bus = Blocker::bus(Box::new(Vehicular::paper_vehicular(
            Vec2::new(-30.0, 5.0),
            Radians(0.0),
        )));
        let env = dynamics(vec![bus]);
        let tx = Vec2::new(-40.0, 10.0);
        let rx = Vec2::new(10.0, -1.0);
        let (_, a1) = trace_pair(&env, seed, tx, rx, t1);
        let (_, b1) = trace_pair(&env, seed, tx, rx, t2);
        // Re-evaluate in the opposite order.
        let (_, b2) = trace_pair(&env, seed, tx, rx, t2);
        let (_, a2) = trace_pair(&env, seed, tx, rx, t1);
        for (x, y) in a1.samples().iter().zip(a2.samples()) {
            prop_assert_eq!(x.power, y.power);
        }
        for (x, y) in b1.samples().iter().zip(b2.samples()) {
            prop_assert_eq!(x.power, y.power);
        }
    }
}
