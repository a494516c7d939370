//! Measurement-pipeline microbench: beam-evaluations/sec through the
//! batched `rss_sweep_tx` path versus the legacy per-beam loop (re-trace
//! plus fresh `Vec` per probe — what every SSB sweep used to cost).
//! Usage: `sweep [--smoke]`
//!
//! One beam-evaluation = one (transmit beam, instant) RSS figure at the
//! mobile. Both paths produce bit-identical values (asserted here);
//! the ratio is the single-trace-many-beams win.
//!
//! It then times the three per-sample phy kernels one call at a time on a
//! street link (the fleet street's 8-beam BS codebook, a 3-ray canyon
//! link), in ns per call: `LinkChannel::step` (the OU and blockage
//! draws), `LinkChannel::trace_into` (one `atan2` and one `sqrt` per ray,
//! linear path powers: one `exp` for the shadowing and a `powf` per ray
//! whose exponent is not 2) and `rss_sweep_tx` (linear beam gains, an
//! `exp` per main-lobe ray–beam pair, one `log10` per beam at the end).

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_phy::channel::{ChannelConfig, Environment, LinkChannel, PathSet};
use st_phy::codebook::{BeamId, BeamwidthClass, Codebook};
use st_phy::geometry::{Degrees, Pose, Radians, Vec2};
use st_phy::link::{rss, rss_sweep_tx};
use st_phy::units::Dbm;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let instants: u64 = if smoke { 2_000 } else { 50_000 };

    let env = Environment::street_canyon(400.0, 30.0);
    let bs_codebook = Codebook::uniform_sectored(16, Degrees(30.0));
    let ue_codebook = Codebook::for_class(BeamwidthClass::Narrow);
    let bs_pose = Pose::new(Vec2::new(0.0, 10.0), Radians(0.0));
    let tx_power = Dbm(10.0);
    let rx_beam = BeamId(4);
    let n_beams = bs_codebook.len();

    let mut rng = StdRng::seed_from_u64(1);
    let mut ch = LinkChannel::new(&mut rng, ChannelConfig::outdoor_60ghz());

    // Batched path: one trace into a reused PathSet, one pass over rays.
    let mut set = PathSet::new();
    let mut out = vec![Dbm(0.0); n_beams];
    let mut ch_a = ch.clone();
    let mut rng_a = rng.clone();
    let start = Instant::now();
    for k in 0..instants {
        let ue = Pose::new(Vec2::new(-50.0 + 0.001 * k as f64, 0.0), Radians(0.1));
        ch_a.step(&mut rng_a, 0.005);
        ch_a.trace_into(&mut rng_a, &env, bs_pose.position, ue.position, &mut set);
        rss_sweep_tx(
            tx_power,
            bs_pose,
            &bs_codebook,
            ue,
            &ue_codebook,
            rx_beam,
            set.samples(),
            &mut out,
        );
    }
    let batched_s = start.elapsed().as_secs_f64();
    let batched_evals = instants * n_beams as u64;

    // Legacy path: per-beam trace + collect + rss (the pre-refactor cost).
    let start = Instant::now();
    let mut check = Dbm(0.0);
    for k in 0..instants {
        let ue = Pose::new(Vec2::new(-50.0 + 0.001 * k as f64, 0.0), Radians(0.1));
        ch.step(&mut rng, 0.005);
        for b in 0..n_beams {
            let paths = ch.paths(&mut rng, &env, bs_pose.position, ue.position);
            check = rss(
                tx_power,
                bs_pose,
                &bs_codebook,
                BeamId(b as u16),
                ue,
                &ue_codebook,
                rx_beam,
                &paths,
            )
            .expect("LOS always exists");
        }
    }
    let legacy_s = start.elapsed().as_secs_f64();

    // Both arms consumed identical RNG streams, so the last beam's value
    // must agree bit-for-bit with the batched result.
    assert_eq!(check, out[n_beams - 1], "sweep diverged from per-beam rss");

    println!("== sweep (beam-evaluations/sec, {n_beams}-beam codebook) ==");
    println!(
        " batched: {:>12.0} evals/sec  ({batched_evals} evals in {batched_s:.3}s)",
        batched_evals as f64 / batched_s
    );
    println!(
        "  legacy: {:>12.0} evals/sec  ({batched_evals} evals in {legacy_s:.3}s)",
        batched_evals as f64 / legacy_s
    );
    println!("speedup: {:.2}x", legacy_s / batched_s);

    // The fleet street's BS codebook: 8 beams of 45° azimuth. Three rays
    // (LOS and one reflection off each canyon wall), so a channel step
    // advances shadowing, blockage and six fading I/Q processes.
    let street_codebook = Codebook::uniform_sectored(8, Degrees(30.0));
    let mut out_street = vec![Dbm(0.0); street_codebook.len()];
    let mut link = LinkChannel::new(&mut rng, ChannelConfig::outdoor_60ghz());
    let ue_at = |k: u64| {
        Pose::new(
            Vec2::new(-50.0 + 0.001 * (k % 1000) as f64, 0.0),
            Radians(0.1),
        )
    };
    link.trace_into(
        &mut rng,
        &env,
        bs_pose.position,
        ue_at(0).position,
        &mut set,
    );
    assert_eq!(set.len(), 3, "street link must have three rays");
    let calls = instants * 4;
    let step_ns = ns_per_call(calls, |_| link.step(&mut rng, black_box(0.005)));
    let trace_ns = ns_per_call(calls, |k| {
        link.trace_into(
            &mut rng,
            &env,
            bs_pose.position,
            ue_at(k).position,
            &mut set,
        );
    });
    let sweep_ns = ns_per_call(calls, |k| {
        rss_sweep_tx(
            tx_power,
            bs_pose,
            &street_codebook,
            ue_at(k),
            &ue_codebook,
            rx_beam,
            set.samples(),
            &mut out_street,
        );
    });
    let ue_last = ue_at(calls - 1);
    for (b, &got) in out_street.iter().enumerate() {
        let want = rss(
            tx_power,
            bs_pose,
            &street_codebook,
            BeamId(b as u16),
            ue_last,
            &ue_codebook,
            rx_beam,
            set.samples(),
        );
        assert_eq!(Some(got), want, "street sweep diverged from per-beam rss");
    }

    println!("== per-call phy kernels (3-ray street link, 8-beam 45° BS codebook) ==");
    println!("  LinkChannel::step (dt 5 ms): {step_ns:>8.1} ns/call");
    println!("  LinkChannel::trace_into:     {trace_ns:>8.1} ns/call");
    println!("  rss_sweep_tx (8 beams):      {sweep_ns:>8.1} ns/call");
}

/// Mean wall-clock nanoseconds of `f(k)` over `calls` calls, `k = 0..calls`.
fn ns_per_call(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for k in 0..calls {
        f(black_box(k));
    }
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}
