//! Pins the fleet end to end: one digest over the aggregate summary, the
//! causes JSON and the recorded protocol trace of two deployments run at
//! one worker. The other fleet tests compare worker and shard counts with
//! each other, so a change that moved one fade in every run would still
//! pass them; this one fails. The summary and causes alone are too coarse
//! for that (a 0.1% change of the fading coherence time leaves both
//! unchanged on these runs), so the digest also covers the trace, which
//! holds the bits of every RSS sample the protocol consumed. Recording is
//! an observer: the summary is the same with it on or off.

use silent_tracker_repro::silent_tracker::wire::Fnv64;
use silent_tracker_repro::st_bench::fleet_load::smoke_config;
use silent_tracker_repro::st_fleet::{
    run_fleet_with_workers, Deployment, FleetConfig, MobilityKind,
};
use silent_tracker_repro::st_net::{FleetTrace, ProtocolKind, RunTrace};

/// The benchmark's street op: 200 UEs × 0.4 s on an 800 m street with
/// eight cells at 100 m pitch, four tile shards, a 150 m interest radius
/// and four PRACH preambles; 85% Silent Tracker and 15% reactive, each
/// arm 80% walkers and 20% vehicles.
fn street(seed: u64) -> FleetConfig {
    let (ues, reactive) = (200, 30);
    let silent = ues - reactive;
    let walkers = |n: u32| n * 4 / 5;
    Deployment::new()
        .street(800.0, 30.0)
        .cell_row(8, 100.0)
        .tx_beams(8)
        .prach_preambles(4)
        .population(
            walkers(silent),
            MobilityKind::Walk,
            ProtocolKind::SilentTracker,
        )
        .population(
            silent - walkers(silent),
            MobilityKind::Vehicular,
            ProtocolKind::SilentTracker,
        )
        .population(
            walkers(reactive),
            MobilityKind::Walk,
            ProtocolKind::Reactive,
        )
        .population(
            reactive - walkers(reactive),
            MobilityKind::Vehicular,
            ProtocolKind::Reactive,
        )
        .duration_secs(0.4)
        .seed(seed)
        .shards(4)
        .interest_radius(150.0)
        .record_traces(true)
        .build()
        .expect("valid street deployment")
}

/// A change that moves a pinned digest changes what a fleet computes, so
/// every fleet artifact must be re-baselined with it.
fn digest(configs: impl IntoIterator<Item = FleetConfig>) -> u64 {
    let mut h = Fnv64::new();
    for cfg in configs {
        let mut out = run_fleet_with_workers(&cfg, 1);
        h.write(out.summary().as_bytes());
        h.write(out.causes_json().as_bytes());
        let run = RunTrace {
            label: String::new(),
            seed: cfg.base.seed,
            duration: cfg.base.duration,
            live_wall_s: 0.0,
            tracker: cfg.base.tracker,
            codebook: cfg.base.ue_codebook,
            ues: std::mem::take(&mut out.totals.ue_traces),
        };
        assert!(run.n_events() > 0, "recording is armed");
        h.write(&FleetTrace { runs: vec![run] }.to_bytes());
    }
    h.finish()
}

#[test]
fn smoke_fleet_matches_the_pinned_digest() {
    let d = digest([smoke_config(true, None)]);
    assert_eq!(d, 0x201b_cbf3_2b3f_7256, "digest {d:#018x}");
}

#[test]
fn street_fleet_matches_the_pinned_digest() {
    let d = digest((0..3).map(street));
    assert_eq!(d, 0xda7d_b6f1_b09d_f3a1, "digest {d:#018x}");
}
