//! Pins the fleet end to end, in two parts per deployment, each run at
//! one worker. The other fleet tests compare worker and shard counts with
//! each other, so a change that moved one fade in every run would still
//! pass them; these fail.
//!
//! * The summary + causes pin covers what a fleet reports: aggregate
//!   summary and causes JSON. A change that keeps every RSS decision
//!   (say, a kernel exact in arithmetic that moves RSS values by 1e-12
//!   dB) leaves it in place.
//! * The trace-bytes pin covers the recorded protocol trace, which holds
//!   the bits of every RSS sample the protocol consumed. The summary and
//!   causes alone are too coarse for a realization change (a 0.1% change
//!   of the fading coherence time leaves both unchanged on these runs);
//!   this pin moves with it, and with any change to an RSS bit or to the
//!   trace format.
//!
//! Recording is an observer: the summary is the same with it on or off.

use std::sync::OnceLock;

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

/// FNV-1a digests of the summary + causes JSON and of the encoded
/// trace of each run, in config order. A change that moves the first
/// changes what a fleet computes, so every fleet artifact must be
/// re-baselined with it.
struct Digests {
    summary: u64,
    trace: u64,
}

fn digests(configs: impl IntoIterator<Item = FleetConfig>) -> Digests {
    let (mut summary, mut trace) = (Fnv64::new(), Fnv64::new());
    for cfg in configs {
        let mut out = run_fleet_with_workers(&cfg, 1);
        summary.write(out.summary().as_bytes());
        summary.write(out.causes_json().as_bytes());
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
        trace.write(&FleetTrace { runs: vec![run] }.to_bytes());
    }
    Digests {
        summary: summary.finish(),
        trace: trace.finish(),
    }
}

/// Each deployment runs once per test binary; its summary and trace pins
/// are separate tests.
fn smoke() -> &'static Digests {
    static D: OnceLock<Digests> = OnceLock::new();
    D.get_or_init(|| digests([smoke_config(true, None)]))
}

fn streets() -> &'static Digests {
    static D: OnceLock<Digests> = OnceLock::new();
    D.get_or_init(|| digests((0..3).map(street)))
}

#[test]
fn smoke_fleet_matches_the_pinned_digest() {
    let d = smoke().summary;
    assert_eq!(
        d, 0x10ab_2f34_b31c_a099,
        "summary + causes digest {d:#018x}"
    );
}

#[test]
fn street_fleet_matches_the_pinned_digest() {
    let d = streets().summary;
    assert_eq!(
        d, 0x0300_6973_9fa5_fa94,
        "summary + causes digest {d:#018x}"
    );
}

#[test]
fn smoke_fleet_trace_matches_the_pinned_digest() {
    let d = smoke().trace;
    assert_eq!(d, 0x4560_b2eb_a2f3_3c54, "trace digest {d:#018x}");
}

#[test]
fn street_fleet_trace_matches_the_pinned_digest() {
    let d = streets().trace;
    assert_eq!(d, 0x4319_9ac7_2970_9dfc, "trace digest {d:#018x}");
}
