//! End-to-end trace record/replay contracts on the smoke fleet.
//!
//! * Recording is an observer: the aggregate summary is byte-identical
//!   with recording on or off.
//! * The recorded trace itself is byte-identical across worker counts —
//!   the trace is a property of (config, seed), not of thread scheduling.
//! * Replaying the trace under the recorded config reproduces every UE's
//!   action stream and final protocol state byte for byte, with no
//!   physical layer or event executive in the loop.
//! * Warm-start re-anchoring (`TrackerConfig.warm_start_handover`) is
//!   opt-in: default-off fleets record no warm seeds; armed fleets
//!   record seeds that replay re-applies and still verify.

use silent_tracker_repro::st_fleet::{
    run_fleet_with_workers, Deployment, FleetConfig, MobilityKind,
};
use silent_tracker_repro::st_net::{replay_run, FleetTrace, ProtocolKind, RunTrace};

fn smoke_fleet(seed: u64, record: bool, warm: bool) -> FleetConfig {
    let mut cfg = Deployment::new()
        .street(200.0, 30.0)
        .cell_row(2, 80.0)
        .tx_beams(8)
        .prach_preambles(4)
        .spawn_region((-25.0, 15.0), (-3.0, 3.0))
        .population(20, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .population(8, MobilityKind::Vehicular, ProtocolKind::Reactive)
        .duration_secs(0.8)
        .seed(seed)
        .shards(2)
        .record_traces(record)
        .build()
        .unwrap();
    cfg.base.tracker.warm_start_handover = warm;
    cfg
}

fn recorded_run(cfg: &FleetConfig, workers: usize) -> (String, RunTrace) {
    let mut out = run_fleet_with_workers(cfg, workers);
    let summary = out.summary();
    let run = RunTrace {
        label: "smoke".into(),
        seed: cfg.base.seed,
        duration: cfg.base.duration,
        live_wall_s: 0.0,
        tracker: cfg.base.tracker,
        codebook: cfg.base.ue_codebook,
        ues: std::mem::take(&mut out.totals.ue_traces),
    };
    (summary, run)
}

#[test]
fn recording_does_not_perturb_the_run() {
    let live = run_fleet_with_workers(&smoke_fleet(7, false, false), 2).summary();
    let (recorded, run) = recorded_run(&smoke_fleet(7, true, false), 2);
    assert_eq!(live, recorded, "recording changed the simulation");
    assert_eq!(run.ues.len(), 28, "one trace per UE");
    assert!(run.n_events() > 0);
}

#[test]
fn trace_is_byte_identical_across_worker_counts() {
    let cfg = smoke_fleet(7, true, false);
    let (_, one) = recorded_run(&cfg, 1);
    let (_, four) = recorded_run(&cfg, 4);
    let bytes_one = FleetTrace { runs: vec![one] }.to_bytes();
    let bytes_four = FleetTrace { runs: vec![four] }.to_bytes();
    assert_eq!(bytes_one, bytes_four, "trace depends on worker count");
}

#[test]
fn replay_equals_live_byte_for_byte() {
    let (_, run) = recorded_run(&smoke_fleet(7, true, false), 4);
    // Round-trip through the on-disk format first: what replay_eval
    // consumes is the decoded file, not the in-memory recording.
    let trace = FleetTrace { runs: vec![run] };
    let decoded = FleetTrace::from_bytes(&trace.to_bytes()).unwrap();
    for workers in [1, 4] {
        let rep = replay_run(&decoded.runs[0], workers);
        assert_eq!(
            rep.mismatches,
            Vec::<String>::new(),
            "replay diverged from live at {workers} workers"
        );
        assert_eq!(rep.ues, 28);
        assert!(rep.events > 0 && rep.actions > 0);
    }
    // The combined digest is itself worker-invariant.
    assert_eq!(
        replay_run(&decoded.runs[0], 1).combined_digest,
        replay_run(&decoded.runs[0], 4).combined_digest
    );
}

#[test]
fn warm_start_is_opt_in_and_replays_verified() {
    // Default: no segment carries a warm seed.
    let (_, cold) = recorded_run(&smoke_fleet(7, true, false), 2);
    assert!(
        cold.ues
            .iter()
            .flat_map(|u| &u.segments)
            .all(|s| s.warm.is_none()),
        "warm seeds recorded with warm_start_handover off"
    );

    // Armed: handed-over Silent UEs re-anchor warm, and the recorded
    // seeds replay byte-identically.
    let (_, warm) = recorded_run(&smoke_fleet(7, true, true), 2);
    let warm_segments = warm
        .ues
        .iter()
        .flat_map(|u| &u.segments)
        .filter(|s| s.warm.is_some())
        .count();
    assert!(
        warm_segments > 0,
        "no warm-start segments in an armed fleet that handed over"
    );
    let rep = replay_run(&warm, 2);
    assert_eq!(rep.mismatches, Vec::<String>::new());
}
