//! Fleet smoke: the multi-UE engine's determinism and scale contracts.
//!
//! * The aggregate summary must be byte-identical across worker counts
//!   for the same (config, seed) — sharding is a config property, worker
//!   threads are not.
//! * Handovers keep working after the first: a long run re-anchors
//!   without livelock, and reactive UEs re-establish after RLF.
//! * A 1,000-UE / 4-cell fleet completes under the DES event budget (the
//!   scale point of the ISSUE's acceptance criteria; `#[ignore]`d by
//!   default because it is sized for release builds — CI exercises the
//!   release path through the `fleet_load --smoke` byte-compare step).

use silent_tracker_repro::st_fleet::{
    run_fleet_with_workers, Deployment, FleetConfig, MobilityKind,
};
use silent_tracker_repro::st_net::ProtocolKind;

fn smoke_fleet(seed: u64) -> FleetConfig {
    Deployment::new()
        .street(200.0, 30.0)
        .cell_row(4, 40.0)
        .tx_beams(8)
        .prach_preambles(4)
        .spawn_region((-25.0, 15.0), (-3.0, 3.0))
        .population(20, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .population(8, MobilityKind::Vehicular, ProtocolKind::Reactive)
        .duration_secs(0.8)
        .seed(seed)
        .shards(4)
        .build()
        .unwrap()
}

#[test]
fn summary_is_byte_identical_across_worker_counts() {
    let cfg = smoke_fleet(7);
    let one = run_fleet_with_workers(&cfg, 1);
    // Contention ran: the shared stage resolved preambles.
    let stage = one.stage.expect("stage report");
    assert!(stage.counters.resolved_preambles > 0, "{}", one.summary());
    let one = one.summary();
    let two = run_fleet_with_workers(&cfg, 2).summary();
    let many = run_fleet_with_workers(&cfg, 8).summary();
    assert_eq!(one, two);
    assert_eq!(one, many);
    // And the run did something: UEs handed over.
    assert!(one.contains("ues=28"), "{one}");
}

/// Guard against protocol livelock after a handover: the fleet keeps
/// running re-anchored protocols after each completion, and a 10 s run
/// must hand over and still stay well inside a tight event budget.
#[test]
fn longer_runs_do_not_regress() {
    let cfg = Deployment::new()
        .street(200.0, 30.0)
        .population(2, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .duration_secs(10.0)
        .seed(1)
        .event_budget(100_000)
        .build()
        .unwrap();
    let out = run_fleet_with_workers(&cfg, 1);
    assert!(out.totals.handovers >= 1, "{}", out.summary());
    assert_eq!(out.totals.budget_exhausted_shards, 0, "{}", out.summary());
}

/// After RLF the reactive arm may re-establish on any cell, the old
/// serving cell included. On a one-cell street that is the only way
/// back: the rotating UEs (which drop the link when they turn away) must
/// keep coming back instead of staying disconnected to the end of the
/// run, and every handover lands on cell 0. (Seed 1 reads rlfs=59
/// handovers=48; dropping directives towards the serving cell would
/// leave all 16 UEs disconnected after their first RLF: rlfs=16
/// handovers=0.)
#[test]
fn reactive_ues_reestablish_on_their_old_serving_cell() {
    let cfg = Deployment::new()
        .street(300.0, 30.0)
        .cell_at(0.0, 10.0)
        .tx_beams(8)
        .population(16, MobilityKind::Rotation, ProtocolKind::Reactive)
        .duration_secs(4.0)
        .seed(1)
        .build()
        .unwrap();
    let out = run_fleet_with_workers(&cfg, 1);
    let t = &out.totals;
    assert!(t.rach_attempts > 0, "{}", out.summary());
    assert!(t.handovers > 0, "{}", out.summary());
    assert_eq!(t.per_cell[0].handovers_in, t.handovers);
    assert_eq!(out.hard_stats().map_or(0, |s| s.n), t.handovers);
}

#[test]
fn fleet_seeds_reach_the_stochastic_components() {
    let a = run_fleet_with_workers(&smoke_fleet(7), 2).summary();
    let b = run_fleet_with_workers(&smoke_fleet(8), 2).summary();
    assert_ne!(a, b, "different fleet seeds produced identical aggregates");
}

/// The ISSUE acceptance scale point. Sized for `--release`
/// (`cargo test --release -- --ignored fleet`), ~2 s wall there.
#[test]
#[ignore = "release-scale: 1,000 UEs; run with --release -- --ignored"]
fn thousand_ue_fleet_completes_under_event_budget() {
    let cfg = Deployment::new()
        .street(400.0, 30.0)
        .cell_row(4, 100.0)
        .tx_beams(8)
        .population(800, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .population(200, MobilityKind::Vehicular, ProtocolKind::SilentTracker)
        .duration_secs(2.0)
        .seed(42)
        .shards(4)
        .build()
        .unwrap();
    assert_eq!(cfg.n_ues(), 1000);
    let out = run_fleet_with_workers(&cfg, 8);
    // Under budget: no shard's executive tripped the runaway guard (the
    // budget is a *per-shard* limit, so per-shard stop reasons are the
    // contract — not the cross-shard event sum).
    assert_eq!(
        out.totals.budget_exhausted_shards,
        0,
        "a shard exhausted its event budget: {}",
        out.summary()
    );
    // The fleet actually exercised the contended MAC.
    assert!(out.totals.handovers > 50, "{}", out.summary());
    // Interruption quantiles flow through the streaming sketch (the
    // constant-memory contract of the telemetry layer).
    let soft = out.soft_stats().expect("soft interruptions recorded");
    assert!(soft.n > 0);
    // Worker-count invariance holds at scale too.
    let again = run_fleet_with_workers(&cfg, 3);
    assert_eq!(out.summary(), again.summary());
}
