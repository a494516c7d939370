//! End-to-end contracts of the dynamic-environment subsystem (`st_env`):
//!
//! * a fleet sharing one field of ≥ 50 moving blockers produces
//!   byte-identical aggregates regardless of worker count (the ISSUE 4
//!   acceptance scale point, shrunk to debug-build size);
//! * geometric blockage is *correlated* across UEs and actually bites —
//!   the blocked fleet completes no more handovers-without-drama than the
//!   clear one and its interruption profile differs;
//! * opting out keeps the config untouched (no dynamics, stochastic
//!   blockage still armed).

use silent_tracker_repro::st_env::BlockerPopulation;
use silent_tracker_repro::st_fleet::{
    run_fleet_with_workers, Deployment, FleetConfig, MobilityKind,
};
use silent_tracker_repro::st_net::ProtocolKind;

fn blocked_fleet_seeds(seed: u64, blocker_seed: u64, blockers: u32) -> FleetConfig {
    Deployment::new()
        .street(200.0, 30.0)
        .cell_row(2, 80.0)
        .tx_beams(8)
        .prach_preambles(4)
        .spawn_region((-25.0, 15.0), (-3.0, 3.0))
        .population(10, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .population(4, MobilityKind::Vehicular, ProtocolKind::Reactive)
        .blockers(
            BlockerPopulation::new(blocker_seed)
                .crowd(blockers.saturating_sub(6))
                .vehicles(4)
                .buses(2),
        )
        .duration_secs(0.8)
        .seed(seed)
        .shards(2)
        .build()
        .unwrap()
}

fn blocked_fleet(seed: u64, blockers: u32) -> FleetConfig {
    blocked_fleet_seeds(seed, seed, blockers)
}

#[test]
fn occluded_fleet_is_byte_identical_across_worker_counts() {
    let cfg = blocked_fleet(13, 56);
    assert_eq!(
        cfg.base
            .dynamics
            .as_ref()
            .expect("blockers opt-in builds dynamics")
            .blocker_count(),
        56
    );
    // Geometric blockage replaces the stochastic duty cycle.
    assert_eq!(cfg.base.channel.blockage_rate_hz, 0.0);
    let one = run_fleet_with_workers(&cfg, 1).summary();
    let two = run_fleet_with_workers(&cfg, 2).summary();
    let many = run_fleet_with_workers(&cfg, 8).summary();
    assert_eq!(one, two);
    assert_eq!(one, many);
    assert!(one.contains("ues=14"), "{one}");
}

#[test]
fn blocker_field_changes_outcomes_but_not_the_clear_baseline() {
    // The same deployment without blockers: config carries no dynamics
    // and keeps the stochastic blockage defaults — the opt-out contract.
    let clear = Deployment::new()
        .street(200.0, 30.0)
        .cell_row(2, 80.0)
        .tx_beams(8)
        .prach_preambles(4)
        .spawn_region((-25.0, 15.0), (-3.0, 3.0))
        .population(10, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .population(4, MobilityKind::Vehicular, ProtocolKind::Reactive)
        .duration_secs(0.8)
        .seed(13)
        .shards(2)
        .build()
        .unwrap();
    assert!(clear.base.dynamics.is_none());
    assert!(clear.base.channel.blockage_rate_hz > 0.0);

    let clear_out = run_fleet_with_workers(&clear, 4).summary();
    let blocked_out = run_fleet_with_workers(&blocked_fleet(13, 56), 4).summary();
    // A 56-obstacle street is a different radio world: the aggregates
    // must diverge (if they do not, the occlusion pass never ran).
    assert_ne!(clear_out, blocked_out);
}

#[test]
fn blocker_trajectories_alone_change_outcomes() {
    // Identical fleet seed (identical UEs, channels, RACH draws) — only
    // the blocker trajectories differ. Divergence here can come from one
    // place only: the occlusion pass in the measurement hot path.
    let a = run_fleet_with_workers(&blocked_fleet_seeds(21, 100, 50), 4).summary();
    let b = run_fleet_with_workers(&blocked_fleet_seeds(21, 101, 50), 4).summary();
    assert_ne!(a, b);
}
