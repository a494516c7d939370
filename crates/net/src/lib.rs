//! # st-net — event-driven mm-wave network scenarios
//!
//! The top of the substrate stack: base stations sweeping SSB beams,
//! mobiles running a protocol from the `silent-tracker` crate, a radio in
//! between built from `st-phy` channels, all driven by the `st-des`
//! executive.
//!
//! * [`config`] — scenario description (cells, radio, faults, protocol
//!   arm) with validation.
//! * [`radio`] — radio plumbing: static cell [`radio::Sites`] and a
//!   per-UE [`radio::LinkSet`] of stochastic channels.
//! * [`proto`] — the protocol under test behind one dispatch path over
//!   the pure `step_mut` fold (and the attachment point for trace
//!   recording).
//! * [`driver`] — the one UE driver: every per-UE handler, translating
//!   between physics and the sans-IO protocol, with an [`Observer`] hook
//!   for whatever the running loop records. The single trial and the
//!   `st_fleet` engine are two loops over it.
//! * [`stage`] — the base stations' side of random access: a
//!   deterministic RACH resolution stage fed by the drivers' outboxes.
//! * [`scenario`] — the single trial: a one-UE run of the driver that
//!   halts at the first completed handover.
//! * [`scenarios`] — the paper's three mobility cases (walk, rotation,
//!   vehicular) pre-wired.
//! * [`outcome`] — per-run results the benches aggregate into the
//!   paper's figures.
//! * [`trace`] — end-to-end protocol trace recording: per-UE event
//!   streams, action digests and final-state snapshots in a compact
//!   binary format.
//! * [`replay`] — refold recorded traces without `st_phy`/`st_des`;
//!   byte-identical to live for the recorded config.

pub mod config;
pub mod driver;
pub mod outcome;
pub mod proto;
pub mod radio;
pub mod replay;
pub mod scenario;
pub mod scenarios;
pub mod stage;
pub mod trace;

pub use config::{CellConfig, FaultConfig, ProtocolKind, ScenarioConfig};
pub use driver::{Driver, Observer};
pub use outcome::{RunOutcome, SearchPass};
pub use proto::Proto;
pub use radio::{LinkSet, LinkStats, Sites};
pub use replay::{replay_run, replay_run_timed, replay_run_with_config, ReplayReport};
pub use scenario::Scenario;
pub use stage::{RachAttemptMsg, RachReply, RachReq, SharedRachStage, StageCounters};
pub use trace::{FleetTrace, RunTrace, SegmentTrace, UeRecorder, UeTrace};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{device_rotation, eval_config, human_walk, vehicular};

    #[test]
    fn walk_scenario_completes_soft_handover() {
        let cfg = eval_config(ProtocolKind::SilentTracker);
        let out = human_walk(&cfg, 42).run();
        assert!(out.acquired_at.is_some(), "neighbor never acquired");
        assert!(out.handover_succeeded(), "handover did not complete");
        assert!(
            out.tracker_stats.unwrap().searches_succeeded >= 1,
            "{:?}",
            out.tracker_stats
        );
        // Make-before-break: interruption is a few tens of ms, not the
        // hundreds a hard handover pays.
        let intr = out.interruption.expect("interruption recorded");
        assert!(
            intr.as_millis_f64() < 200.0,
            "interruption {intr} too long for soft handover"
        );
    }

    #[test]
    fn rotation_scenario_completes() {
        let cfg = eval_config(ProtocolKind::SilentTracker);
        let out = device_rotation(&cfg, 3).run();
        assert!(out.handover_succeeded(), "rotation handover failed");
        // Rotation at 120°/s forces silent beam switches while tracking.
        let st = out.tracker_stats.unwrap();
        assert!(st.nrba_switches > 0, "no N-RBA switches under rotation");
    }

    #[test]
    fn vehicular_scenario_completes() {
        let cfg = eval_config(ProtocolKind::SilentTracker);
        let out = vehicular(&cfg, 3).run();
        assert!(out.handover_succeeded(), "vehicular handover failed");
    }

    #[test]
    fn same_seed_same_outcome() {
        let cfg = eval_config(ProtocolKind::SilentTracker);
        let a = human_walk(&cfg, 11).run();
        let b = human_walk(&cfg, 11).run();
        assert_eq!(a.handover_complete_at, b.handover_complete_at);
        assert_eq!(a.acquired_at, b.acquired_at);
        assert_eq!(a.search_passes, b.search_passes);
        assert_eq!(a.rach_attempts, b.rach_attempts);
        assert_eq!(a.tracker_stats, b.tracker_stats);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = eval_config(ProtocolKind::SilentTracker);
        let a = human_walk(&cfg, 1).run();
        let b = human_walk(&cfg, 2).run();
        // Completion times are continuous-valued; collision means a bug.
        assert_ne!(a.handover_complete_at, b.handover_complete_at);
    }

    #[test]
    fn reactive_baseline_pays_hard_handover() {
        let mut cfg = eval_config(ProtocolKind::Reactive);
        cfg.duration = st_des::SimDuration::from_secs(60);
        let out = human_walk(&cfg, 5).run();
        // The reactive arm only moves after RLF...
        assert!(out.rlf_at.is_some(), "serving link never failed");
        if out.handover_succeeded() {
            let intr = out.interruption.unwrap();
            // ...and pays the outage + search + penalty.
            assert!(
                intr.as_millis_f64() > 80.0,
                "hard handover suspiciously fast: {intr}"
            );
        }
    }

    #[test]
    fn tracked_beam_stays_aligned() {
        let cfg = eval_config(ProtocolKind::SilentTracker);
        let out = human_walk(&cfg, 9).run();
        let frac = out.alignment_fraction().expect("alignment recorded");
        assert!(frac > 0.6, "aligned only {frac} of tracked time");
    }
}
