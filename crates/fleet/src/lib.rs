//! # st-fleet — multi-UE, multi-cell fleet simulation
//!
//! The single-trial [`st_net::Scenario`] answers "what happens to *one*
//! mobile at the cell edge?". This crate answers the load question the
//! paper's premise raises: Silent Tracker's make-before-break handover
//! arrives at the target's PRACH with an aligned beam — but PRACH
//! occasions, preamble pools and backhaul pipes are *shared*, so the value
//! of that claim under many contending UEs is a fleet-scale property.
//!
//! One fleet run is **one discrete-event simulation per spawn tile**
//! (shard) with N UEs sharing M cells, the shards stepped in lockstep
//! between PRACH occasions so one shared stage resolves every UE's RACH
//! attempts exactly: real preamble collisions (two UEs, same preamble,
//! same occasion → one RAR, Msg4 contention resolution, loser backs off),
//! admission-control rejections, and soft-handover context fetches
//! serializing through each cell's backhaul queue.
//!
//! * [`deployment`] — declarative [`Deployment`] builder for cell layouts
//!   and heterogeneous UE populations (mixed mobility and protocol arms).
//! * [`sim`] — one shard: the fleet's loop over the shared UE driver
//!   (`st_net::driver`, the same handlers the single trial runs), with
//!   the fleet's telemetry, attribution and per-cell ledgers as its
//!   observer.
//! * [`runner`] — barrier-synchronized parallel execution over
//!   `std::thread::scope` on at most `workers` threads: shards
//!   synchronize at PRACH occasion barriers, where `st_net::stage`
//!   resolves each occasion over the globally merged attempt set in
//!   canonical order, which is what makes contention exact. Aggregates
//!   are bit-identical regardless of worker *and* shard count.
//! * [`metrics`] — per-cell RACH collision rate / occasion occupancy and
//!   fleet-wide interruption quantiles from mergeable `st_metrics`
//!   sketches.
//! * [`telemetry`] — streaming constant-memory observability: shard rings
//!   of time-sliced [`SnapshotSlice`]s (mergeable quantile sketches plus
//!   counters), surfaced as a timeline on [`FleetOutcome`] together with
//!   the deterministic run profiler.
//! * [`attribution`] — fleet-side causal interruption attribution:
//!   deterministic worst-k exemplar retention, refolding recorded trace
//!   marks into phase breakdowns, and the shared human-readable
//!   formatter behind `fleet_load --explain-top` and `autopsy`.
//!
//! ```
//! use st_fleet::{Deployment, MobilityKind, run_fleet};
//! use st_net::ProtocolKind;
//!
//! let cfg = Deployment::new()
//!     .street(200.0, 30.0)
//!     .cell_row(2, 80.0)
//!     .tx_beams(8)
//!     .population(4, MobilityKind::Walk, ProtocolKind::SilentTracker)
//!     .duration_secs(0.5)
//!     .seed(1)
//!     .build()
//!     .unwrap();
//! let out = run_fleet(&cfg);
//! assert_eq!(out.totals.ues, 4);
//! ```

pub mod attribution;
pub mod deployment;
pub mod metrics;
pub mod runner;
pub mod sim;
pub mod telemetry;

pub use attribution::{breakdowns_from_traces, format_breakdown, format_worst, marks_from_traces};
pub use deployment::{
    Deployment, FleetConfig, MobilityKind, PopulationSpec, TilePartition, UeSpec,
};
pub use metrics::{CellLoad, FleetOutcome, InterruptionStats, ShardOutcome, StageReport};
pub use runner::{run_fleet, run_fleet_exact_with_order, run_fleet_with_workers, StageOrder};
pub use telemetry::{SnapshotRing, SnapshotSlice};

#[cfg(test)]
mod tests {
    use super::*;
    use st_net::ProtocolKind;

    /// A deliberately contended deployment: one shard, few preambles,
    /// many simultaneous walkers funnelled through the same cell
    /// boundary.
    fn contended(seed: u64) -> FleetConfig {
        Deployment::new()
            .street(200.0, 30.0)
            .cell_row(2, 80.0)
            .tx_beams(8)
            .prach_preambles(2)
            .spawn_region((-12.0, 0.0), (-3.0, 3.0))
            .population(48, MobilityKind::Walk, ProtocolKind::SilentTracker)
            .duration_secs(2.0)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn fleet_completes_handovers_under_contention() {
        let out = run_fleet(&contended(11));
        assert!(out.totals.handovers > 0, "no handovers\n{}", out.summary());
        // The sketch keeps the exact minimum: a soft handover happened,
        // and none of them was free.
        let min = out.totals.soft_sketch.min();
        assert!(
            min.is_some_and(|ms| ms > 0.0),
            "soft interruption minimum {min:?}"
        );
        // Somebody transmitted preambles and the target heard them.
        let tx: u64 = out.totals.per_cell.iter().map(|c| c.preambles_tx).sum();
        let heard: u64 = out
            .totals
            .per_cell
            .iter()
            .map(|c| c.responder.preambles_heard)
            .sum();
        assert!(tx >= heard && heard > 0, "tx={tx} heard={heard}");
    }

    #[test]
    fn contention_produces_collisions_that_resolve() {
        // 24 UEs, 2 preambles, one shard: collisions are near-certain.
        let out = run_fleet(&contended(11));
        let collisions: u64 = out
            .totals
            .per_cell
            .iter()
            .map(|c| c.responder.collisions)
            .sum();
        assert!(collisions > 0, "no collisions:\n{}", out.summary());
        // Collisions did not deadlock the fleet: handovers still complete.
        assert!(out.totals.handovers > 0);
        // Occupancy and collision rate are well-formed fractions.
        for c in &out.totals.per_cell {
            assert!((0.0..=1.0).contains(&c.occupancy()), "{}", c.occupancy());
            assert!(c.collision_rate() >= 0.0);
        }
    }

    #[test]
    fn mixed_population_reports_both_arms() {
        let cfg = Deployment::new()
            .street(200.0, 30.0)
            .cell_row(2, 80.0)
            .tx_beams(8)
            .population(6, MobilityKind::Walk, ProtocolKind::SilentTracker)
            .population(6, MobilityKind::Walk, ProtocolKind::Reactive)
            .duration_secs(1.5)
            .seed(5)
            .shards(2)
            .build()
            .unwrap();
        let out = run_fleet(&cfg);
        assert_eq!(out.totals.ues, 12);
        // Both arms ran; the summary mentions each.
        let s = out.summary();
        assert!(s.contains("soft ") && s.contains("hard "));
    }
}
