//! Shared deployment recipes for the contention integration tests, so
//! `shard_approximation` and `exact_contention` provably exercise the
//! *same* acceptance points (retuning one without the other would
//! silently break the cross-test claims).

use silent_tracker_repro::st_fleet::{Deployment, FleetConfig, MobilityKind};
use silent_tracker_repro::st_net::ProtocolKind;

/// The acceptance street at a configurable contention level: 800 m
/// canyon, 8 cells at 100 m pitch / 8 beams (one spawn tile per cell at
/// up to 8 shards), a 4:1 walker:vehicular all-Silent-Tracker
/// population, seed 42. It is the `fleet_load` street (4 cells on
/// 400 m) doubled in length, so doubled populations keep its per-cell
/// load: moderate load is (1,200 UEs, 8 preambles); heavy load is
/// (4,800 UEs, 2 preambles).
pub fn contended_street(ues: u32, preambles: u8, shards: usize, duration_s: f64) -> FleetConfig {
    let walkers = ues * 4 / 5;
    Deployment::new()
        .street(800.0, 30.0)
        .cell_row(8, 100.0)
        .tx_beams(8)
        .prach_preambles(preambles)
        .population(walkers, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .population(
            ues - walkers,
            MobilityKind::Vehicular,
            ProtocolKind::SilentTracker,
        )
        .duration_secs(duration_s)
        .seed(42)
        .shards(shards)
        .build()
        .expect("valid deployment")
}
