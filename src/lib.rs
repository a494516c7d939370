//! # silent-tracker-repro — umbrella crate
//!
//! Reproduction of *"Silent Tracker: In-band Beam Management for Soft
//! Handover for mm-Wave Networks"* (SIGCOMM '21 Posters & Demos).
//! This crate re-exports the workspace so examples and integration tests
//! have one import surface; the functionality lives in the member crates:
//!
//! * [`silent_tracker`] — the protocol (the paper's contribution).
//! * [`st_phy`] — 60 GHz PHY substrate (channels, codebooks, link budget).
//! * [`st_env`] — dynamic environments: moving geometric blockers with
//!   knife-edge diffraction, and the urban scenario library.
//! * [`st_mac`] — SSB sweeps, RACH, control PDUs, gap schedules.
//! * [`st_mobility`] — walk / rotation / vehicular mobility models.
//! * [`st_net`] — the event-driven UE driver, the RACH stage and the
//!   single trial that runs one mobile through it.
//! * [`st_fleet`] — multi-UE, multi-cell fleet simulation with exact RACH
//!   contention across spawn-tile shards run in parallel.
//! * [`st_des`] — the deterministic discrete-event engine.
//! * [`st_metrics`] — CDFs, summary statistics, streaming sketches.
//! * [`st_bench`] — the figure-regeneration experiment harness.

pub use silent_tracker;
pub use st_bench;
pub use st_des;
pub use st_env;
pub use st_fleet;
pub use st_mac;
pub use st_metrics;
pub use st_mobility;
pub use st_net;
pub use st_phy;
