//! # silent-tracker — in-band beam management for soft handover
//!
//! Reproduction of the protocol from *"Silent Tracker: In-band Beam
//! Management for Soft Handover for mm-Wave Networks"* (SIGCOMM '21
//! Posters & Demos). A mobile at the edge of its serving mm-wave cell
//! must keep its serving beam alive **and** silently acquire and track a
//! beam of the neighboring cell — before it has any grant from that cell,
//! using only received signal strength — so that when the handover
//! trigger fires, random access runs on an already-aligned beam and the
//! session context transfers without interruption (a *soft* handover).
//!
//! ## Crate layout
//!
//! * [`config`] — the protocol's thresholds (3 dB switch, 10 dB loss,
//!   hysteresis T) and timers.
//! * [`measurement`] — EWMA RSS filtering, reference tracking, per-beam
//!   probe tables.
//! * [`state`] — the Fig. 2b state machine (EO, S-RBA, CABM, N-A/R,
//!   N-RBA) with the table-driven legal-transition relation
//!   ([`state::TRANSITION_TABLE`]).
//! * [`machine`] — the protocol core as a pure serializable fold:
//!   `step(ctx, state, event) -> (state, actions)`, the engine behind
//!   both protocol arms and behind trace record/replay.
//! * [`wire`] — canonical compact binary codec primitives (varints,
//!   bit-exact floats, FNV-1a action digests).
//! * [`attribution`] — causal interruption attribution: phase
//!   decompositions that sum bit-exactly to the recorded interruption,
//!   plus deterministic root-cause tags.
//! * [`search`] — directional neighbor-cell search with spiral ordering
//!   and dwell accounting (the Fig. 2a metrics).
//! * [`tracker`] — [`tracker::SilentTracker`], the sans-IO protocol
//!   engine (an adapter over [`machine`]).
//! * [`baseline`] — the reactive hard-handover strawman.
//!
//! ## Example
//!
//! ```
//! use silent_tracker::config::TrackerConfig;
//! use silent_tracker::tracker::{Input, SilentTracker};
//! use st_des::{SimDuration, SimTime};
//! use st_mac::pdu::{CellId, UeId};
//! use st_phy::codebook::{BeamId, BeamwidthClass, Codebook};
//! use st_phy::units::Dbm;
//!
//! let mut tracker = SilentTracker::new(
//!     TrackerConfig::paper_defaults(),
//!     UeId(1),
//!     CellId(0),
//!     Codebook::for_class(BeamwidthClass::Narrow),
//!     BeamId(4),
//! );
//! // Feed an in-band RSS sample of the serving link.
//! let at = SimTime::ZERO + SimDuration::from_millis(5);
//! let actions = tracker.handle(Input::ServingRss { at, rss: Dbm(-62.0) });
//! assert!(actions.is_empty()); // healthy link: nothing to do
//! ```

pub mod attribution;
pub mod baseline;
pub mod config;
pub mod machine;
pub mod measurement;
pub mod search;
pub mod state;
pub mod tracker;
pub mod wire;

#[cfg(test)]
mod tracker_tests;

pub use attribution::{Cause, InterruptionBreakdown, InterruptionMarks, Phase};
pub use baseline::ReactiveHandover;
pub use config::TrackerConfig;
pub use machine::{
    step, step_mut, ProtocolCtx, ProtocolEvent, ProtocolState, ReactiveState, SilentState,
};
pub use search::{Discovery, SearchController, SearchStep};
pub use state::{Edge, TrackerState, Transition, TransitionLog, TRANSITION_TABLE};
pub use tracker::{Action, HandoverDirective, HandoverReason, Input, SilentTracker, TrackerStats};
pub use wire::WireError;
