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
//! * [`machine`] — the protocol core as a pure serializable fold: one
//!   protocol instance is an immutable [`ProtocolCtx`] plus a
//!   [`ProtocolState`] folded in place by [`step_mut`]. It is the engine
//!   behind both protocol arms — Silent Tracker ([`SilentState`]) and the
//!   reactive hard-handover strawman ([`ReactiveState`]) — and behind
//!   trace record/replay.
//! * [`wire`] — canonical compact binary codec primitives (varints,
//!   bit-exact floats, FNV-1a action digests).
//! * [`attribution`] — causal interruption attribution: phase
//!   decompositions that sum bit-exactly to the recorded interruption,
//!   plus deterministic root-cause tags.
//! * [`search`] — directional neighbor-cell search with spiral ordering
//!   and dwell accounting (the Fig. 2a metrics).
//!
//! The omni "baseline" of Fig. 2a needs no protocol of its own — it is
//! Silent Tracker folded with the single-beam omni codebook.
//!
//! ## Example
//!
//! ```
//! use silent_tracker::{ProtocolCtx, ProtocolEvent, SilentState, TrackerConfig};
//! use st_des::{SimDuration, SimTime};
//! use st_mac::pdu::{CellId, UeId};
//! use st_phy::codebook::{BeamId, BeamwidthClass, Codebook};
//! use st_phy::units::Dbm;
//!
//! let ctx = ProtocolCtx::new(
//!     TrackerConfig::paper_defaults(),
//!     UeId(1),
//!     CellId(0),
//!     Codebook::for_class(BeamwidthClass::Narrow),
//! );
//! let mut state = SilentState::initial(&ctx, BeamId(4));
//! // Fold an in-band RSS sample of the serving link.
//! let at = SimTime::ZERO + SimDuration::from_millis(5);
//! let mut actions = Vec::new();
//! state.handle(&ctx, &ProtocolEvent::ServingRss { at, rss: Dbm(-62.0) }, &mut actions);
//! assert!(actions.is_empty()); // healthy link: nothing to do
//! ```

pub mod attribution;
pub mod config;
pub mod machine;
pub mod measurement;
pub mod search;
pub mod state;
pub mod wire;

#[cfg(test)]
mod tracker_tests;

pub use attribution::{Cause, InterruptionBreakdown, InterruptionMarks, Phase};
pub use config::TrackerConfig;
pub use machine::{
    step_mut, Action, HandoverDirective, HandoverReason, ProtocolCtx, ProtocolEvent, ProtocolState,
    ReactiveState, SilentState, TrackerStats,
};
pub use search::{Discovery, SearchController, SearchStep};
pub use state::{Edge, TrackerState, Transition, TransitionLog, TRANSITION_TABLE};
pub use wire::WireError;
