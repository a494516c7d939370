//! The Silent Tracker protocol engine (sans-IO).
//!
//! [`SilentTracker`] is a thin adapter over the pure protocol fold in
//! [`crate::machine`]: it owns an immutable [`ProtocolCtx`] and a
//! serializable [`SilentState`], and `handle` forwards each input into
//! [`SilentState::handle`] — the same `step(state, event)` fold that
//! trace replay drives directly. The driver (the `st-net` simulator, or
//! in principle a real modem) feeds it [`Input`]s — RSS samples, SSB
//! detections heard during measurement gaps, PDUs from the serving cell,
//! timer ticks — and it returns [`Action`]s: receive-beam switches, one
//! control PDU kind (the BeamSurfer transmit-beam switch request, the
//! *only* thing it ever transmits before handover), and ultimately the
//! handover directive.
//!
//! Everything it consumes is in-band RSS, which is the paper's thesis.
//!
//! Internally the Fig. 2b machine decomposes into two concerns that share
//! the radio through the measurement-gap schedule (see [`crate::machine`]
//! for the full fold):
//!
//! * the **serving loop** (EO / S-RBA / CABM) — BeamSurfer: keep the
//!   serving link alive with mobile-side adjacent-beam switches,
//!   escalating to a transmit-beam switch request when that no longer
//!   suffices, and falling back when assistance is delayed or lost;
//! * the **neighbor loop** (N-A/R / N-RBA) — find a neighbor cell beam
//!   and keep the receive beam aligned to it silently until the handover
//!   trigger fires.

use std::sync::Arc;

use st_mac::pdu::{CellId, UeId};
use st_mac::timing::TxBeamIndex;
use st_phy::codebook::{BeamId, Codebook};
use st_phy::units::Dbm;

use crate::config::TrackerConfig;
use crate::machine::{ProtocolCtx, ProtocolState, SilentState};
use crate::measurement::LinkMonitor;
use crate::state::{TrackerState, TransitionLog};

pub use crate::machine::{
    Action, HandoverDirective, HandoverReason, ProtocolEvent as Input, TrackerStats,
};

/// The Silent Tracker protocol instance for one mobile: an adapter pair
/// of immutable context and pure fold state.
#[derive(Debug, Clone)]
pub struct SilentTracker {
    ctx: ProtocolCtx,
    state: SilentState,
}

impl SilentTracker {
    /// Create a tracker for `ue`, currently served by `serving_cell` on
    /// `serving_rx_beam`, with the given receive codebook. The neighbor
    /// loop starts in N-A/R immediately (edge B): the scenario premise is
    /// a mobile at cell edge.
    pub fn new(
        config: TrackerConfig,
        ue: UeId,
        serving_cell: CellId,
        codebook: impl Into<Arc<Codebook>>,
        serving_rx_beam: BeamId,
    ) -> SilentTracker {
        let ctx = ProtocolCtx::new(config, ue, serving_cell, codebook);
        let state = SilentState::initial(&ctx, serving_rx_beam);
        SilentTracker { ctx, state }
    }

    pub fn config(&self) -> &TrackerConfig {
        &self.ctx.config
    }

    /// The immutable protocol context (config, ids, codebook).
    pub fn ctx(&self) -> &ProtocolCtx {
        &self.ctx
    }

    /// Snapshot the complete mutable protocol state as a plain value.
    pub fn snapshot(&self) -> ProtocolState {
        ProtocolState::Silent(self.state.clone())
    }

    /// The Fig. 2b state the protocol is currently in.
    pub fn state(&self) -> TrackerState {
        self.state.fig2b_state()
    }

    pub fn stats(&self) -> TrackerStats {
        self.state.stats()
    }

    pub fn serving_rx_beam(&self) -> BeamId {
        self.state.serving_rx_beam()
    }

    pub fn serving_cell(&self) -> CellId {
        self.ctx.serving_cell
    }

    /// The receive beam the mobile should use during measurement gaps.
    pub fn gap_rx_beam(&self) -> BeamId {
        self.state.gap_rx_beam(&self.ctx.codebook)
    }

    /// The tracked neighbor beam, if any: (cell, tx beam, rx beam).
    pub fn tracked(&self) -> Option<(CellId, TxBeamIndex, BeamId)> {
        self.state.tracked()
    }

    /// The monitor of the tracked neighbor beam, if any — the warm-start
    /// seed a driver banks right before executing a handover.
    pub fn tracked_monitor(&self) -> Option<LinkMonitor> {
        self.state.tracked_monitor()
    }

    /// Warm-start re-anchoring: seed the serving monitor from the monitor
    /// that tracked this link before the handover (opt-in via
    /// `TrackerConfig::warm_start_handover`; the caller gates).
    pub fn warm_start(&mut self, monitor: &LinkMonitor) {
        self.state.warm_start(monitor);
    }

    /// Smoothed RSS of the tracked neighbor beam.
    pub fn neighbor_level(&self) -> Option<Dbm> {
        self.state.neighbor_level()
    }

    /// Smoothed RSS of the serving link.
    pub fn serving_level(&self) -> Option<Dbm> {
        self.state.serving_level()
    }

    /// The handover directive once issued (terminal).
    pub fn handover(&self) -> Option<HandoverDirective> {
        self.state.handover()
    }

    /// Transition history of the serving loop (EO / S-RBA / CABM).
    pub fn serving_log(&self) -> &TransitionLog {
        self.state.serving_log()
    }

    /// Transition history of the neighbor loop (EO / N-A/R / N-RBA).
    pub fn neighbor_log(&self) -> &TransitionLog {
        self.state.neighbor_log()
    }

    /// Feed one input; collect the resulting actions.
    ///
    /// After a handover directive has been issued the serving loop stops
    /// (the serving link is being abandoned) but the *neighbor* loop keeps
    /// maintaining the target beam — random access is still in flight and
    /// the device may still be moving.
    pub fn handle(&mut self, input: Input) -> Vec<Action> {
        let mut out = Vec::new();
        self.state.handle(&self.ctx, &input, &mut out);
        out
    }
}
