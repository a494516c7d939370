//! The protocol under test behind one dispatch path, shared by the
//! single-trial loop, the fleet and trace replay.
//!
//! A [`Proto`] is a protocol context, the complete protocol state and one
//! reused action buffer. Every event is folded in place with
//! [`step_mut`] — the same pure fold trace replay drives — so the two
//! protocol arms differ only in the [`ProtocolState`] variant, and
//! folding allocates nothing once the buffer is warm. It is also the
//! attachment point for trace recording ([`crate::trace`]): with a
//! [`UeRecorder`] attached, every event folded and every action emitted
//! is captured on the way through [`Proto::handle`] — the driver needs no
//! per-event recording code of its own.

use std::sync::Arc;

use silent_tracker::{
    step_mut, Action, ProtocolCtx, ProtocolEvent, ProtocolState, ReactiveState, SilentState,
    TrackerConfig, TrackerStats,
};
use st_mac::pdu::{CellId, UeId};
use st_mac::timing::TxBeamIndex;
use st_phy::codebook::{BeamId, Codebook};
use st_phy::units::Dbm;

use crate::config::ProtocolKind;
use crate::trace::UeRecorder;

/// The initial state of arm `kind` anchored on `ctx.serving_cell` with
/// serving receive beam `serving_rx`. Construction, handover
/// re-anchoring and trace replay all anchor through here, so every
/// protocol incarnation starts cold.
pub(crate) fn anchored_state(
    kind: ProtocolKind,
    ctx: &ProtocolCtx,
    serving_rx: BeamId,
) -> ProtocolState {
    match kind {
        ProtocolKind::SilentTracker => ProtocolState::Silent(SilentState::initial(ctx, serving_rx)),
        ProtocolKind::Reactive => ProtocolState::Reactive(ReactiveState::initial(ctx, serving_rx)),
    }
}

/// Protocol under test, with an optional trace recorder riding on the
/// event path.
#[derive(Debug)]
pub struct Proto {
    ctx: ProtocolCtx,
    state: ProtocolState,
    /// Actions of the last folded event, reused across folds.
    pub(crate) actions: Vec<Action>,
    recorder: Option<Box<UeRecorder>>,
}

impl Proto {
    /// Build the protocol arm `kind`, already attached to `serving` on
    /// `serving_rx` (initial access happened before the run starts). The
    /// codebook is shared by reference count — a fleet hands the same
    /// `Arc` to every UE instead of cloning the beam table per instance.
    pub fn new(
        kind: ProtocolKind,
        config: TrackerConfig,
        ue: UeId,
        serving: CellId,
        codebook: Arc<Codebook>,
        serving_rx: BeamId,
    ) -> Proto {
        let ctx = ProtocolCtx::new(config, ue, serving, codebook);
        let state = anchored_state(kind, &ctx, serving_rx);
        Proto {
            ctx,
            state,
            actions: Vec::new(),
            recorder: None,
        }
    }

    pub fn kind(&self) -> ProtocolKind {
        match self.state {
            ProtocolState::Silent(_) => ProtocolKind::SilentTracker,
            ProtocolState::Reactive(_) => ProtocolKind::Reactive,
        }
    }

    /// Fold one event. The actions it emits replace the previous event's
    /// in the reused buffer and are returned.
    pub fn handle(&mut self, input: ProtocolEvent) -> &[Action] {
        if let Some(rec) = &mut self.recorder {
            rec.record_event(&input);
        }
        self.actions.clear();
        step_mut(&self.ctx, &mut self.state, &input, &mut self.actions);
        if let Some(rec) = &mut self.recorder {
            rec.record_actions(&self.actions);
        }
        &self.actions
    }

    pub fn serving_rx_beam(&self) -> BeamId {
        self.state.serving_rx_beam()
    }

    pub fn gap_rx_beam(&self) -> BeamId {
        self.state.gap_rx_beam(&self.ctx.codebook)
    }

    pub fn search_dwells(&self) -> u64 {
        self.state.search_dwells()
    }

    pub fn tracked(&self) -> Option<(CellId, TxBeamIndex, BeamId)> {
        self.state.tracked()
    }

    /// Smoothed tracked-neighbor level (Silent Tracker arm only).
    pub fn neighbor_level(&self) -> Option<Dbm> {
        self.state.neighbor_level()
    }

    /// Protocol counters (Silent Tracker arm only).
    pub fn stats(&self) -> Option<TrackerStats> {
        self.state.stats()
    }

    /// The serving cell the protocol is anchored on.
    pub fn serving_cell(&self) -> CellId {
        self.ctx.serving_cell
    }

    /// Re-anchor after a completed handover: the protocol restarts cold
    /// on `serving` with `serving_rx` as the serving beam. With recording
    /// on, the open segment closes on the old state and the next one
    /// opens at the new anchor.
    pub fn reanchor(&mut self, serving: CellId, serving_rx: BeamId) {
        let rec = self.finish_recording();
        self.ctx.serving_cell = serving;
        self.state = anchored_state(self.kind(), &self.ctx, serving_rx);
        if let Some(mut rec) = rec {
            rec.open_segment(serving.0, self.serving_rx_beam().0);
            self.recorder = Some(rec);
        }
    }

    // ----- trace recording --------------------------------------------------

    /// Attach a fresh recorder and open the first segment (anchored at
    /// the protocol's current serving cell and receive beam). Call right
    /// after construction, before any event is folded. The protocol must
    /// then be fed every tick of the driver's timer grid and no other
    /// tick (see [`UeRecorder::record_event`]).
    pub fn start_recording(&mut self) {
        let mut rec = Box::new(UeRecorder::new());
        rec.open_segment(self.serving_cell().0, self.serving_rx_beam().0);
        self.recorder = Some(rec);
    }

    /// Record causal-attribution marks for a handover completing on this
    /// protocol instance (no-op when recording is off). Call before
    /// re-anchoring so the marks land in the segment the handover closes.
    pub fn record_marks(&mut self, m: &silent_tracker::attribution::InterruptionMarks) {
        if let Some(rec) = &mut self.recorder {
            rec.record_marks(m);
        }
    }

    /// Detach the recorder, closing the open segment with the protocol's
    /// final state snapshot. Returns `None` if recording is off.
    pub fn finish_recording(&mut self) -> Option<Box<UeRecorder>> {
        let mut rec = self.recorder.take()?;
        rec.close_segment(&self.state);
        Some(rec)
    }
}
