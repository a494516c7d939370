//! End-to-end protocol trace record/replay containers.
//!
//! A **trace** is the complete protocol-visible history of a fleet run:
//! for every UE, the exact [`ProtocolEvent`] stream its protocol instance
//! consumed, segmented at handover re-anchorings, together with the
//! FNV-1a digest of the action stream it emitted and the byte-exact
//! final [`ProtocolState`] snapshot of each segment. Because the protocol
//! core is a pure fold ([`silent_tracker::step_mut`]), the trace is
//! sufficient to re-evaluate the protocol *without* the physical layer or
//! the event executive: [`crate::replay`] refolds the recorded events and
//! checks the digests, byte for byte.
//!
//! Recording is opt-in and attaches at the [`crate::proto::Proto`]
//! dispatch path, so the shared UE driver records through one hook
//! whichever loop runs it. The format is a compact custom binary built
//! on the `silent_tracker::wire` primitives (LEB128 varints, bit-exact
//! floats), with event timestamps delta-encoded against the previous
//! record ([`ProtocolEvent::encode_from`]), since a monotone stream's
//! deltas fit in one to three varint bytes where absolute times take
//! five.
//!
//! Timer ticks leave no record. The driver feeds every UE a
//! [`ProtocolEvent::Tick`] on one fixed grid (500 µs, then every
//! millisecond), so a tick says nothing the grid does not. The recorder
//! checks each tick against the grid and drops it; each segment stores
//! its first grid tick and the number of ticks folded after its last
//! record. Replay ([`crate::replay`]) synthesises the ticks back: before each
//! record, the grid ticks from the next unfolded one up to, but not
//! including, the record's instant, folded as one
//! [`ProtocolEvent::TickRun`] (a [`ProtocolEvent::Tick`] for a stretch
//! of one). Those are the live fold's ticks, grouped one run per stretch
//! between two records, and each run counts as one event. The one tick
//! the grid cannot place is a grid tick the live run folded at a
//! record's own instant, before that record: it is written as an
//! explicit `Tick`, and replay folds it with the stretch before it, as
//! one run through that instant. A tick off the grid, or a grid tick the
//! live run skipped, panics the recorder and names its instant, since
//! replay would synthesise other ticks than the live run folded.

use bytes::BufMut;
use silent_tracker::attribution::InterruptionMarks;
use silent_tracker::wire::{self, Fnv64, WireError};
use silent_tracker::{Action, ProtocolEvent, ProtocolState, TrackerConfig};
use st_des::{SimDuration, SimTime};
use st_phy::codebook::{BeamwidthClass, Codebook};
use st_phy::units::Db;

use crate::config::ProtocolKind;
use crate::driver::{FIRST_TICK, TICK_PERIOD};

/// Magic + version prefix of a serialized [`FleetTrace`] file. Version 2
/// appended per-segment [`InterruptionMarks`] (causal attribution of the
/// handover that ended the segment) after the final-state snapshot;
/// version 3 dropped the per-segment seed tag and the tracker-config flag
/// of the retired warm-start option, since every segment starts cold;
/// version 4 stopped recording grid ticks (each segment carries its first
/// grid tick and trailing tick count, and replay synthesises the ticks).
pub const TRACE_MAGIC: &[u8; 8] = b"STTRACE4";

/// One protocol incarnation of one UE: from (re-)anchoring on a serving
/// cell until the next handover completes (or the run ends). Every
/// incarnation starts from the initial state of its arm, so the anchor
/// (cell and receive beam) is all replay needs to rebuild it.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentTrace {
    /// Serving cell the protocol was anchored on.
    pub serving_cell: u16,
    /// Initial serving receive beam (an index into the run's codebook).
    pub serving_rx: u16,
    /// Concatenated canonical [`ProtocolEvent`] encodings of the
    /// recorded events, in fold order, with delta timestamps
    /// ([`ProtocolEvent::encode_from`] threaded from `SimTime::ZERO`).
    /// Grid ticks are not among them (see the module docs).
    pub events: Vec<u8>,
    /// The segment's first grid tick: the next one the protocol had not
    /// folded when the segment opened. Replay synthesises the segment's
    /// ticks from here, a millisecond apart.
    pub first_tick: SimTime,
    /// Grid ticks folded after the segment's last record.
    pub trailing_ticks: u64,
    /// Events the protocol folded over the segment: each record, and each
    /// stretch of ticks between two records (or after the last) as one
    /// tick run.
    pub n_events: u64,
    /// Actions the protocol emitted over the segment.
    pub action_count: u64,
    /// FNV-1a 64 digest over the canonical encodings of those actions.
    pub action_digest: u64,
    /// Byte-exact final [`ProtocolState`] snapshot
    /// ([`ProtocolState::encode`]). The verified refold compares its own
    /// final state's encoding with it; nothing decodes it.
    pub final_state: Vec<u8>,
    /// Causal-attribution marks of handovers recorded while this
    /// segment was open (in practice: the handover whose completion
    /// closed the segment). Self-contained, so the autopsy tool derives
    /// the identical [`InterruptionBreakdown`] the live run computed.
    ///
    /// [`InterruptionBreakdown`]: silent_tracker::attribution::InterruptionBreakdown
    pub marks: Vec<InterruptionMarks>,
}

/// The full recorded history of one UE across all its segments.
#[derive(Debug, Clone, PartialEq)]
pub struct UeTrace {
    /// Global (fleet-wide) UE index, stable across shard counts.
    pub id: u64,
    /// The MAC-layer UE identity the protocol ran under (it appears in
    /// emitted PDUs, so replay must reuse it exactly).
    pub uid: u32,
    pub kind: ProtocolKind,
    pub segments: Vec<SegmentTrace>,
}

impl UeTrace {
    /// Events folded across all segments (tick runs count as one).
    pub fn n_events(&self) -> u64 {
        self.segments.iter().map(|s| s.n_events).sum()
    }
}

/// One recorded fleet run (one protocol arm, one config, one seed).
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Human label, e.g. `"1000-silent"` or `"smoke"`.
    pub label: String,
    pub seed: u64,
    /// Simulated duration of the run.
    pub duration: SimDuration,
    /// Wall-clock seconds the *live* run took (the replay speedup
    /// denominator).
    pub live_wall_s: f64,
    /// The protocol configuration the trace was recorded under.
    pub tracker: TrackerConfig,
    /// The shared UE codebook, by class (custom codebooks are rejected
    /// at recording time — the trace must be able to rebuild it).
    pub codebook: BeamwidthClass,
    /// Per-UE traces, sorted by global id.
    pub ues: Vec<UeTrace>,
}

impl RunTrace {
    pub fn n_segments(&self) -> u64 {
        self.ues.iter().map(|u| u.segments.len() as u64).sum()
    }

    pub fn n_events(&self) -> u64 {
        self.ues.iter().map(UeTrace::n_events).sum()
    }

    /// UE-seconds of simulated radio time the trace covers.
    pub fn ue_seconds(&self) -> f64 {
        self.ues.len() as f64 * self.duration.as_secs_f64()
    }

    /// Bytes of a trace file that holds this run alone.
    pub fn file_len(&self) -> usize {
        let mut len = ByteCount(TRACE_MAGIC.len());
        wire::put_varu64(&mut len, 1);
        self.encode(&mut len);
        len.0
    }
}

/// A set of recorded runs (e.g. both protocol arms of a load sweep),
/// serializable to one trace file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetTrace {
    pub runs: Vec<RunTrace>,
}

// ----- codec ----------------------------------------------------------------

fn put_str<B: BufMut>(buf: &mut B, s: &str) {
    wire::put_varu64(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, WireError> {
    let n = wire::get_varu64(buf)? as usize;
    if buf.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    let s = std::str::from_utf8(head)
        .map_err(|_| WireError::Corrupt("label utf-8"))?
        .to_string();
    *buf = rest;
    Ok(s)
}

fn put_bytes<B: BufMut>(buf: &mut B, v: &[u8]) {
    wire::put_varu64(buf, v.len() as u64);
    buf.put_slice(v);
}

fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, WireError> {
    let n = wire::get_varu64(buf)? as usize;
    if buf.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head.to_vec())
}

fn put_kind<B: BufMut>(buf: &mut B, k: ProtocolKind) {
    buf.put_u8(match k {
        ProtocolKind::SilentTracker => 0,
        ProtocolKind::Reactive => 1,
    });
}

fn get_kind(buf: &mut &[u8]) -> Result<ProtocolKind, WireError> {
    match wire::get_u8(buf)? {
        0 => Ok(ProtocolKind::SilentTracker),
        1 => Ok(ProtocolKind::Reactive),
        _ => Err(WireError::Corrupt("protocol kind tag")),
    }
}

fn put_class<B: BufMut>(buf: &mut B, c: BeamwidthClass) {
    buf.put_u8(match c {
        BeamwidthClass::Narrow => 0,
        BeamwidthClass::Wide => 1,
        BeamwidthClass::Omni => 2,
    });
}

fn get_class(buf: &mut &[u8]) -> Result<BeamwidthClass, WireError> {
    match wire::get_u8(buf)? {
        0 => Ok(BeamwidthClass::Narrow),
        1 => Ok(BeamwidthClass::Wide),
        2 => Ok(BeamwidthClass::Omni),
        _ => Err(WireError::Corrupt("beamwidth class tag")),
    }
}

fn put_tracker_config<B: BufMut>(buf: &mut B, c: &TrackerConfig) {
    wire::put_f64(buf, c.switch_threshold.0);
    wire::put_f64(buf, c.loss_threshold.0);
    wire::put_f64(buf, c.handover_hysteresis.0);
    wire::put_dur(buf, c.assist_timeout);
    wire::put_dur(buf, c.serving_timeout);
    wire::put_f64(buf, c.ewma_alpha);
    wire::put_varu64(buf, c.max_search_dwells as u64);
    wire::put_dur(buf, c.settle_time);
    wire::put_dur(buf, c.track_staleness);
    wire::put_f64(buf, c.loss_reference_decay.0);
    wire::put_varu64(buf, u64::from(c.min_track_samples));
}

fn get_tracker_config(buf: &mut &[u8]) -> Result<TrackerConfig, WireError> {
    let c = TrackerConfig {
        switch_threshold: Db(wire::get_f64(buf)?),
        loss_threshold: Db(wire::get_f64(buf)?),
        handover_hysteresis: Db(wire::get_f64(buf)?),
        assist_timeout: wire::get_dur(buf)?,
        serving_timeout: wire::get_dur(buf)?,
        ewma_alpha: wire::get_f64(buf)?,
        max_search_dwells: wire::get_varu64(buf)? as usize,
        settle_time: wire::get_dur(buf)?,
        track_staleness: wire::get_dur(buf)?,
        loss_reference_decay: Db(wire::get_f64(buf)?),
        min_track_samples: wire::get_varu32(buf)?,
    };
    c.validate().map_err(WireError::Corrupt)?;
    Ok(c)
}

impl SegmentTrace {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u16(self.serving_cell);
        buf.put_u16(self.serving_rx);
        put_bytes(buf, &self.events);
        wire::put_time(buf, self.first_tick);
        wire::put_varu64(buf, self.trailing_ticks);
        wire::put_varu64(buf, self.n_events);
        wire::put_varu64(buf, self.action_count);
        buf.put_u64(self.action_digest);
        put_bytes(buf, &self.final_state);
        wire::put_varu64(buf, self.marks.len() as u64);
        for m in &self.marks {
            m.encode(buf);
        }
    }

    /// Decode one segment of a run whose codebook has `n_beams` beams:
    /// the anchor beam must lie inside the codebook, as replay rebuilds
    /// the initial state around it, and the trailing ticks counted from
    /// the first tick must end within the clock's range.
    fn decode(buf: &mut &[u8], n_beams: usize) -> Result<SegmentTrace, WireError> {
        let serving_cell = wire::get_u16(buf)?;
        let serving_rx = wire::get_u16(buf)?;
        if usize::from(serving_rx) >= n_beams {
            return Err(WireError::Corrupt("serving beam outside codebook"));
        }
        let events = get_bytes(buf)?;
        let first_tick = wire::get_time(buf)?;
        let trailing_ticks = wire::get_varu64(buf)?;
        TICK_PERIOD
            .as_nanos()
            .checked_mul(trailing_ticks.saturating_sub(1))
            .and_then(|span| first_tick.checked_add(SimDuration::from_nanos(span)))
            .ok_or(WireError::Corrupt("trailing ticks overflow the clock"))?;
        let n_events = wire::get_varu64(buf)?;
        let action_count = wire::get_varu64(buf)?;
        let action_digest = wire::get_u64(buf)?;
        let final_state = get_bytes(buf)?;
        let n_marks = wire::get_varu64(buf)? as usize;
        let mut marks = Vec::with_capacity(n_marks.min(buf.len()));
        for _ in 0..n_marks {
            marks.push(InterruptionMarks::decode(buf)?);
        }
        Ok(SegmentTrace {
            serving_cell,
            serving_rx,
            events,
            first_tick,
            trailing_ticks,
            n_events,
            action_count,
            action_digest,
            final_state,
            marks,
        })
    }
}

impl UeTrace {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        wire::put_varu64(buf, self.id);
        wire::put_varu64(buf, u64::from(self.uid));
        put_kind(buf, self.kind);
        wire::put_varu64(buf, self.segments.len() as u64);
        for s in &self.segments {
            s.encode(buf);
        }
    }

    fn decode(buf: &mut &[u8], n_beams: usize) -> Result<UeTrace, WireError> {
        let id = wire::get_varu64(buf)?;
        let uid = wire::get_varu32(buf)?;
        let kind = get_kind(buf)?;
        let n = wire::get_varu64(buf)? as usize;
        let mut segments = Vec::with_capacity(n.min(buf.len()));
        for _ in 0..n {
            segments.push(SegmentTrace::decode(buf, n_beams)?);
        }
        Ok(UeTrace {
            id,
            uid,
            kind,
            segments,
        })
    }
}

impl RunTrace {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        put_str(buf, &self.label);
        wire::put_varu64(buf, self.seed);
        wire::put_dur(buf, self.duration);
        wire::put_f64(buf, self.live_wall_s);
        put_tracker_config(buf, &self.tracker);
        put_class(buf, self.codebook);
        wire::put_varu64(buf, self.ues.len() as u64);
        for u in &self.ues {
            u.encode(buf);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<RunTrace, WireError> {
        let label = get_str(buf)?;
        let seed = wire::get_varu64(buf)?;
        let duration = wire::get_dur(buf)?;
        let live_wall_s = wire::get_f64(buf)?;
        let tracker = get_tracker_config(buf)?;
        let codebook = get_class(buf)?;
        let n_beams = Codebook::for_class(codebook).len();
        let n = wire::get_varu64(buf)? as usize;
        let mut ues = Vec::with_capacity(n.min(buf.len()));
        for _ in 0..n {
            ues.push(UeTrace::decode(buf, n_beams)?);
        }
        Ok(RunTrace {
            label,
            seed,
            duration,
            live_wall_s,
            tracker,
            codebook,
            ues,
        })
    }
}

/// A [`BufMut`] that only counts the bytes put into it.
struct ByteCount(usize);

impl BufMut for ByteCount {
    fn put_slice(&mut self, data: &[u8]) {
        self.0 += data.len();
    }
}

impl FleetTrace {
    /// Serialize to the compact binary trace format. A counting pass
    /// sizes the buffer first: a fleet trace runs to tens of MB, and
    /// growing it by doubling would copy it on every reallocation and
    /// could briefly hold two copies at once.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut len = ByteCount(0);
        self.encode(&mut len);
        let mut buf = Vec::with_capacity(len.0);
        self.encode(&mut buf);
        buf
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(TRACE_MAGIC);
        wire::put_varu64(buf, self.runs.len() as u64);
        for r in &self.runs {
            r.encode(buf);
        }
    }

    /// Parse a serialized trace; rejects trailing garbage.
    pub fn from_bytes(mut buf: &[u8]) -> Result<FleetTrace, WireError> {
        if buf.len() < TRACE_MAGIC.len() || &buf[..TRACE_MAGIC.len()] != TRACE_MAGIC {
            return Err(WireError::Corrupt("trace magic"));
        }
        buf = &buf[TRACE_MAGIC.len()..];
        let n = wire::get_varu64(&mut buf)? as usize;
        let mut runs = Vec::with_capacity(n.min(buf.len()));
        for _ in 0..n {
            runs.push(RunTrace::decode(&mut buf)?);
        }
        if !buf.is_empty() {
            return Err(WireError::Corrupt("trailing bytes"));
        }
        Ok(FleetTrace { runs })
    }

    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    pub fn load(path: &std::path::Path) -> std::io::Result<FleetTrace> {
        let bytes = std::fs::read(path)?;
        FleetTrace::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

// ----- recorder -------------------------------------------------------------

/// One segment being recorded.
#[derive(Debug, Clone)]
struct OpenSegment {
    serving_cell: u16,
    serving_rx: u16,
    events: Vec<u8>,
    n_events: u64,
    /// Delta-timestamp anchor: the instant of the last record (see
    /// [`ProtocolEvent::encode_from`]).
    prev: SimTime,
    first_tick: SimTime,
    /// Grid ticks folded since the last record.
    ticks: u64,
    digest: Fnv64,
    action_count: u64,
    marks: Vec<InterruptionMarks>,
}

/// Per-UE event/action recorder, attached to a
/// [`crate::proto::Proto`] via [`Proto::start_recording`]
/// (see [`crate::proto`]). It captures every event the protocol folds
/// except the grid ticks, which replay synthesises (see the module
/// docs), and digests every action the protocol emits. One
/// segment covers one protocol incarnation: handover re-anchoring
/// ([`Proto::reanchor`]) closes the open segment on the old state and
/// opens the next at the new anchor, whose first grid tick is the next
/// one the UE has not folded.
///
/// [`Proto::start_recording`]: crate::proto::Proto::start_recording
/// [`Proto::reanchor`]: crate::proto::Proto::reanchor
#[derive(Debug, Clone)]
pub struct UeRecorder {
    /// The next grid tick the protocol has not folded.
    next_tick: SimTime,
    segments: Vec<SegmentTrace>,
    cur: Option<OpenSegment>,
}

impl Default for UeRecorder {
    fn default() -> UeRecorder {
        UeRecorder {
            next_tick: FIRST_TICK,
            segments: Vec::new(),
            cur: None,
        }
    }
}

impl UeRecorder {
    pub fn new() -> UeRecorder {
        UeRecorder::default()
    }

    /// Begin recording a new segment (a fresh protocol incarnation
    /// anchored on `serving_cell`/`serving_rx`).
    pub fn open_segment(&mut self, serving_cell: u16, serving_rx: u16) {
        assert!(self.cur.is_none(), "previous segment still open");
        self.cur = Some(OpenSegment {
            serving_cell,
            serving_rx,
            events: Vec::new(),
            n_events: 0,
            prev: SimTime::ZERO,
            first_tick: self.next_tick,
            ticks: 0,
            digest: Fnv64::new(),
            action_count: 0,
            marks: Vec::new(),
        });
    }

    /// Close the open segment with the protocol's final state snapshot.
    pub fn close_segment(&mut self, final_state: &ProtocolState) {
        let Some(seg) = self.cur.take() else {
            return;
        };
        let mut state_bytes = Vec::new();
        final_state.encode(&mut state_bytes);
        self.segments.push(SegmentTrace {
            serving_cell: seg.serving_cell,
            serving_rx: seg.serving_rx,
            events: seg.events,
            first_tick: seg.first_tick,
            trailing_ticks: seg.ticks,
            n_events: seg.n_events + u64::from(seg.ticks > 0),
            action_count: seg.action_count,
            action_digest: seg.digest.finish(),
            final_state: state_bytes,
            marks: seg.marks,
        });
    }

    /// Record the causal-attribution marks of a completed handover. The
    /// driver calls this right before closing the segment the handover
    /// ends, so the marks travel with the protocol incarnation that
    /// performed the access.
    pub fn record_marks(&mut self, m: &InterruptionMarks) {
        if let Some(seg) = &mut self.cur {
            seg.marks.push(*m);
        }
    }

    /// Record one event about to be folded into the protocol. A tick is
    /// only counted, and must be the next tick of the grid; any other
    /// event must come before the next unfolded grid tick.
    ///
    /// # Panics
    ///
    /// On a tick off the grid, on a grid tick skipped (by a later tick or
    /// a later event), and on a tick folded before an event that precedes
    /// it: replay would fold other ticks than the live run did. Each
    /// message names the instant.
    pub fn record_event(&mut self, ev: &ProtocolEvent) {
        let Some(seg) = &mut self.cur else { return };
        let next = self.next_tick;
        if let ProtocolEvent::Tick { at } = *ev {
            if at != next {
                let on_grid = at > next && at.since(next).as_nanos() % TICK_PERIOD.as_nanos() == 0;
                if on_grid {
                    panic!("grid tick at {next} skipped: the next tick came at {at}");
                }
                panic!("tick at {at} is off the grid (the next grid tick is at {next})");
            }
            self.next_tick = at + TICK_PERIOD;
            seg.ticks += 1;
            return;
        }
        let at = ev.at();
        assert!(
            next >= at,
            "grid tick at {next} skipped: an event at {at} came first"
        );
        if seg.ticks > 0 {
            // The stretch since the last record is one event. Its last
            // tick, at `next - period`, lies at or before `at`; at `at`
            // itself, replay would place it after this record, so it is
            // written out.
            let last = SimTime::from_nanos(next.as_nanos() - TICK_PERIOD.as_nanos());
            assert!(
                last <= at,
                "tick at {last} folded before the earlier event at {at}"
            );
            if last == at {
                seg.prev = ProtocolEvent::Tick { at }.encode_from(seg.prev, &mut seg.events);
            }
            seg.n_events += 1;
            seg.ticks = 0;
        }
        seg.prev = ev.encode_from(seg.prev, &mut seg.events);
        seg.n_events += 1;
    }

    /// Digest the actions the protocol emitted for the last event.
    pub fn record_actions(&mut self, actions: &[Action]) {
        let Some(seg) = &mut self.cur else { return };
        for a in actions {
            a.encode(&mut seg.digest);
        }
        seg.action_count += actions.len() as u64;
    }

    /// Finish: the caller must have closed the last segment
    /// ([`UeRecorder::close_segment`]). Wraps the recording into a
    /// [`UeTrace`].
    pub fn into_trace(self, id: u64, uid: u32, kind: ProtocolKind) -> UeTrace {
        assert!(self.cur.is_none(), "segment still open");
        UeTrace {
            id,
            uid,
            kind,
            segments: self.segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_phy::units::Dbm;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Grid tick `k`: at `k` ms and 500 µs.
    fn tick(k: u64) -> SimTime {
        t(k) + SimDuration::from_micros(500)
    }

    fn sample_trace() -> FleetTrace {
        let mut rec = UeRecorder::new();
        rec.open_segment(0, 4);
        for k in 0..5 {
            rec.record_event(&ProtocolEvent::Tick { at: tick(k) });
        }
        rec.record_event(&ProtocolEvent::ServingRss {
            at: t(5),
            rss: Dbm(-61.5),
        });
        rec.record_actions(&[Action::SetServingRxBeam(st_phy::codebook::BeamId(3))]);
        let state = ProtocolState::Reactive(silent_tracker::ReactiveState::initial(
            &silent_tracker::ProtocolCtx::new(
                TrackerConfig::paper_defaults(),
                st_mac::pdu::UeId(9),
                st_mac::pdu::CellId(0),
                st_phy::codebook::Codebook::for_class(BeamwidthClass::Narrow),
            ),
            st_phy::codebook::BeamId(4),
        ));
        rec.close_segment(&state);
        let ue = rec.into_trace(3, 4, ProtocolKind::Reactive);
        FleetTrace {
            runs: vec![RunTrace {
                label: "unit".into(),
                seed: 7,
                duration: SimDuration::from_secs(1),
                live_wall_s: 0.25,
                tracker: TrackerConfig::paper_defaults(),
                codebook: BeamwidthClass::Narrow,
                ues: vec![ue],
            }],
        }
    }

    #[test]
    fn grid_ticks_are_synthesised_not_recorded() {
        let trace = sample_trace();
        let seg = &trace.runs[0].ues[0].segments[0];
        // 5 ticks + 1 RSS sample → 1 RSS record; the ticks are one event
        // that replay synthesises from the grid.
        assert_eq!(seg.n_events, 2);
        assert_eq!((seg.first_tick, seg.trailing_ticks), (tick(0), 0));
        let mut buf: &[u8] = &seg.events;
        let (only, _) = ProtocolEvent::decode_from(&mut buf, SimTime::ZERO).unwrap();
        assert_eq!(
            only,
            ProtocolEvent::ServingRss {
                at: t(5),
                rss: Dbm(-61.5),
            }
        );
        assert!(buf.is_empty());
        assert_eq!(seg.action_count, 1);
    }

    /// A recorder that has folded the grid ticks `ticks`.
    fn ticked(ticks: &[u64]) -> UeRecorder {
        let mut rec = UeRecorder::new();
        rec.open_segment(0, 0);
        for &k in ticks {
            rec.record_event(&ProtocolEvent::Tick { at: tick(k) });
        }
        rec
    }

    #[test]
    #[should_panic(expected = "tick at 2.000 ms is off the grid")]
    fn an_off_grid_tick_panics_naming_its_instant() {
        let mut rec = ticked(&[0, 1]);
        rec.record_event(&ProtocolEvent::Tick { at: t(2) });
    }

    #[test]
    #[should_panic(expected = "grid tick at 2.500 ms skipped")]
    fn a_skipped_grid_tick_panics_naming_its_instant() {
        ticked(&[0, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "grid tick at 1.500 ms skipped: an event at 2.000 ms came first")]
    fn an_event_past_an_unfolded_grid_tick_panics() {
        let mut rec = ticked(&[0]);
        rec.record_event(&ProtocolEvent::DwellComplete { at: t(2) });
    }

    #[test]
    fn trace_round_trips_byte_exactly() {
        let trace = sample_trace();
        let bytes = trace.to_bytes();
        assert_eq!(trace.runs[0].file_len(), bytes.len());
        let back = FleetTrace::from_bytes(&bytes).unwrap();
        assert_eq!(back, trace);
        // Canonical: re-encoding the decoded trace is byte-identical.
        assert_eq!(back.to_bytes(), bytes);
    }

    /// `bytes` with the varint at `at` (one byte long) replaced by `v`.
    fn with_varint(bytes: &[u8], at: usize, v: u64) -> Vec<u8> {
        assert!(bytes[at] < 0x80, "a one-byte varint");
        let mut out = bytes[..at].to_vec();
        wire::put_varu64(&mut out, v);
        out.extend_from_slice(&bytes[at + 1..]);
        out
    }

    #[test]
    fn a_uid_past_u32_is_corrupt_not_truncated() {
        let mut ue = Vec::new();
        UeTrace {
            id: 3,
            uid: 0,
            kind: ProtocolKind::SilentTracker,
            segments: Vec::new(),
        }
        .encode(&mut ue);
        let n_beams = Codebook::for_class(BeamwidthClass::Narrow).len();
        // The uid varint follows the one-byte id.
        let over = with_varint(&ue, 1, (1 << 32) + 1);
        assert_eq!(
            UeTrace::decode(&mut &over[..], n_beams),
            Err(WireError::Corrupt("varint overflows u32"))
        );
        let max = with_varint(&ue, 1, u64::from(u32::MAX));
        assert_eq!(
            UeTrace::decode(&mut &max[..], n_beams).map(|u| u.uid),
            Ok(u32::MAX)
        );
    }

    /// A recorded trace whose uid varint is forged to 2^32 + uid used to
    /// decode as `uid`, replay as that UE with no mismatch, and re-encode
    /// to other bytes than it was read from. The trace codec now rejects
    /// it.
    #[test]
    fn a_forged_uid_fails_to_decode() {
        let trace = sample_trace();
        let bytes = trace.to_bytes();
        // The one UE record ends the file; its uid follows the id.
        let mut ue = Vec::new();
        trace.runs[0].ues[0].encode(&mut ue);
        let uid_at = bytes.len() - ue.len() + 1;
        assert_eq!(with_varint(&bytes, uid_at, 4), bytes, "uid 4 sits there");
        let forged = with_varint(&bytes, uid_at, (1 << 32) + 4);
        assert_eq!(
            FleetTrace::from_bytes(&forged),
            Err(WireError::Corrupt("varint overflows u32"))
        );
    }

    #[test]
    fn min_track_samples_past_u32_is_corrupt_not_truncated() {
        let mut cfg = Vec::new();
        put_tracker_config(&mut cfg, &TrackerConfig::paper_defaults());
        // `min_track_samples` (3) is the last field.
        let last = cfg.len() - 1;
        assert_eq!(cfg[last], 3);
        let over = with_varint(&cfg, last, (1 << 32) + 1);
        assert_eq!(
            get_tracker_config(&mut &over[..]),
            Err(WireError::Corrupt("varint overflows u32"))
        );
        let max = with_varint(&cfg, last, u64::from(u32::MAX));
        assert_eq!(
            get_tracker_config(&mut &max[..]).map(|c| c.min_track_samples),
            Ok(u32::MAX)
        );
    }

    #[test]
    fn corrupt_traces_are_rejected() {
        let trace = sample_trace();
        let mut bytes = trace.to_bytes();
        assert!(FleetTrace::from_bytes(&bytes[..4]).is_err(), "bad magic");
        bytes.push(0);
        assert!(FleetTrace::from_bytes(&bytes).is_err(), "trailing bytes");
    }
}
