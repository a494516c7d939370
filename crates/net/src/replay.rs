//! Trace replay: re-evaluate the protocol core against a recorded event
//! stream, with no physical layer and no event executive in the loop.
//!
//! Because the protocol core is a pure fold ([`step_mut`]), replay is
//! just: rebuild each segment's [`ProtocolCtx`], anchor the arm's initial
//! state on the recorded serving cell and beam (every incarnation starts
//! cold), decode the recorded events and fold them. For the **recorded**
//! configuration the refold is byte-identical to the live run —
//! [`replay_run`] proves it by re-deriving each segment's action digest
//! and final-state snapshot and comparing them byte for byte.
//!
//! Replaying under a **different** [`TrackerConfig`]
//! ([`replay_run_with_config`]) re-evaluates a protocol variant against
//! the same radio history in milliseconds instead of re-simulating.
//! Caveat: the replay is open-loop — the recorded events embody the
//! *recorded* protocol's beam choices (RSS samples were measured on the
//! beams it selected), so variant results are an approximation whose
//! fidelity degrades with how far the variant's beam trajectory diverges.
//! Digest verification is disabled in that mode.

use std::sync::Arc;

use silent_tracker::wire::Fnv64;
use silent_tracker::{step_mut, ProtocolCtx, ProtocolEvent, TrackerConfig};
use st_mac::pdu::{CellId, UeId};
use st_phy::codebook::{BeamId, Codebook};

use crate::proto::anchored_state;
use crate::trace::{RunTrace, UeTrace};

/// Aggregate of one replayed run.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    pub label: String,
    pub ues: u64,
    pub segments: u64,
    /// Event records folded (tick runs count as one).
    pub events: u64,
    /// Actions the refold emitted.
    pub actions: u64,
    /// Completed handovers implied by the trace (segment boundaries).
    pub handovers: u64,
    /// FNV-1a over the per-segment refolded action digests, in global UE
    /// order — one number summarizing the whole action history.
    pub combined_digest: u64,
    /// UE-seconds of simulated radio time the run covers.
    pub ue_seconds: f64,
    /// Wall-clock seconds the live run took (from the trace header).
    pub live_wall_s: f64,
    /// Byte-equality failures (empty on a verified replay of the
    /// recorded config).
    pub mismatches: Vec<String>,
}

/// Per-UE refold result (internal).
struct UeReplay {
    events: u64,
    actions: u64,
    segment_digests: Vec<u64>,
    mismatches: Vec<String>,
}

fn replay_ue(cfg: TrackerConfig, codebook: &Arc<Codebook>, ut: &UeTrace, verify: bool) -> UeReplay {
    let mut r = UeReplay {
        events: 0,
        actions: 0,
        segment_digests: Vec::with_capacity(ut.segments.len()),
        mismatches: Vec::new(),
    };
    let mut out = Vec::new();
    for (k, seg) in ut.segments.iter().enumerate() {
        let ctx = ProtocolCtx::new(
            cfg,
            UeId(ut.uid),
            CellId(seg.serving_cell),
            Arc::clone(codebook),
        );
        let mut state = anchored_state(ut.kind, &ctx, BeamId(seg.serving_rx));
        let mut digest = Fnv64::new();
        let mut actions = 0u64;
        let mut buf: &[u8] = &seg.events;
        let mut events = 0u64;
        let mut failed = false;
        let mut prev = st_des::SimTime::ZERO;
        while !buf.is_empty() {
            let ev = match ProtocolEvent::decode_from(&mut buf, prev) {
                Ok((ev, anchor)) => {
                    prev = anchor;
                    ev
                }
                Err(e) => {
                    r.mismatches
                        .push(format!("ue {} seg {k}: event decode: {e}", ut.id));
                    failed = true;
                    break;
                }
            };
            events += 1;
            out.clear();
            step_mut(&ctx, &mut state, &ev, &mut out);
            for a in &out {
                a.encode(&mut digest);
            }
            actions += out.len() as u64;
        }
        let digest = digest.finish();
        r.events += events;
        r.actions += actions;
        r.segment_digests.push(digest);
        if verify && !failed {
            if events != seg.n_events {
                r.mismatches.push(format!(
                    "ue {} seg {k}: folded {events} events, trace recorded {}",
                    ut.id, seg.n_events
                ));
            }
            if actions != seg.action_count || digest != seg.action_digest {
                r.mismatches.push(format!(
                    "ue {} seg {k}: action stream diverged \
                     ({actions} actions digest {digest:016x}, live {} digest {:016x})",
                    ut.id, seg.action_count, seg.action_digest
                ));
            }
            let mut final_bytes = Vec::with_capacity(seg.final_state.len());
            state.encode(&mut final_bytes);
            if final_bytes != seg.final_state {
                r.mismatches
                    .push(format!("ue {} seg {k}: final state diverged", ut.id));
            }
        }
    }
    r
}

fn replay_inner(run: &RunTrace, cfg: TrackerConfig, workers: usize, verify: bool) -> ReplayReport {
    let codebook = Arc::new(Codebook::for_class(run.codebook));
    let n = run.ues.len();
    let workers = workers.clamp(1, n.max(1));
    let chunk = n.div_ceil(workers).max(1);
    let mut results: Vec<Option<UeReplay>> = (0..n).map(|_| None).collect();

    std::thread::scope(|scope| {
        for (slots, ues) in results.chunks_mut(chunk).zip(run.ues.chunks(chunk)) {
            let codebook = &codebook;
            scope.spawn(move || {
                for (slot, ut) in slots.iter_mut().zip(ues) {
                    *slot = Some(replay_ue(cfg, codebook, ut, verify));
                }
            });
        }
    });

    let mut report = ReplayReport {
        label: run.label.clone(),
        ues: n as u64,
        segments: run.n_segments(),
        events: 0,
        actions: 0,
        handovers: run
            .ues
            .iter()
            .map(|u| u.segments.len().saturating_sub(1) as u64)
            .sum(),
        combined_digest: 0,
        ue_seconds: run.ue_seconds(),
        live_wall_s: run.live_wall_s,
        mismatches: Vec::new(),
    };
    // Deterministic merge in global UE order, independent of workers.
    let mut combined = Fnv64::new();
    for r in results.into_iter().flatten() {
        report.events += r.events;
        report.actions += r.actions;
        for d in r.segment_digests {
            combined.write(&d.to_be_bytes());
        }
        report.mismatches.extend(r.mismatches);
    }
    report.combined_digest = combined.finish();
    report
}

/// Replay one recorded run under its **recorded** configuration,
/// verifying byte equality with the live action streams and final
/// states. A clean replay returns `mismatches.is_empty()`.
pub fn replay_run(run: &RunTrace, workers: usize) -> ReplayReport {
    replay_inner(run, run.tracker, workers, true)
}

/// Replay `run` `passes` times and return the report plus the minimum
/// wall-clock across passes. The refold is deterministic, so every pass
/// produces the same report and the minimum is the noise-robust
/// throughput estimator on a shared or loaded machine.
pub fn replay_run_timed(run: &RunTrace, workers: usize, passes: usize) -> (ReplayReport, f64) {
    let mut best: Option<(ReplayReport, f64)> = None;
    for _ in 0..passes.max(1) {
        let start = std::time::Instant::now();
        let rep = replay_run(run, workers);
        let wall = start.elapsed().as_secs_f64();
        match &best {
            Some((_, b)) if *b <= wall => {}
            _ => best = Some((rep, wall)),
        }
    }
    best.expect("at least one replay pass")
}

/// Replay one recorded run under a **different** configuration
/// (open-loop re-evaluation; see the module docs for the caveat).
/// Digest verification is off — the action stream is *expected* to
/// differ from the recording.
pub fn replay_run_with_config(
    run: &RunTrace,
    tracker: TrackerConfig,
    workers: usize,
) -> ReplayReport {
    replay_inner(run, tracker, workers, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;
    use crate::trace::{FleetTrace, SegmentTrace};
    use st_des::{SimDuration, SimTime};
    use st_phy::codebook::BeamwidthClass;
    use st_phy::units::{Db, Dbm};

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Record a little protocol history by hand (no simulator), then
    /// replay it and check byte equality end to end.
    fn record_one(kind: ProtocolKind) -> RunTrace {
        let cfg = TrackerConfig::paper_defaults();
        let codebook = Arc::new(Codebook::for_class(BeamwidthClass::Narrow));
        let mut proto = crate::proto::Proto::new(
            kind,
            cfg,
            UeId(5),
            CellId(0),
            Arc::clone(&codebook),
            BeamId(4),
        );
        proto.start_recording();
        for k in 0..40u64 {
            proto.handle(silent_tracker::ProtocolEvent::Tick { at: t(k) });
            if k % 5 == 0 {
                proto.handle(silent_tracker::ProtocolEvent::ServingRss {
                    at: t(k),
                    rss: Dbm(-60.0 - k as f64 * 0.3),
                });
            }
            if k % 10 == 3 {
                proto.handle(silent_tracker::ProtocolEvent::NeighborSsb {
                    at: t(k),
                    cell: CellId(1),
                    tx_beam: 2,
                    rx_beam: proto.gap_rx_beam(),
                    rss: Dbm(-58.0),
                });
                proto.handle(silent_tracker::ProtocolEvent::DwellComplete { at: t(k + 1) });
            }
        }
        let rec = proto.finish_recording().unwrap();
        let ue = rec.into_trace(0, 5, kind);
        RunTrace {
            label: "unit".into(),
            seed: 1,
            duration: SimDuration::from_millis(40),
            live_wall_s: 0.01,
            tracker: cfg,
            codebook: BeamwidthClass::Narrow,
            ues: vec![ue],
        }
    }

    #[test]
    fn replay_reproduces_the_live_fold_byte_exactly() {
        for kind in [ProtocolKind::SilentTracker, ProtocolKind::Reactive] {
            let run = record_one(kind);
            assert!(run.n_events() > 0);
            let rep = replay_run(&run, 2);
            assert_eq!(rep.mismatches, Vec::<String>::new(), "{kind:?}");
            assert_eq!(rep.ues, 1);
            // The trace round-trips through bytes and still verifies.
            let trace = FleetTrace {
                runs: vec![run.clone()],
            };
            let back = FleetTrace::from_bytes(&trace.to_bytes()).unwrap();
            let rep2 = replay_run(&back.runs[0], 1);
            assert!(rep2.mismatches.is_empty());
            assert_eq!(rep2.combined_digest, rep.combined_digest);
        }
    }

    /// Fold one scripted history per arm through a recording `Proto`,
    /// with every event kind where it acts: a serving probe, a CABM
    /// request answered by a `BeamSwitchCommand`, a lone tick, a tick run
    /// across the assistance deadline, a neighbor found by search,
    /// serving-link loss and a RACH failure after the handover directive.
    /// The verified refold, which decodes and folds each record in one
    /// loop, must reproduce the live fold byte for byte.
    #[test]
    fn every_record_kind_refolds_byte_exactly_in_both_arms() {
        use crate::proto::Proto;
        use silent_tracker::{Action, ProtocolEvent};
        use st_mac::pdu::Pdu;

        for kind in [ProtocolKind::SilentTracker, ProtocolKind::Reactive] {
            let silent = kind == ProtocolKind::SilentTracker;
            let cfg = TrackerConfig::paper_defaults();
            let codebook = Arc::new(Codebook::for_class(BeamwidthClass::Narrow));
            let mut proto = Proto::new(
                kind,
                cfg,
                UeId(5),
                CellId(0),
                Arc::clone(&codebook),
                BeamId(4),
            );
            proto.start_recording();
            let rss = |ms: u64, dbm: f64| ProtocolEvent::ServingRss {
                at: t(ms),
                rss: Dbm(dbm),
            };
            let cabm_requests = |p: &Proto| p.stats().map(|s| s.cabm_requests);
            let assist_lost = |p: &Proto| p.stats().map(|s| s.assist_lost);
            let request = Action::SendToServing(Pdu::BeamSwitchRequest {
                cell: CellId(0),
                ue: UeId(5),
                suggested_tx_beam: u16::MAX,
            });

            for ms in 0..3 {
                proto.handle(rss(ms, -60.0));
            }
            // An adjacent beam too weak to switch to.
            proto.handle(ProtocolEvent::ServingProbe {
                at: t(3),
                rx_beam: codebook.adjacent(BeamId(4))[0],
                rss: Dbm(-90.0),
            });
            // A 7 dB drop starts mobile-side adaptation; still down a
            // settle time later, it asks the cell for help (deadline 110 ms).
            proto.handle(rss(5, -80.0));
            let acts = proto.handle(rss(50, -80.0)).to_vec();
            assert_eq!(acts.contains(&request), silent, "{kind:?}");
            proto.handle(ProtocolEvent::FromServing {
                at: t(60),
                pdu: Pdu::BeamSwitchCommand {
                    cell: CellId(0),
                    tx_beam: 3,
                },
            });
            proto.handle(ProtocolEvent::Tick { at: t(61) });
            // The answered request left CABM, so a second drop asks again
            // (deadline 170 ms).
            for (ms, dbm) in [(62, -80.0), (63, -90.0), (110, -90.0)] {
                proto.handle(rss(ms, dbm));
            }
            assert_eq!(cabm_requests(&proto), silent.then_some(2), "{kind:?}");
            assert_eq!(assist_lost(&proto), silent.then_some(0), "{kind:?}");
            // Ticks every millisecond past the deadline: recorded as one run.
            for ms in 111..=200 {
                proto.handle(ProtocolEvent::Tick { at: t(ms) });
            }
            assert_eq!(assist_lost(&proto), silent.then_some(1), "{kind:?}");

            // Silent Tracker finds and tracks a neighbor too weak to hand
            // over to; the reactive arm is not searching and ignores it.
            let mut ms = 201;
            let dwell = |proto: &mut Proto, ms: &mut u64| {
                proto.handle(ProtocolEvent::NeighborSsb {
                    at: t(*ms),
                    cell: CellId(1),
                    tx_beam: 2,
                    rx_beam: proto.gap_rx_beam(),
                    rss: Dbm(-95.0),
                });
                *ms += 1;
                let acts = proto.handle(ProtocolEvent::DwellComplete { at: t(*ms) });
                *ms += 1;
                acts.to_vec()
            };
            for _ in 0..6 {
                dwell(&mut proto, &mut ms);
            }
            assert_eq!(proto.tracked().is_some(), silent, "{kind:?}");

            // Losing the serving link hands Silent Tracker over to the
            // tracked beam; the reactive arm starts a cold search, which
            // the same neighbor ends with a directive.
            let acts = proto
                .handle(ProtocolEvent::ServingLinkLost { at: t(ms) })
                .to_vec();
            ms += 1;
            let handover = |a: &[Action]| a.iter().any(|a| matches!(a, Action::ExecuteHandover(_)));
            assert_eq!(handover(&acts), silent, "{kind:?}");
            if !silent {
                let found = (0..8).any(|_| handover(&dwell(&mut proto, &mut ms)));
                assert!(found, "the reactive search finds the neighbor");
            }
            // Random access fails: both arms search again.
            let acts = proto
                .handle(ProtocolEvent::RachFailed { at: t(ms) })
                .to_vec();
            assert!(
                acts.iter().any(|a| matches!(a, Action::SetGapRxBeam(_))),
                "{kind:?}: {acts:?}"
            );
            proto.handle(rss(ms + 1, -70.0));

            let rec = proto.finish_recording().unwrap();
            let ue = rec.into_trace(0, 5, kind);
            assert_eq!(ue.segments.len(), 1);
            // Every event kind was recorded, the ticks past the deadline
            // as one run.
            let mut seen = [false; 9];
            let (mut buf, mut prev) = (&ue.segments[0].events[..], SimTime::ZERO);
            while !buf.is_empty() {
                let (ev, anchor) = ProtocolEvent::decode_from(&mut buf, prev).unwrap();
                prev = anchor;
                seen[match ev {
                    ProtocolEvent::ServingRss { .. } => 0,
                    ProtocolEvent::ServingProbe { .. } => 1,
                    ProtocolEvent::NeighborSsb { .. } => 2,
                    ProtocolEvent::DwellComplete { .. } => 3,
                    ProtocolEvent::FromServing { .. } => 4,
                    ProtocolEvent::ServingLinkLost { .. } => 5,
                    ProtocolEvent::RachFailed { .. } => 6,
                    ProtocolEvent::Tick { at } => {
                        assert_eq!(at, t(61));
                        7
                    }
                    ProtocolEvent::TickRun {
                        start,
                        period,
                        count,
                    } => {
                        assert_eq!(
                            (start, period, count),
                            (t(111), SimDuration::from_millis(1), 90)
                        );
                        8
                    }
                }] = true;
            }
            assert_eq!(seen, [true; 9], "{kind:?}");

            let run = RunTrace {
                label: "every kind".into(),
                seed: 1,
                duration: SimDuration::from_millis(ms + 1),
                live_wall_s: 0.01,
                tracker: cfg,
                codebook: BeamwidthClass::Narrow,
                ues: vec![ue],
            };
            let rep = replay_run(&run, 1);
            assert_eq!(rep.mismatches, Vec::<String>::new(), "{kind:?}");
        }
    }

    #[test]
    fn variant_config_replays_open_loop() {
        let run = record_one(ProtocolKind::SilentTracker);
        let mut variant = run.tracker;
        variant.switch_threshold = Db(1.0);
        variant.handover_hysteresis = Db(1.5);
        let rep = replay_run_with_config(&run, variant, 1);
        // No verification, so no mismatches — but the fold ran.
        assert!(rep.mismatches.is_empty());
        assert_eq!(rep.events, run.n_events());
    }

    /// Each tampering of the recorded segment is exactly one mismatch:
    /// a changed action digest, and a final state with one byte flipped
    /// or its last byte dropped. The verified refold is the only reader
    /// of the final-state bytes.
    #[test]
    fn tampered_traces_fail_verification() {
        type Tamper = fn(&mut SegmentTrace);
        let cases: [(Tamper, &str); 3] = [
            (|seg| seg.action_digest ^= 1, "action stream diverged ("),
            (
                |seg| {
                    let mid = seg.final_state.len() / 2;
                    seg.final_state[mid] ^= 0x01;
                },
                "final state diverged",
            ),
            (
                |seg| {
                    seg.final_state.pop().expect("a recorded final state");
                },
                "final state diverged",
            ),
        ];
        for (tamper, what) in cases {
            let mut run = record_one(ProtocolKind::SilentTracker);
            assert_eq!(run.ues[0].segments.len(), 1);
            tamper(&mut run.ues[0].segments[0]);
            let rep = replay_run(&run, 1);
            assert_eq!(rep.mismatches.len(), 1, "{what}: {:?}", rep.mismatches);
            assert!(
                rep.mismatches[0].starts_with(&format!("ue 0 seg 0: {what}")),
                "{what}: {:?}",
                rep.mismatches
            );
        }
    }

    /// A handover closes the open segment and re-anchors the protocol
    /// cold on the new cell: the second segment records the new anchor,
    /// and replay rebuilds its initial state from that anchor alone and
    /// still reproduces the live fold byte for byte.
    #[test]
    fn reanchored_segment_restarts_cold_and_round_trips_through_replay() {
        let cfg = TrackerConfig::paper_defaults();
        let codebook = Arc::new(Codebook::for_class(BeamwidthClass::Narrow));
        let serving_rss = |k: u64| silent_tracker::ProtocolEvent::ServingRss {
            at: t(k),
            rss: Dbm(-60.0 - k as f64),
        };
        let mut proto = crate::proto::Proto::new(
            ProtocolKind::SilentTracker,
            cfg,
            UeId(5),
            CellId(0),
            Arc::clone(&codebook),
            BeamId(4),
        );
        proto.start_recording();
        for k in 0..5u64 {
            proto.handle(serving_rss(k));
        }
        // Hand over to cell 1 on beam 6, as `Driver::complete_handover` does.
        proto.reanchor(CellId(1), BeamId(6));
        for k in 5..10u64 {
            proto.handle(serving_rss(k));
        }
        let rec = proto.finish_recording().unwrap();
        let ue = rec.into_trace(0, 5, ProtocolKind::SilentTracker);
        assert_eq!(ue.segments.len(), 2);
        assert_eq!(
            (ue.segments[0].serving_cell, ue.segments[0].serving_rx),
            (0, 4)
        );
        assert_eq!(
            (ue.segments[1].serving_cell, ue.segments[1].serving_rx),
            (1, 6)
        );

        // The second incarnation is exactly a fresh protocol on cell 1.
        let mut fresh = crate::proto::Proto::new(
            ProtocolKind::SilentTracker,
            cfg,
            UeId(5),
            CellId(1),
            Arc::clone(&codebook),
            BeamId(6),
        );
        fresh.start_recording();
        for k in 5..10u64 {
            fresh.handle(serving_rss(k));
        }
        let fresh = fresh.finish_recording().unwrap();
        let fresh = fresh.into_trace(0, 5, ProtocolKind::SilentTracker);
        assert_eq!(ue.segments[1], fresh.segments[0]);

        let run = RunTrace {
            label: "handover".into(),
            seed: 1,
            duration: SimDuration::from_millis(10),
            live_wall_s: 0.01,
            tracker: cfg,
            codebook: BeamwidthClass::Narrow,
            ues: vec![ue],
        };
        let trace = FleetTrace { runs: vec![run] };
        let back = FleetTrace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(back, trace);
        let rep = replay_run(&back.runs[0], 1);
        assert!(rep.mismatches.is_empty(), "{:?}", rep.mismatches);
        assert_eq!((rep.segments, rep.handovers), (2, 1));
    }
}
