//! End-to-end trace record/replay contracts on the smoke fleet.
//!
//! * Recording is an observer: the aggregate summary is byte-identical
//!   with recording on or off.
//! * The recorded trace itself is byte-identical across worker counts —
//!   the trace is a property of (config, seed), not of thread scheduling.
//! * Replaying the trace under the recorded config reproduces every UE's
//!   action stream and final protocol state byte for byte, with no
//!   physical layer or event executive in the loop.
//! * Replay is total on decodable input: a corrupted trace file either
//!   fails to decode or decodes to a trace that replays without
//!   panicking, and a forged tick grid is a decode error or a replay
//!   mismatch, found at once.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use silent_tracker_repro::silent_tracker::{wire, ProtocolEvent, TrackerConfig, WireError};
use silent_tracker_repro::st_des::{SimDuration, SimTime};
use silent_tracker_repro::st_fleet::{
    run_fleet_with_workers, Deployment, FleetConfig, MobilityKind,
};
use silent_tracker_repro::st_mac::pdu::{CellId, UeId};
use silent_tracker_repro::st_net::{
    replay_run, FleetTrace, Proto, ProtocolKind, RunTrace, SegmentTrace, UeTrace,
};
use silent_tracker_repro::st_phy::{BeamId, BeamwidthClass, Codebook, Dbm};

fn smoke_fleet(seed: u64, record: bool) -> FleetConfig {
    Deployment::new()
        .street(200.0, 30.0)
        .cell_row(2, 80.0)
        .tx_beams(8)
        .prach_preambles(4)
        .spawn_region((-25.0, 15.0), (-3.0, 3.0))
        .population(20, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .population(8, MobilityKind::Vehicular, ProtocolKind::Reactive)
        .duration_secs(0.8)
        .seed(seed)
        .shards(2)
        .record_traces(record)
        .build()
        .unwrap()
}

fn recorded_run(cfg: &FleetConfig, workers: usize) -> (String, RunTrace) {
    let mut out = run_fleet_with_workers(cfg, workers);
    let summary = out.summary();
    let run = RunTrace {
        label: "smoke".into(),
        seed: cfg.base.seed,
        duration: cfg.base.duration,
        live_wall_s: 0.0,
        tracker: cfg.base.tracker,
        codebook: cfg.base.ue_codebook,
        ues: std::mem::take(&mut out.totals.ue_traces),
    };
    (summary, run)
}

#[test]
fn recording_does_not_perturb_the_run() {
    let live = run_fleet_with_workers(&smoke_fleet(7, false), 2).summary();
    let (recorded, run) = recorded_run(&smoke_fleet(7, true), 2);
    assert_eq!(live, recorded, "recording changed the simulation");
    assert_eq!(run.ues.len(), 28, "one trace per UE");
    assert!(run.n_events() > 0);
}

#[test]
fn trace_is_byte_identical_across_worker_counts() {
    let cfg = smoke_fleet(7, true);
    let (_, one) = recorded_run(&cfg, 1);
    let (_, four) = recorded_run(&cfg, 4);
    let bytes_one = FleetTrace { runs: vec![one] }.to_bytes();
    let bytes_four = FleetTrace { runs: vec![four] }.to_bytes();
    assert_eq!(bytes_one, bytes_four, "trace depends on worker count");
}

#[test]
fn replay_equals_live_byte_for_byte() {
    let (_, run) = recorded_run(&smoke_fleet(7, true), 4);
    // Round-trip through the on-disk format first: what replay_eval
    // consumes is the decoded file, not the in-memory recording.
    let trace = FleetTrace { runs: vec![run] };
    let decoded = FleetTrace::from_bytes(&trace.to_bytes()).unwrap();
    for workers in [1, 4] {
        let rep = replay_run(&decoded.runs[0], workers);
        assert_eq!(
            rep.mismatches,
            Vec::<String>::new(),
            "replay diverged from live at {workers} workers"
        );
        assert_eq!(rep.ues, 28);
        assert!(rep.events > 0 && rep.actions > 0);
    }
    // The combined digest is itself worker-invariant.
    assert_eq!(
        replay_run(&decoded.runs[0], 1).combined_digest,
        replay_run(&decoded.runs[0], 4).combined_digest
    );
}

/// A recording small enough to corrupt exhaustively: four UEs spawned
/// at the cell boundary for 0.4 s, two of which hand over, so the trace
/// holds multi-segment UEs of both arms and segments that end on
/// trailing ticks. A fifth UE, recorded by hand on the fleet's tick
/// grid, adds a grid tick folded at a record's instant before it, the
/// one tick a trace stores.
fn small_trace() -> FleetTrace {
    let cfg = Deployment::new()
        .street(200.0, 30.0)
        .cell_row(2, 80.0)
        .tx_beams(8)
        .spawn_region((-10.0, 10.0), (-3.0, 3.0))
        .population(3, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .population(1, MobilityKind::Vehicular, ProtocolKind::Reactive)
        .duration_secs(0.4)
        .seed(39)
        .record_traces(true)
        .build()
        .unwrap();
    let (_, mut run) = recorded_run(&cfg, 1);
    run.ues.push(hand_recorded_ue(4));
    FleetTrace { runs: vec![run] }
}

/// UE `id` of the Silent Tracker arm, recorded through a `Proto` fed
/// ticks on the fleet's grid (500 µs, then every millisecond): serving
/// samples on whole milliseconds, one at 3.5 ms after the tick there,
/// and two trailing ticks.
fn hand_recorded_ue(id: u64) -> UeTrace {
    let ms = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);
    let mut proto = Proto::new(
        ProtocolKind::SilentTracker,
        TrackerConfig::paper_defaults(),
        UeId(id as u32 + 1),
        CellId(0),
        Arc::new(Codebook::for_class(BeamwidthClass::Narrow)),
        BeamId(4),
    );
    proto.start_recording();
    let sample = |us: u64| ProtocolEvent::ServingRss {
        at: ms(us),
        rss: Dbm(-60.0 - us as f64 * 1e-3),
    };
    for k in 0..6 {
        proto.handle(sample(1_000 * k));
        proto.handle(ProtocolEvent::Tick {
            at: ms(1_000 * k + 500),
        });
        if k == 3 {
            proto.handle(sample(3_500));
        }
    }
    proto.handle(ProtocolEvent::Tick { at: ms(6_500) });
    let rec = proto.finish_recording().expect("recording is on");
    rec.into_trace(id, id as u32 + 1, ProtocolKind::SilentTracker)
}

/// Explicit tick records in a segment.
fn tick_records(seg: &SegmentTrace) -> usize {
    let (mut buf, mut prev, mut n) = (&seg.events[..], SimTime::ZERO, 0);
    while !buf.is_empty() {
        let (ev, anchor) = ProtocolEvent::decode_from(&mut buf, prev).unwrap();
        prev = anchor;
        n += usize::from(matches!(ev, ProtocolEvent::Tick { .. }));
    }
    n
}

/// Replay what a corruption changed: every segment of `trace` except
/// those the clean recording holds for the same run header, UE identity
/// and arm (the clean recording replays, and a segment's replay depends
/// on nothing else). Returns the panic message, if replay panicked.
fn replay_panics(trace: &FleetTrace, original: &FleetTrace) -> Option<String> {
    let mut runs = trace.runs.clone();
    for run in &mut runs {
        let Some(orig) = original.runs.iter().find(|o| {
            (&o.label, o.seed, o.duration, o.tracker, o.codebook)
                == (
                    &run.label,
                    run.seed,
                    run.duration,
                    run.tracker,
                    run.codebook,
                )
        }) else {
            continue;
        };
        for ue in &mut run.ues {
            let same = orig
                .ues
                .iter()
                .filter(|o| (o.uid, o.kind) == (ue.uid, ue.kind));
            let known: Vec<_> = same.flat_map(|o| &o.segments).collect();
            ue.segments.retain(|seg| !known.contains(&seg));
        }
        run.ues.retain(|ue| !ue.segments.is_empty());
    }
    let replay = AssertUnwindSafe(|| {
        for run in &runs {
            replay_run(run, 1);
        }
    });
    catch_unwind(replay).err().map(|e| {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    })
}

#[test]
fn corrupted_traces_fail_to_decode_or_replay_without_panicking() {
    let original = small_trace();
    let bytes = original.to_bytes();
    assert_eq!(
        original.runs[0].n_segments(),
        7,
        "two of four fleet UEs hand over, and the hand-recorded UE"
    );
    let segments = || original.runs[0].ues.iter().flat_map(|u| &u.segments);
    assert!(segments().any(|seg| seg.trailing_ticks > 0));
    assert_eq!(segments().map(tick_records).sum::<usize>(), 1);
    assert!(replay_run(&original.runs[0], 1).mismatches.is_empty());

    // A file in the previous format fails on its magic.
    let mut old = bytes.clone();
    old[..8].copy_from_slice(b"STTRACE3");
    assert_eq!(
        FleetTrace::from_bytes(&old),
        Err(WireError::Corrupt("trace magic"))
    );

    // Every prefix truncation and every single-bit flip, split over two
    // threads.
    let check = |what: &dyn Fn() -> String, corrupt: &[u8]| {
        let trace = FleetTrace::from_bytes(corrupt).ok()?;
        replay_panics(&trace, &original).map(|panic| format!("{}: {panic}", what()))
    };
    let failures: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let (bytes, check) = (&bytes, &check);
                scope.spawn(move || {
                    let mut failures = Vec::new();
                    for len in (w..bytes.len()).step_by(2) {
                        let what = || format!("truncated to {len} bytes");
                        failures.extend(check(&what, &bytes[..len]));
                    }
                    let mut flipped = bytes.clone();
                    for bit in (w..bytes.len() * 8).step_by(2) {
                        flipped[bit / 8] ^= 1 << (bit % 8);
                        failures.extend(check(&|| format!("bit {bit} flipped"), &flipped));
                        flipped[bit / 8] ^= 1 << (bit % 8);
                    }
                    failures
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert!(
        failures.is_empty(),
        "{} replays panicked: {failures:#?}",
        failures.len()
    );
}

/// A one-segment trace whose second event's time delta overflows the
/// clock (a 5 ns tick, the first of its grid, then tag 7 with a ten-byte
/// varint of `u64::MAX`) replays to a reported mismatch: the event
/// decoder's checked add turns the overflow into a decode error instead
/// of a panic or a silent wrap.
#[test]
fn an_overflowing_event_time_is_a_replay_mismatch_not_a_panic() {
    let mut run = small_trace().runs.remove(0);
    let mut events = vec![0x07, 0x05];
    events.extend([
        0x07, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
    ]);
    let template = &run.ues[0];
    run.ues = vec![UeTrace {
        id: 0,
        segments: vec![SegmentTrace {
            events,
            first_tick: SimTime::from_nanos(5),
            trailing_ticks: 0,
            n_events: 2,
            ..template.segments[0].clone()
        }],
        ..template.clone()
    }];
    // The crafted trace survives the file codec, so it reaches replay.
    let bytes = FleetTrace { runs: vec![run] }.to_bytes();
    let decoded = FleetTrace::from_bytes(&bytes).expect("the container is well formed");
    let report = catch_unwind(AssertUnwindSafe(|| replay_run(&decoded.runs[0], 1)))
        .expect("replay must not panic");
    assert_eq!(report.mismatches.len(), 1, "{:?}", report.mismatches);
    assert!(
        report.mismatches[0].contains("event time overflow"),
        "{:?}",
        report.mismatches
    );
}

/// What a forged trace gives: the decode error, or the replay
/// mismatches of its run. The forgery and its refold must take under a
/// second: synthesising a tick run is O(1) however far apart its ticks
/// lie.
fn decode_or_replay(trace: &FleetTrace) -> Result<Vec<String>, WireError> {
    let started = Instant::now();
    let result = FleetTrace::from_bytes(&trace.to_bytes()).map(|back| {
        let run = &back.runs[0];
        catch_unwind(AssertUnwindSafe(|| replay_run(run, 1)))
            .expect("replay must not panic")
            .mismatches
    });
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "took {:?}",
        started.elapsed()
    );
    result
}

/// `seg`'s records with the first one `by` nanoseconds later; the later
/// records move with it, as their times are deltas.
fn delayed(seg: &SegmentTrace, by: u64) -> Vec<u8> {
    let mut rest = &seg.events[1..];
    let delta = wire::get_varu64(&mut rest).unwrap();
    let mut events = vec![seg.events[0]];
    wire::put_varu64(&mut events, delta + by);
    events.extend_from_slice(rest);
    events
}

/// `seg`'s records replaced by one tick record at `at`.
fn lone_tick(seg: &mut SegmentTrace, at: u64) {
    seg.events.clear();
    ProtocolEvent::Tick {
        at: SimTime::from_nanos(at),
    }
    .encode_from(SimTime::ZERO, &mut seg.events);
}

/// Each forged tick grid, on every segment of the small trace in turn,
/// is a decode error or a replay mismatch: a first tick near the end of
/// the clock, a trailing count of `u64::MAX`, a 2^60 ns gap before a
/// record, whose tick run a loop would take centuries to synthesise, and
/// a tick record at `u64::MAX`, off the grid.
#[test]
fn a_forged_tick_grid_is_a_decode_error_or_a_replay_mismatch() {
    let original = small_trace();
    let run = &original.runs[0];
    for (u, ue) in run.ues.iter().enumerate() {
        for k in 0..ue.segments.len() {
            type Forge = fn(&mut SegmentTrace);
            let forgeries: [(&str, Forge); 4] = [
                ("first tick near the end of the clock", |seg| {
                    seg.first_tick = SimTime::from_nanos(u64::MAX - 10)
                }),
                ("trailing count of u64::MAX", |seg| {
                    seg.trailing_ticks = u64::MAX
                }),
                ("2^60 ns gap before the first record", |seg| {
                    seg.events = delayed(seg, 1 << 60)
                }),
                ("tick record at u64::MAX", |seg| lone_tick(seg, u64::MAX)),
            ];
            for (what, forge) in forgeries {
                let mut forged = original.clone();
                forge(&mut forged.runs[0].ues[u].segments[k]);
                let result = decode_or_replay(&forged);
                assert!(
                    result.as_ref().map_or(true, |m| !m.is_empty()),
                    "ue {u} seg {k}, {what}: {result:?}"
                );
            }
        }
    }
}

/// A lone tick record on the last grid instant of the clock folds as one
/// run through it, after which the next grid tick lies past the clock:
/// a reported mismatch, in debug and release alike, not an overflow
/// panic or a count that wraps and drops the record.
#[test]
fn a_tick_on_the_clocks_last_grid_instant_is_a_replay_mismatch() {
    let mut trace = small_trace();
    let ue = &mut trace.runs[0].ues[0];
    let seg = &mut ue.segments[0];
    let first = seg.first_tick.as_nanos();
    lone_tick(seg, first + (u64::MAX - first) / 1_000_000 * 1_000_000);
    let id = ue.id;
    assert_eq!(
        decode_or_replay(&trace),
        Ok(vec![format!(
            "ue {id} seg 0: tick grid overflows the clock"
        )])
    );
}

/// Attribution marks whose end (`connected` + penalty) overflows the
/// clock used to decode and then panic `autopsy`'s breakdown; the trace
/// codec rejects them.
#[test]
fn marks_ending_past_the_clock_fail_to_decode() {
    let mut trace = small_trace();
    let seg = trace.runs[0]
        .ues
        .iter_mut()
        .flat_map(|u| &mut u.segments)
        .find(|seg| !seg.marks.is_empty())
        .expect("a handover left marks");
    seg.marks[0].connected = SimTime::from_nanos(u64::MAX - 5);
    seg.marks[0].penalty_ns = 100;
    assert_eq!(
        FleetTrace::from_bytes(&trace.to_bytes()),
        Err(WireError::Corrupt("interruption end overflow"))
    );
}

/// A forged one-segment silent trace on the narrow codebook, serving
/// beam 4: twenty serving samples at −60 dBm, probes of beam 3 reading
/// `beam3` (dBm), a probe of beam 5 at −75 dBm and a serving sample at
/// −90 dBm. Folded, the fade sends the mobile to pick the strongest
/// probed beam, ordering beam 3's filtered level against beam 5's.
fn forged_probe_run(beam3: &[f64]) -> RunTrace {
    let at = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);
    let mut events: Vec<_> = (0..20)
        .map(|k| ProtocolEvent::ServingRss {
            at: at(1_000 + 200 * k),
            rss: Dbm(-60.0),
        })
        .collect();
    events.extend(
        (0..)
            .zip(beam3)
            .map(|(k, &rss)| ProtocolEvent::ServingProbe {
                at: at(5_500 + 200 * k),
                rx_beam: BeamId(3),
                rss: Dbm(rss),
            }),
    );
    events.extend([
        ProtocolEvent::ServingProbe {
            at: at(7_000),
            rx_beam: BeamId(5),
            rss: Dbm(-75.0),
        },
        ProtocolEvent::ServingRss {
            at: at(8_000),
            rss: Dbm(-90.0),
        },
    ]);
    let mut bytes = Vec::new();
    let mut prev = SimTime::ZERO;
    for ev in &events {
        prev = ev.encode_from(prev, &mut bytes);
    }
    RunTrace {
        label: "forged".into(),
        seed: 0,
        duration: SimDuration::from_millis(10),
        live_wall_s: 0.0,
        tracker: TrackerConfig::paper_defaults(),
        codebook: BeamwidthClass::Narrow,
        ues: vec![UeTrace {
            id: 0,
            uid: 1,
            kind: ProtocolKind::SilentTracker,
            segments: vec![SegmentTrace {
                serving_cell: 0,
                serving_rx: 4,
                events: bytes,
                // The grid starts after the last record: no ticks.
                first_tick: at(10_500),
                trailing_ticks: 0,
                n_events: events.len() as u64,
                action_count: 0,
                action_digest: 0,
                final_state: Vec::new(),
                marks: Vec::new(),
            }],
        }],
    }
}

/// A NaN probe used to reach the fold and panic it there; the event
/// decoder rejects it, and replay reports the decode error.
#[test]
fn a_non_finite_rss_is_a_replay_mismatch_not_a_panic() {
    let run = forged_probe_run(&[f64::NAN]);
    let report =
        catch_unwind(AssertUnwindSafe(|| replay_run(&run, 1))).expect("replay must not panic");
    assert_eq!(report.mismatches.len(), 1, "{:?}", report.mismatches);
    assert!(
        report.mismatches[0].contains("event decode: corrupt input: non-finite rss"),
        "{:?}",
        report.mismatches
    );
}

/// Finite probes at `+MAX`, `−MAX`, `+MAX` decode, and drive beam 3's
/// EWMA to −inf and then NaN (inf − inf). The fold orders that NaN
/// instead of panicking, so the forged trace replays to the end.
#[test]
fn an_rss_at_the_edge_of_f64_replays_without_panicking() {
    let run = forged_probe_run(&[f64::MAX, -f64::MAX, f64::MAX]);
    let report =
        catch_unwind(AssertUnwindSafe(|| replay_run(&run, 1))).expect("replay must not panic");
    assert_eq!(report.events, run.n_events(), "every event folds");
    assert!(
        report.mismatches.iter().all(|m| !m.contains("decode")),
        "{:?}",
        report.mismatches
    );
}
