//! Replay a recorded fleet trace and report refold throughput.
//! Usage: `replay_eval --trace PATH [--workers N] [--json PATH]
//!                     [--live-agg PATH] [--replay-agg PATH]`
//!
//! The one command that refolds a trace (`fleet_load --record PATH`
//! writes one). Loads the [`st_net::FleetTrace`] at `--trace`, refolds
//! every recorded run under its recorded configuration with
//! byte-equality verification, and prints one line per run: UEs, event
//! records, replay wall-clock, UE-seconds refolded per wall-second, and
//! the speedup over the recorded live wall-clock. Exits nonzero if any run's action stream or final
//! state diverges from the recording. Before each refold it prints the
//! run's record mix, from one decode pass outside the timed refold: the
//! events of each kind, with their records' encoded bytes, and the tick
//! runs the refold synthesises from the tick grid, which have no record
//! of their own, so that the rows sum to the refold's event count. Its
//! header gives the run's trace bytes per UE-second: the bytes of a trace
//! file holding the run alone, as perfbench's
//! `st_net.trace_bytes_per_ue_s` counts them.
//!
//! `--live-agg` / `--replay-agg` write matching aggregate files — one
//! line per run, the live line derived from the digests *recorded in the
//! trace*, the replay line from the refolded digests — so CI can `cmp`
//! them byte for byte.
//!
//! `--json PATH` writes the same rows to PATH as one JSON document, for
//! perf tracking.

use std::fmt::Write as _;
use std::path::Path;

use silent_tracker::wire::Fnv64;
use silent_tracker::ProtocolEvent;
use st_des::SimTime;
use st_net::{replay_run_timed, FleetTrace, RunTrace};

/// Event kinds in wire-tag order, then the synthesised tick runs.
const KINDS: [&str; 9] = [
    "serving_rss",
    "serving_probe",
    "neighbor_ssb",
    "dwell_complete",
    "from_serving",
    "serving_link_lost",
    "rach_failed",
    "tick",
    "synthesised_run",
];

/// Events and encoded bytes per event kind (indexed as [`KINDS`]) over
/// every segment of `run`. A segment stops at its first undecodable
/// record, which the refold reports as a mismatch. A record counts as
/// one event (an explicit tick as the run it ends); the last row counts
/// the recorded events no record holds, the tick runs the refold
/// synthesises before a record or at a segment's end.
fn record_mix(run: &RunTrace) -> [(u64, u64); 9] {
    let mut mix = [(0, 0); 9];
    for seg in run.ues.iter().flat_map(|u| &u.segments) {
        let (mut buf, mut prev) = (&seg.events[..], SimTime::ZERO);
        while !buf.is_empty() {
            let before = buf.len();
            let Ok(ev) = ProtocolEvent::decode_from(&mut buf, prev) else {
                break;
            };
            prev = ev.at();
            let kind = match ev {
                ProtocolEvent::ServingRss { .. } => 0,
                ProtocolEvent::ServingProbe { .. } => 1,
                ProtocolEvent::NeighborSsb { .. } => 2,
                ProtocolEvent::DwellComplete { .. } => 3,
                ProtocolEvent::FromServing { .. } => 4,
                ProtocolEvent::ServingLinkLost { .. } => 5,
                ProtocolEvent::RachFailed { .. } => 6,
                ProtocolEvent::Tick { .. } => 7,
                ProtocolEvent::TickRun { .. } => unreachable!("a tick run is never recorded"),
            };
            mix[kind].0 += 1;
            mix[kind].1 += (before - buf.len()) as u64;
        }
    }
    let records: u64 = mix.iter().map(|m| m.0).sum();
    mix[8].0 = run.n_events().saturating_sub(records);
    mix
}

/// The record-mix table of one run: a total line, then one line per
/// event kind with its share of the events and of the event bytes.
fn print_record_mix(run: &RunTrace, mix: &[(u64, u64); 9]) {
    let events: u64 = mix.iter().map(|m| m.0).sum();
    let bytes: u64 = mix.iter().map(|m| m.1).sum();
    println!(
        "record mix {}: {events} events, {} records, {bytes} event bytes; \
         {:.0} trace bytes per UE-second",
        run.label,
        events - mix[8].0,
        run.file_len() as f64 / run.ue_seconds().max(1e-9),
    );
    for (name, &(n, b)) in KINDS.iter().zip(mix) {
        println!(
            "  {name:<17} {n:>10} events ({:>5.1}%) {b:>11} bytes ({:>5.1}%)",
            100.0 * n as f64 / events.max(1) as f64,
            100.0 * b as f64 / bytes.max(1) as f64,
        );
    }
}

/// The aggregate line for one run, from digests already in the trace —
/// what the live run produced, without refolding anything.
fn live_agg_line(run: &RunTrace) -> String {
    let mut combined = Fnv64::new();
    let mut segments = 0u64;
    let mut actions = 0u64;
    for ue in &run.ues {
        for seg in &ue.segments {
            combined.write(&seg.action_digest.to_be_bytes());
            segments += 1;
            actions += seg.action_count;
        }
    }
    format!(
        "run={} ues={} segments={segments} actions={actions} digest={:016x}",
        run.label,
        run.ues.len(),
        combined.finish()
    )
}

fn main() {
    let mut trace_path: Option<String> = None;
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut json_path: Option<String> = None;
    let mut live_agg_path: Option<String> = None;
    let mut replay_agg_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => trace_path = Some(args.next().expect("--trace PATH")),
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers N");
            }
            "--json" => json_path = Some(args.next().expect("--json PATH")),
            "--live-agg" => live_agg_path = Some(args.next().expect("--live-agg PATH")),
            "--replay-agg" => replay_agg_path = Some(args.next().expect("--replay-agg PATH")),
            other => panic!("unknown argument {other}"),
        }
    }
    let trace_path = trace_path.expect("--trace PATH is required");
    let trace = FleetTrace::load(Path::new(&trace_path))
        .unwrap_or_else(|e| panic!("could not load trace {trace_path}: {e}"));

    let mut live_agg = String::new();
    let mut replay_agg = String::new();
    let mut json_rows = String::new();
    let mut failed = false;
    for (i, run) in trace.runs.iter().enumerate() {
        print_record_mix(run, &record_mix(run));
        // Best-of-3: the refold is deterministic, so the minimum wall
        // time is the noise-robust throughput estimate.
        let (rep, wall_s) = replay_run_timed(run, workers, 3);
        println!(
            "replay {}: {} ues, {} segments, {} events, {:.1} ms wall, \
             {:.0} ue_s/wall_s ({:.0}x live {:.2} s), verified={}",
            rep.label,
            rep.ues,
            rep.segments,
            rep.events,
            wall_s * 1e3,
            rep.ue_seconds / wall_s,
            rep.live_wall_s / wall_s,
            rep.live_wall_s,
            rep.mismatches.is_empty(),
        );
        for m in &rep.mismatches {
            eprintln!("  mismatch: {m}");
            failed = true;
        }
        writeln!(live_agg, "{}", live_agg_line(run)).unwrap();
        writeln!(
            replay_agg,
            "run={} ues={} segments={} actions={} digest={:016x}",
            rep.label, rep.ues, rep.segments, rep.actions, rep.combined_digest
        )
        .unwrap();
        let sep = if i + 1 == trace.runs.len() { "" } else { "," };
        writeln!(
            json_rows,
            "    {{\"run\": \"{}\", \"ues\": {}, \"events\": {}, \"wall_s\": {:.4}, \
             \"ue_seconds_per_wall_second\": {:.0}, \"speedup_vs_live\": {:.1}, \
             \"verified\": {}}}{sep}",
            rep.label,
            rep.ues,
            rep.events,
            wall_s,
            rep.ue_seconds / wall_s,
            rep.live_wall_s / wall_s,
            rep.mismatches.is_empty(),
        )
        .unwrap();
    }

    if let Some(p) = live_agg_path {
        std::fs::write(&p, &live_agg).unwrap_or_else(|e| panic!("write {p}: {e}"));
    }
    if let Some(p) = replay_agg_path {
        std::fs::write(&p, &replay_agg).unwrap_or_else(|e| panic!("write {p}: {e}"));
    }
    if let Some(p) = json_path {
        let json = format!(
            "{{\n  \"bench\": \"replay_eval\",\n  \"trace\": \"{trace_path}\",\n  \
             \"workers\": {workers},\n  \"runs\": [\n{json_rows}  ]\n}}\n"
        );
        std::fs::write(&p, json).unwrap_or_else(|e| panic!("write {p}: {e}"));
        println!("perf artifact: {p}");
    }
    if failed {
        std::process::exit(1);
    }
}
