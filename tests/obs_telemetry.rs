//! Observability-layer contracts: streaming sketches, the snapshot
//! timeline and the run profiler.
//!
//! * **Worker invariance** — the merged interruption sketches, the
//!   timeline JSON and the profiler's work counters are byte-identical
//!   at 1/2/4/8 workers. Worker threads are an execution detail; only
//!   shard count is a config property.
//! * **Constant memory** — a fleet retains no raw sample vectors;
//!   quantiles flow through the fixed-size log-bucketed sketch.

mod common;

use silent_tracker_repro::st_des::SimDuration;
use silent_tracker_repro::st_fleet::{
    run_fleet_with_workers, Deployment, FleetConfig, FleetOutcome, MobilityKind, SnapshotSlice,
};
use silent_tracker_repro::st_net::ProtocolKind;

/// Simulated seconds of the fixture's short run, whose timeline the
/// slice-count assertions pin.
const SHORT_S: f64 = 0.9;

/// Simulated seconds of the run behind the tests that need a soft
/// handover to look at. Over seeds 0–399 this fixture makes no soft
/// handover at all in 98 runs at 0.9 s, 17 at 2 s, 3 at 3 s and none at
/// 4 s; seed 7 makes 17 at 4 s.
const LONG_S: f64 = 4.0;

/// A small mixed fleet with snapshots armed: enough contention to light
/// every telemetry field, small enough for debug-build CI. Four cells
/// give each of the four shards a spawn tile.
fn obs_fleet(seed: u64) -> FleetConfig {
    obs_fleet_for(seed, SHORT_S)
}

fn obs_fleet_for(seed: u64, secs: f64) -> FleetConfig {
    Deployment::new()
        .street(200.0, 30.0)
        .cell_row(4, 40.0)
        .tx_beams(8)
        .prach_preambles(4)
        .spawn_region((-25.0, 15.0), (-3.0, 3.0))
        .population(20, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .population(8, MobilityKind::Vehicular, ProtocolKind::Reactive)
        .duration_secs(secs)
        .seed(seed)
        .shards(4)
        .snapshot_interval_secs(0.2)
        .build()
        .unwrap()
}

/// Everything the determinism contract covers, as one comparable blob.
fn deterministic_blob(out: &FleetOutcome) -> String {
    format!(
        "summary:{}\ncounters:{}\ntimeline:{}",
        out.summary(),
        out.profile().counters_json(),
        out.timeline_json().unwrap_or_else(|| "none".into()),
    )
}

#[test]
fn telemetry_is_worker_invariant_in_both_contention_modes() {
    let cfg = obs_fleet(7);
    let base = deterministic_blob(&run_fleet_with_workers(&cfg, 1));
    for workers in [2, 4, 8] {
        let other = deterministic_blob(&run_fleet_with_workers(&cfg, workers));
        assert_eq!(base, other, "telemetry diverged at {workers} workers");
    }
    // The blob actually carried a timeline and non-trivial counters.
    assert!(!base.contains("timeline:none"), "{base}");
    assert!(base.contains("des.events_popped"), "{base}");
    assert!(base.contains("stage.resolved_preambles"), "{base}");
}

#[test]
fn default_mode_retains_no_raw_samples() {
    let cfg = obs_fleet_for(7, LONG_S);
    let out = run_fleet_with_workers(&cfg, 4);
    // Quantiles are served from the sketch, whose footprint is fixed:
    // buckets × u64, independent of n.
    let soft = out.soft_stats().expect("soft interruptions recorded");
    assert_eq!(soft.n, out.totals.soft_sketch.count());
    assert!(soft.n > 0);
    let empty = silent_tracker_repro::st_metrics::QuantileSketch::latency_ms();
    assert_eq!(out.totals.soft_sketch.memory_bytes(), empty.memory_bytes());
    assert_eq!(out.totals.soft_sketch.n_buckets(), empty.n_buckets());
}

#[test]
fn timeline_slices_cover_the_run_and_sum_to_totals() {
    let cfg = obs_fleet(7);
    let out = run_fleet_with_workers(&cfg, 4);
    let ring = out.timeline().expect("snapshots armed");
    // 0.9 s at 0.2 s slices: four full boundaries + the sealed tail.
    assert_eq!(ring.slices().len(), 5);
    let handovers: u64 = ring.slices().iter().map(|s| s.handovers).sum();
    assert_eq!(handovers, out.totals.handovers);
    let rlfs: u64 = ring.slices().iter().map(|s| s.rlfs).sum();
    assert_eq!(rlfs, out.totals.rlfs);
    // Interruption sketches sliced by interval re-merge to the totals.
    let sliced: u64 = ring.slices().iter().map(|s| s.soft.count()).sum();
    assert_eq!(sliced, out.totals.soft_sketch.count());
    // The timeline JSON carries the schema tag and no wall-clock keys.
    let json = out.timeline_json().unwrap();
    assert!(json.contains("st-fleet-timeline-v2"), "{json}");
    // v2 slices carry the per-cause interruption counts.
    assert!(json.contains("\"causes\": {\"blockage-onset\""), "{json}");
    assert!(!json.contains("wall"), "{json}");
}

/// What happens at exactly t = duration lands in the last slice, also
/// when the duration is a whole number of snapshot intervals: the 0.93 s
/// street ends on a beam-0 PRACH occasion, so preambles leave at the
/// run's last instant.
#[test]
fn the_last_slice_keeps_what_happens_at_the_run_end() {
    for shards in [1, 2] {
        for dt_ms in [310, 930] {
            let mut cfg = common::contended_street(100, 2, shards, 0.93);
            cfg.snapshot_interval = Some(SimDuration::from_millis(dt_ms));
            let out = run_fleet_with_workers(&cfg, 2);
            let ring = out.timeline().expect("snapshots armed");
            assert_eq!(ring.slices().len(), 930 / dt_ms as usize);
            let sum = |f: fn(&SnapshotSlice) -> u64| ring.slices().iter().map(f).sum::<u64>();
            let t = &out.totals;
            let preambles_tx: u64 = t.per_cell.iter().map(|c| c.preambles_tx).sum();
            assert_eq!(
                [
                    sum(|s| s.handovers),
                    sum(|s| s.rlfs),
                    sum(|s| s.rach_attempts),
                    sum(|s| s.preambles_tx),
                ],
                [t.handovers, t.rlfs, t.rach_attempts, preambles_tx],
                "slice sums vs run totals at {shards} shards, {dt_ms} ms slices"
            );
        }
    }
}

#[test]
fn exact_contention_timeline_sees_responder_traffic() {
    // The responder counters flow through the shared stage's
    // per-interval deltas (shards carry no responders); the merged
    // timeline must still attribute them to slices.
    let out = run_fleet_with_workers(&obs_fleet(7), 2);
    let ring = out.timeline().expect("snapshots armed");
    let heard: u64 = ring.slices().iter().map(|s| s.preambles_heard).sum();
    let total: u64 = out
        .totals
        .per_cell
        .iter()
        .map(|c| c.responder.preambles_heard)
        .sum();
    assert_eq!(heard, total);
    assert!(heard > 0, "exact smoke saw no preambles");
}

#[test]
fn profiler_separates_deterministic_counters_from_wall_spans() {
    let out = run_fleet_with_workers(&obs_fleet(7), 2);
    let p = out.profile();
    // Work counters present and plausible.
    assert!(p.counters.get("des.events_popped") > 0);
    assert!(p.counters.get("phy.traces_cast") > 0);
    assert!(p.counters.get("des.event_queue_peak") > 0);
    // Five slices per shard (four boundaries + sealed tail), four shards.
    assert_eq!(p.counters.get("obs.snapshot_slices"), 5 * 4);
    // Wall spans live in a separate, non-deterministic section.
    assert!(p.wall_json().contains("shard.run"));
    assert!(p.wall_json().contains("fleet.merge"));
    assert!(!p.counters_json().contains("shard.run"));
}
