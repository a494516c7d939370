//! Fleet-scale load sweep: does soft handover's interruption advantage
//! survive PRACH contention?
//!
//! The single-trial `interruption` bench compares the two arms for one
//! isolated mobile. Here whole populations cross the same cell boundaries
//! simultaneously: PRACH occasions, preamble pools and backhaul pipes are
//! shared, so rising load adds preamble collisions, contention-resolution
//! losses and context-fetch queueing. Each population size runs twice —
//! an all-Silent-Tracker fleet and an all-reactive fleet — on matched
//! seeds, and the table tracks the interruption quantiles against the
//! realized RACH load.
//!
//! `--smoke` runs one small deterministic fleet and prints its aggregate
//! summary blob; CI invokes it twice with different worker counts and
//! asserts the outputs are byte-identical.

use std::time::Instant;

use st_fleet::{
    format_worst, run_fleet_with_workers, Deployment, FleetConfig, FleetOutcome, MobilityKind,
};
use st_metrics::Table;
use st_net::{ProtocolKind, RunTrace};

/// One load point, one protocol arm.
#[derive(Debug, Clone)]
pub struct Arm {
    pub ues: u64,
    pub protocol: ProtocolKind,
    pub outcome: FleetOutcome,
    /// Wall-clock seconds this arm's fleet run took.
    pub wall_s: f64,
    /// Recorded protocol trace (runs with recording armed only).
    pub trace: Option<RunTrace>,
}

impl Arm {
    /// UE-seconds of simulated radio time delivered per wall-clock
    /// second — the fleet engine's headline throughput figure.
    pub fn ue_seconds_per_wall_second(&self) -> f64 {
        self.ues as f64 * self.outcome.duration.as_secs_f64() / self.wall_s
    }
}

#[derive(Debug, Clone)]
pub struct FleetLoad {
    pub arms: Vec<Arm>,
}

/// The shared deployment at a given population size: four cells down a
/// street canyon, mostly walkers plus a vehicular slice, a deliberately
/// small preamble pool so PRACH contention rises with population. One
/// spawn tile per cell.
fn deployment(
    ues: u64,
    protocol: ProtocolKind,
    seed: u64,
    record: bool,
    snapshot_s: Option<f64>,
) -> FleetConfig {
    let walkers = (ues * 4 / 5) as u32;
    let vehicles = ues as u32 - walkers;
    let mut d = Deployment::new()
        .street(400.0, 30.0)
        .cell_row(4, 100.0)
        .tx_beams(8)
        .prach_preambles(8)
        .population(walkers, MobilityKind::Walk, protocol)
        .population(vehicles, MobilityKind::Vehicular, protocol)
        .duration_secs(2.0)
        .seed(seed)
        .shards(4)
        .record_traces(record);
    if let Some(s) = snapshot_s {
        d = d.snapshot_interval_secs(s);
    }
    d.build().expect("valid fleet deployment")
}

/// Package a run's recorded traces as one [`RunTrace`] (recording arms
/// only). Takes the traces out of the outcome — they are bulky and the
/// `RunTrace` is their home from here on.
fn take_trace(
    label: String,
    cfg: &FleetConfig,
    outcome: &mut FleetOutcome,
    wall_s: f64,
) -> Option<RunTrace> {
    if !cfg.record_traces {
        return None;
    }
    Some(RunTrace {
        label,
        seed: cfg.base.seed,
        duration: cfg.base.duration,
        live_wall_s: wall_s,
        tracker: cfg.base.tracker,
        codebook: cfg.base.ue_codebook,
        ues: std::mem::take(&mut outcome.totals.ue_traces),
    })
}

/// Run the sweep: both arms at every population size. `record` arms
/// trace recording; `snapshot_s` arms the snapshot timeline (every fleet
/// pushes a telemetry slice each `snapshot_s` seconds of simulated time,
/// and the merged rings land in the outcomes for [`timeline_json`] /
/// [`write_timeline_json`]).
pub fn run(
    populations: &[u64],
    seed: u64,
    workers: usize,
    record: bool,
    snapshot_s: Option<f64>,
) -> FleetLoad {
    let mut arms = Vec::new();
    for &ues in populations {
        for protocol in [ProtocolKind::SilentTracker, ProtocolKind::Reactive] {
            let cfg = deployment(ues, protocol, seed, record, snapshot_s);
            let start = Instant::now();
            let mut outcome = run_fleet_with_workers(&cfg, workers);
            let wall_s = start.elapsed().as_secs_f64();
            let trace = take_trace(
                format!("{ues}-{}", arm_label(protocol)),
                &cfg,
                &mut outcome,
                wall_s,
            );
            arms.push(Arm {
                ues,
                protocol,
                outcome,
                wall_s,
                trace,
            });
        }
    }
    FleetLoad { arms }
}

fn arm_label(p: ProtocolKind) -> &'static str {
    match p {
        ProtocolKind::SilentTracker => "silent",
        ProtocolKind::Reactive => "reactive",
    }
}

/// The scale-study street at population `ues`: gapped cell-cluster
/// blocks (5 cells, 100 m pitch per block, 400 m of open street between
/// blocks) so that with an interest radius the blocks are *independent*
/// — disjoint reachable-cell sets, one contention group per block. One
/// shard per block. An odd per-block cell count puts both gap-facing
/// edge cells on the same street side, so the nearest-cell equidistance
/// line at each gap midpoint is vertical and initial serving assignment
/// never crosses a tile boundary (a single cross-serving UE would union
/// two contention groups).
///
/// `interest_radius` of `None` keeps the full per-UE link set (the
/// pre-interest behaviour); the scale CLI defaults to 150 m.
pub fn scale_deployment(ues: u64, interest_radius: Option<f64>, seed: u64) -> FleetConfig {
    let blocks = (ues / 5_000).clamp(2, 8) as usize;
    let per_block = 5usize;
    let block_span = (per_block - 1) as f64 * 100.0;
    let pitch = block_span + 400.0;
    let length = blocks as f64 * pitch;
    let walkers = (ues * 4 / 5) as u32;
    let vehicles = ues as u32 - walkers;
    let mut d = Deployment::new()
        .street(length, 30.0)
        .tx_beams(8)
        .prach_preambles(8)
        .population(walkers, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .population(
            vehicles,
            MobilityKind::Vehicular,
            ProtocolKind::SilentTracker,
        )
        .duration_secs(1.0)
        .seed(seed)
        .shards(blocks);
    let x0 = -((blocks - 1) as f64) * pitch / 2.0 - block_span / 2.0;
    for b in 0..blocks {
        for c in 0..per_block {
            let side = if c % 2 == 0 { 10.0 } else { -10.0 };
            d = d.cell_at(x0 + b as f64 * pitch + c as f64 * 100.0, side);
        }
    }
    if let Some(r) = interest_radius {
        d = d.interest_radius(r);
    }
    d.build().expect("valid scale deployment")
}

/// Run one scale point and package it as an [`Arm`]. Stdout-facing
/// callers print the outcome's deterministic `summary()`; the wall
/// clock and profiler counters land in the perf artifact.
pub fn run_scale_point(ues: u64, interest_radius: Option<f64>, workers: usize, seed: u64) -> Arm {
    let cfg = scale_deployment(ues, interest_radius, seed);
    let start = Instant::now();
    let outcome = run_fleet_with_workers(&cfg, workers);
    let wall_s = start.elapsed().as_secs_f64();
    Arm {
        ues,
        protocol: ProtocolKind::SilentTracker,
        outcome,
        wall_s,
        trace: None,
    }
}

/// Serialize the sweep into the `BENCH_fleet.json` perf artifact: per-arm
/// wall-clock, barrier overhead and UE-seconds-per-wall-second, so the
/// perf trajectory of the hot path is tracked run over run.
pub fn bench_json(r: &FleetLoad, mode: &str) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    writeln!(s, "{{").unwrap();
    writeln!(s, "  \"bench\": \"fleet_load\",").unwrap();
    writeln!(s, "  \"mode\": \"{mode}\",").unwrap();
    let total_wall: f64 = r.arms.iter().map(|a| a.wall_s).sum();
    writeln!(s, "  \"total_wall_s\": {total_wall:.3},").unwrap();
    writeln!(s, "  \"arms\": [").unwrap();
    for (i, a) in r.arms.iter().enumerate() {
        let sep = if i + 1 == r.arms.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"ues\": {}, \"arm\": \"{}\", \"wall_s\": {:.3}, \"barrier_wait_s\": {:.3}, \
             \"ue_seconds_per_wall_second\": {:.0}, \"handovers\": {}, \"events\": {}}}{sep}",
            a.ues,
            arm_label(a.protocol),
            a.wall_s,
            a.outcome.stage.unwrap_or_default().barrier_wait_s,
            a.ue_seconds_per_wall_second(),
            a.outcome.totals.handovers,
            a.outcome.totals.events,
        )
        .unwrap();
    }
    writeln!(s, "  ],").unwrap();
    // Causal attribution, per arm: deterministic per-cause ledgers and
    // worst-k exemplars — the same document `--causes` writes standalone
    // (no wall-clock values, so the section is worker-invariant).
    writeln!(s, "  \"causes\": [").unwrap();
    for (i, a) in r.arms.iter().enumerate() {
        let sep = if i + 1 == r.arms.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"ues\": {}, \"arm\": \"{}\", \"attribution\": {}}}{sep}",
            a.ues,
            arm_label(a.protocol),
            a.outcome.causes_json().trim_end(),
        )
        .unwrap();
    }
    writeln!(s, "  ],").unwrap();
    // Run profiler, per arm: the `counters` object is deterministic
    // (same bytes for any worker count); `wall` is machine time and is
    // kept in a separate object so determinism checks can mask it.
    writeln!(s, "  \"profile\": [").unwrap();
    for (i, a) in r.arms.iter().enumerate() {
        let sep = if i + 1 == r.arms.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"ues\": {}, \"arm\": \"{}\", \"counters\": {}, \"wall\": {}}}{sep}",
            a.ues,
            arm_label(a.protocol),
            a.outcome.profile().counters_json(),
            a.outcome.profile().wall_json(),
        )
        .unwrap();
    }
    writeln!(s, "  ]").unwrap();
    writeln!(s, "}}").unwrap();
    s
}

/// Serialize every armed snapshot timeline in the sweep as one
/// deterministic JSON document — the `BENCH_fleet_timeline.json`
/// artifact. Returns `None` when no arm carried a timeline (run without
/// `--snapshot-s`, or a shard dropped its ring). Contains **no
/// wall-clock values**, so CI can `cmp` the file across worker counts.
pub fn timeline_json(r: &FleetLoad) -> Option<String> {
    use std::fmt::Write as _;
    let arms: Vec<(&Arm, String)> = r
        .arms
        .iter()
        .filter_map(|a| a.outcome.timeline_json().map(|tj| (a, tj)))
        .collect();
    if arms.is_empty() {
        return None;
    }
    let mut s = String::new();
    writeln!(s, "{{").unwrap();
    writeln!(s, "  \"bench\": \"fleet_timeline\",").unwrap();
    writeln!(s, "  \"arms\": [").unwrap();
    for (i, (a, tj)) in arms.iter().enumerate() {
        let sep = if i + 1 == arms.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"ues\": {}, \"arm\": \"{}\", \"timeline\": {}}}{sep}",
            a.ues,
            arm_label(a.protocol),
            tj.trim_end(),
        )
        .unwrap();
    }
    writeln!(s, "  ]").unwrap();
    writeln!(s, "}}").unwrap();
    Some(s)
}

/// Write [`timeline_json`] to `path`; returns whether a timeline
/// existed to write.
pub fn write_timeline_json(path: &str, r: &FleetLoad) -> std::io::Result<bool> {
    match timeline_json(r) {
        Some(doc) => std::fs::write(path, doc).map(|()| true),
        None => Ok(false),
    }
}

/// Write [`bench_json`] to `path`.
pub fn write_bench_json(path: &str, r: &FleetLoad, mode: &str) -> std::io::Result<()> {
    std::fs::write(path, bench_json(r, mode))
}

/// Serialize the per-cause attribution aggregates of every arm as one
/// deterministic JSON document — the artifact behind `fleet_load
/// --causes PATH`. Unlike `BENCH_fleet.json` (which embeds the same
/// per-arm sections next to wall-clock numbers) this file contains **no
/// wall-clock values**, so CI `cmp`s it byte-for-byte across worker
/// counts.
pub fn causes_json(r: &FleetLoad) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    writeln!(s, "{{").unwrap();
    writeln!(s, "  \"bench\": \"fleet_causes\",").unwrap();
    writeln!(s, "  \"arms\": [").unwrap();
    for (i, a) in r.arms.iter().enumerate() {
        let sep = if i + 1 == r.arms.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"ues\": {}, \"arm\": \"{}\", \"attribution\": {}}}{sep}",
            a.ues,
            arm_label(a.protocol),
            a.outcome.causes_json().trim_end(),
        )
        .unwrap();
    }
    writeln!(s, "  ]").unwrap();
    writeln!(s, "}}").unwrap();
    s
}

/// Write [`causes_json`] to `path`.
pub fn write_causes_json(path: &str, r: &FleetLoad) -> std::io::Result<()> {
    std::fs::write(path, causes_json(r))
}

/// Render the worst-`n` interruptions of each arm with their full phase
/// decompositions — the `fleet_load --explain-top N` view. Reuses the
/// shared breakdown formatter behind the `autopsy` tool, so the inline
/// explanation and the offline autopsy always agree on what a breakdown
/// looks like.
pub fn explain_top(r: &FleetLoad, n: usize) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for a in &r.arms {
        writeln!(
            s,
            "worst interruptions — {} ues, {} arm (top {}):",
            a.ues,
            arm_label(a.protocol),
            n
        )
        .unwrap();
        s.push_str(&format_worst(&a.outcome.totals.worst, n));
    }
    s
}

pub fn render(r: &FleetLoad) -> String {
    let mut t = Table::new(
        "Fleet load sweep: interruption vs PRACH contention (4 cells, 2 s)",
        &[
            "ues",
            "arm",
            "handovers",
            "collision_%",
            "occupancy_%",
            "losses",
            "queue_ms",
            "intr_p50_ms",
            "intr_p95_ms",
            "intr_p99_ms",
            "ue_s/wall_s",
        ],
    );
    for a in &r.arms {
        let tot = &a.outcome.totals;
        let heard: u64 = tot
            .per_cell
            .iter()
            .map(|c| c.responder.preambles_heard)
            .sum();
        let collided: u64 = tot
            .per_cell
            .iter()
            .map(|c| 2 * c.responder.collisions)
            .sum();
        let losses: u64 = tot
            .per_cell
            .iter()
            .map(|c| c.responder.contention_losses)
            .sum();
        let queue_ms: f64 = tot
            .per_cell
            .iter()
            .map(|c| c.responder.backhaul_queue_wait.as_millis_f64())
            .sum();
        let used: u64 = tot.per_cell.iter().map(|c| c.occasions_used).sum();
        let total: u64 = tot.per_cell.iter().map(|c| c.occasions_total).sum();
        let (name, stats) = match a.protocol {
            ProtocolKind::SilentTracker => ("silent", a.outcome.soft_stats()),
            ProtocolKind::Reactive => ("reactive", a.outcome.hard_stats()),
        };
        let (p50, p95, p99) = stats
            .map(|st| {
                (
                    format!("{:.1}", st.p50_ms),
                    format!("{:.1}", st.p95_ms),
                    format!("{:.1}", st.p99_ms),
                )
            })
            .unwrap_or_else(|| ("-".into(), "-".into(), "-".into()));
        t.row(&[
            format!("{}", a.ues),
            name.into(),
            format!("{}", tot.handovers),
            format!(
                "{:.1}",
                if heard > 0 {
                    100.0 * collided as f64 / heard as f64
                } else {
                    0.0
                }
            ),
            format!("{:.1}", 100.0 * used as f64 / total.max(1) as f64),
            format!("{losses}"),
            format!("{queue_ms:.1}"),
            p50,
            p95,
            p99,
            format!("{:.0}", a.ue_seconds_per_wall_second()),
        ]);
    }
    t.render()
}

/// The deterministic smoke fleet for the CI byte-identical check, with
/// trace recording and the snapshot timeline optionally armed. Neither
/// perturbs the simulation (recording is an observer, snapshot events
/// consume no RNG draws), so the summary stays byte-identical either
/// way; the CI smokes rely on that, and on the summary and timeline
/// being `cmp`-equal across worker counts.
pub fn smoke_config(record: bool, snapshot_s: Option<f64>) -> FleetConfig {
    let mut d = Deployment::new()
        .street(200.0, 30.0)
        .cell_row(2, 80.0)
        .tx_beams(8)
        .prach_preambles(4)
        .spawn_region((-25.0, 15.0), (-3.0, 3.0))
        .population(32, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .population(16, MobilityKind::Vehicular, ProtocolKind::Reactive)
        .duration_secs(1.0)
        .seed(7)
        .shards(2)
        .record_traces(record);
    if let Some(s) = snapshot_s {
        d = d.snapshot_interval_secs(s);
    }
    d.build().expect("valid smoke fleet")
}

pub fn smoke(workers: usize) -> String {
    run_fleet_with_workers(&smoke_config(false, None), workers).summary()
}

/// Smoke run with timing, packaged as a one-arm [`FleetLoad`] so the CI
/// perf-smoke step can emit a `BENCH_fleet.json` artifact from the same
/// code path as the full sweep — the entry point behind `fleet_load
/// --smoke`. The returned summary string is identical to [`smoke`]'s
/// (the byte-compare contract).
pub fn smoke_timed(workers: usize, record: bool, snapshot_s: Option<f64>) -> (String, FleetLoad) {
    let cfg = smoke_config(record, snapshot_s);
    let ues = cfg.n_ues();
    let start = Instant::now();
    let mut outcome = run_fleet_with_workers(&cfg, workers);
    let wall_s = start.elapsed().as_secs_f64();
    let summary = outcome.summary();
    let trace = take_trace("smoke".into(), &cfg, &mut outcome, wall_s);
    let load = FleetLoad {
        arms: vec![Arm {
            ues,
            protocol: ProtocolKind::SilentTracker,
            outcome,
            wall_s,
            trace,
        }],
    };
    (summary, load)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_worker_invariant() {
        assert_eq!(smoke(1), smoke(4));
    }

    /// Both of the smoke's tiles hold UEs, and they meet at one shared
    /// stage whose PRACH occasions merge several UEs' attempts into one
    /// resolution — identically on one thread and on two.
    #[test]
    fn smoke_populates_both_tiles_and_merges_occasions() {
        let cfg = smoke_config(false, None);
        assert!(cfg.shard_partition().iter().all(|p| !p.is_empty()));
        let one = run_fleet_with_workers(&cfg, 1);
        let two = run_fleet_with_workers(&cfg, 2);
        assert_eq!(one.summary(), two.summary());
        let stage = one.stage.expect("stage report");
        assert!(stage.counters.resolved_preambles > 0, "{}", one.summary());
        let peak = one
            .totals
            .per_cell
            .iter()
            .map(|c| c.responder.peak_merged_attempts)
            .max()
            .unwrap_or(0);
        assert!(
            peak >= 2,
            "no occasion merged two attempts:\n{}",
            one.summary()
        );
    }

    #[test]
    fn smoke_timeline_json_is_worker_invariant() {
        let (sa, a) = smoke_timed(1, false, Some(0.25));
        let (sb, b) = smoke_timed(4, false, Some(0.25));
        // Arming snapshots never perturbs the aggregate summary…
        assert_eq!(sa, smoke(1));
        assert_eq!(sa, sb);
        // …and the timeline artifact itself is byte-identical across
        // worker counts (it carries no wall-clock values).
        let ta = timeline_json(&a).expect("timeline armed");
        assert_eq!(ta, timeline_json(&b).expect("timeline armed"));
        assert!(!ta.contains("wall"), "timeline must carry no wall times");
        // Without --snapshot-s there is nothing to write.
        assert!(timeline_json(&run(&[24], 3, 2, false, None)).is_none());
    }

    /// The timeline's backhaul backlog gauge reads the shared stage's
    /// pipes: on the smoke, a 0.2 s boundary falls inside a queued
    /// context fetch.
    #[test]
    fn smoke_timeline_reads_the_stage_backlog() {
        let (_, load) = smoke_timed(2, false, Some(0.2));
        let ring = load.arms[0].outcome.timeline().expect("timeline armed");
        assert!(
            ring.slices().iter().any(|s| s.backhaul_backlog_us > 0),
            "{}",
            timeline_json(&load).unwrap_or_default()
        );
    }

    #[test]
    fn bench_json_profile_counters_are_worker_invariant() {
        let (_, a) = smoke_timed(1, false, None);
        let (_, b) = smoke_timed(4, false, None);
        let counters = |l: &FleetLoad| l.arms[0].outcome.profile().counters_json();
        assert_eq!(counters(&a), counters(&b));
        let doc = bench_json(&a, "smoke");
        assert!(doc.contains("\"profile\": ["), "{doc}");
        assert!(doc.contains("des.events_popped"), "{doc}");
    }

    #[test]
    fn causes_json_and_explain_top_are_worker_invariant() {
        let (_, a) = smoke_timed(1, false, None);
        let (_, b) = smoke_timed(4, false, None);
        let ca = causes_json(&a);
        assert_eq!(ca, causes_json(&b));
        assert!(
            !ca.contains("wall"),
            "causes artifact must carry no wall times"
        );
        assert!(ca.contains("\"schema\": \"st-fleet-causes-v1\""), "{ca}");
        assert!(ca.contains("\"worst\": ["), "{ca}");
        let ea = explain_top(&a, 3);
        assert_eq!(ea, explain_top(&b, 3));
        assert!(ea.contains("cause="), "{ea}");
        // The bench artifact embeds the same per-arm sections.
        assert!(bench_json(&a, "smoke").contains("\"causes\": ["));
    }

    #[test]
    fn small_sweep_renders_both_arms() {
        let r = run(&[24], 3, 4, false, None);
        assert_eq!(r.arms.len(), 2);
        let s = render(&r);
        assert!(s.contains("silent") && s.contains("reactive"), "{s}");
        // The silent arm's make-before-break handovers complete.
        assert!(r.arms[0].outcome.totals.handovers > 0, "{s}");
    }

    /// The `--ues 10000` scale point has one aggregate across shard
    /// counts (one tile per block, per two cells and per cell) and
    /// worker counts. Sized for `--release`
    /// (`cargo test --release -p st_bench --lib -- --ignored scale_point`).
    #[test]
    #[ignore = "release-scale: six 10,000-UE fleets; run with --release -- --ignored"]
    fn scale_point_is_shard_and_worker_invariant() {
        let mut reference: Option<String> = None;
        for shards in [2, 5, 10] {
            let mut cfg = scale_deployment(10_000, Some(150.0), 42);
            cfg.n_shards = shards;
            for workers in [1, 2] {
                let out = run_fleet_with_workers(&cfg, workers);
                let summary = out.summary();
                match &reference {
                    None => {
                        assert!(out.totals.handovers > 0, "{summary}");
                        reference = Some(summary);
                    }
                    Some(r) => assert_eq!(
                        r, &summary,
                        "scale point diverged at {shards} shards / {workers} workers"
                    ),
                }
            }
        }
    }
}
