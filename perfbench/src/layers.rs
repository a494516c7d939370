//! Per-layer metrics of the traced run, measured from outside the
//! program: the fleet's profiler spans and counters read after each
//! call, outcome fields, and single layer calls timed in isolation on
//! inputs sampled from the op's own deployment. Isolated timings are
//! read on the process CPU clock; nothing else runs while they do.

use std::collections::BTreeMap;
use std::hint::black_box;

use st_des::{EventQueue, RngStreams, SimDuration, SimTime};
use st_fleet::FleetOutcome;
use st_net::{replay_run, replay_run_with_config, FleetTrace, RunTrace, Sites};
use st_phy::channel::PathSet;
use st_phy::codebook::{BeamwidthClass, Codebook};
use st_phy::geometry::{Pose, Radians, Vec2};
use st_phy::link::rss_sweep_tx;
use st_phy::{Dbm, LinkChannel};

use crate::context::CpuClock;
use crate::ops::op_seed;
use crate::stats::median;

/// Every per-layer metric and its unit, in the order `BENCHMARK.json`
/// lists them. A workload that does not exercise a layer, or where the
/// layer's work is not visible from outside, reports 0 for it.
pub const METRICS: [(&str, &str); 37] = [
    ("st_fleet.shard_busy_s", "s"),
    ("st_fleet.barrier_wait_s", "s"),
    ("st_fleet.busy_barrier_frac", "frac"),
    ("st_fleet.merge_s", "s"),
    ("st_fleet.other_s", "s"),
    ("st_fleet.unexplained_s", "s"),
    ("st_fleet.migrations", "count"),
    ("st_fleet.parallel_speedup", "x"),
    ("st_mac.preambles_heard", "count"),
    ("st_mac.collision_frac", "frac"),
    ("st_mac.contention_losses", "count"),
    ("st_mac.rach_per_handover", "ratio"),
    ("st_mac.backhaul_wait_ms", "ms"),
    ("st_mac.resolved_preambles", "count"),
    ("st_phy.traces", "count"),
    ("st_phy.rays", "count"),
    ("st_phy.traces_per_ue_s", "count/ue-s"),
    ("st_phy.trace_ns", "ns"),
    ("st_phy.sweep_ns", "ns"),
    ("st_phy.share", "frac"),
    ("st_des.events", "count"),
    ("st_des.queue_peak", "count"),
    ("st_des.event_ns", "ns"),
    ("st_des.share", "frac"),
    ("silent_tracker.events", "count"),
    ("silent_tracker.actions", "count"),
    ("silent_tracker.event_ns", "ns"),
    ("silent_tracker.variant_event_ns", "ns"),
    ("silent_tracker.share", "frac"),
    ("st_net.trace_bytes_per_ue_s", "B/ue-s"),
    ("st_net.encode_mb_s", "MB/s"),
    ("st_net.decode_mb_s", "MB/s"),
    ("st_net.record_overhead", "x"),
    ("st_net.verify_overhead", "x"),
    ("st_net.trial_samples", "count"),
    ("st_net.trial_dwells", "count"),
    ("trace_overhead", "x"),
];

/// Collected per-layer values, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(METRICS.iter().any(|m| m.0 == name), "unknown metric {name}");
        self.values
            .insert(name, if v.is_finite() { v } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Per-op means of the fleet's own accounting over a set of fleet ops
/// that ran on `workers` threads.
pub fn fleet_layers(l: &mut Layers, ops: &[(f64, FleetOutcome)]) {
    let n = ops.len().max(1) as f64;
    let mut sum: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |k: &'static str, v: f64| *sum.entry(k).or_default() += v / n;
    let mut busy_barriers = 0u64;
    let mut epochs = 0u64;
    let (mut rach, mut handovers) = (0u64, 0u64);
    for (wall_s, out) in ops {
        let p = out.totals.profile.clone();
        let span = |k: &str| p.span(k).map_or(0.0, |s| s.secs());
        let stage = out.stage.unwrap_or_default();
        // The barrier span is recorded once per epoch per worker thread,
        // so its call count reveals how many threads the runner used.
        let threads = p
            .span("stage.barrier_wait")
            .map_or(1, |s| (s.calls / stage.epochs.max(1)).max(1));
        let (busy, wait, merge) = (
            span("shard.run"),
            span("stage.barrier_wait"),
            span("fleet.merge"),
        );
        add("busy", busy);
        add("wait", wait);
        add("merge", merge);
        add("other", threads as f64 * wall_s - busy - wait - merge);
        add("migrations", p.counters.get("fleet.migrations_in") as f64);
        add("traces", p.counters.get("phy.traces_cast") as f64);
        add("rays", p.counters.get("phy.rays_tested") as f64);
        add("events", p.counters.get("des.events_popped") as f64);
        add("queue_peak", p.counters.get("des.event_queue_peak") as f64);
        add("resolved", stage.counters.resolved_preambles as f64);
        add("ue_s", out.totals.ues as f64 * out.duration.as_secs_f64());
        busy_barriers += stage.counters.busy_barriers;
        epochs += stage.epochs;
        rach += out.totals.rach_attempts;
        handovers += out.totals.handovers;
        let cells = &out.totals.per_cell;
        let heard: u64 = cells.iter().map(|c| c.responder.preambles_heard).sum();
        let collisions: u64 = cells.iter().map(|c| c.responder.collisions).sum();
        add("heard", heard as f64);
        add("collisions", collisions as f64);
        add(
            "losses",
            cells
                .iter()
                .map(|c| c.responder.contention_losses)
                .sum::<u64>() as f64,
        );
        add(
            "backhaul_ms",
            cells
                .iter()
                .map(|c| c.responder.backhaul_queue_wait.as_millis_f64())
                .sum::<f64>(),
        );
    }
    let g = |k: &str| sum.get(k).copied().unwrap_or(0.0);
    l.set("st_fleet.shard_busy_s", g("busy"));
    l.set("st_fleet.barrier_wait_s", g("wait"));
    l.set(
        "st_fleet.busy_barrier_frac",
        busy_barriers as f64 / epochs.max(1) as f64,
    );
    l.set("st_fleet.merge_s", g("merge"));
    l.set("st_fleet.other_s", g("other"));
    l.set("st_fleet.migrations", g("migrations"));
    l.set("st_mac.preambles_heard", g("heard"));
    l.set(
        "st_mac.collision_frac",
        2.0 * g("collisions") / g("heard").max(1.0),
    );
    l.set("st_mac.contention_losses", g("losses"));
    l.set(
        "st_mac.rach_per_handover",
        rach as f64 / handovers.max(1) as f64,
    );
    l.set("st_mac.backhaul_wait_ms", g("backhaul_ms"));
    l.set("st_mac.resolved_preambles", g("resolved"));
    l.set("st_phy.traces", g("traces"));
    l.set("st_phy.rays", g("rays"));
    l.set("st_phy.traces_per_ue_s", g("traces") / g("ue_s").max(1e-9));
    l.set("st_des.events", g("events"));
    l.set("st_des.queue_peak", g("queue_peak"));
}

/// Charge the fleet's busy time to the layers whose isolated costs are
/// known: phy (traces × (trace + sweep)), DES (events × event cost) and
/// the protocol fold (events recorded per op × refold cost). Whatever
/// they leave is `st_fleet.unexplained_s`.
pub fn explain_busy(l: &mut Layers) {
    let busy = l.get("st_fleet.shard_busy_s");
    let phy = l.get("st_phy.traces") * (l.get("st_phy.trace_ns") + l.get("st_phy.sweep_ns")) * 1e-9;
    let des = l.get("st_des.events") * l.get("st_des.event_ns") * 1e-9;
    let fold = l.get("silent_tracker.events") * l.get("silent_tracker.event_ns") * 1e-9;
    if busy > 0.0 {
        l.set("st_phy.share", phy / busy);
        l.set("st_des.share", des / busy);
        l.set("silent_tracker.share", fold / busy);
        l.set("st_fleet.unexplained_s", busy - phy - des - fold);
    }
}

/// Run `f` and return its result with the process CPU seconds it took.
fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let c0 = CpuClock::Process.now();
    let out = f();
    (out, CpuClock::Process.now() - c0)
}

/// Uniform draw in [0, 1) from a counter-based hash, so isolated inputs
/// repeat for one seed without an RNG dependency.
fn unit(seed: u64, i: u64) -> f64 {
    (op_seed(seed, i) >> 11) as f64 / (1u64 << 53) as f64
}

/// Time `LinkChannel::trace_into` and `rss_sweep_tx` on UE positions
/// drawn over the spawn region and, per position, the nearest cell of
/// the deployment — the links a UE actually measures.
pub fn phy_costs(
    l: &mut Layers,
    sites: &Sites,
    spawn_x: (f64, f64),
    spawn_y: (f64, f64),
    seed: u64,
) {
    const SAMPLES: u64 = 4096;
    const REPS: usize = 5;
    let streams = RngStreams::new(seed);
    let mut rng = streams.stream("perfbench.phy");
    let mut channels: Vec<LinkChannel> = (0..sites.len())
        .map(|_| LinkChannel::new(&mut rng, sites.channel))
        .collect();
    let ue_codebook = Codebook::for_class(BeamwidthClass::Narrow);
    let links: Vec<(usize, Vec2)> = (0..SAMPLES)
        .map(|i| {
            let p = Vec2::new(
                spawn_x.0 + (spawn_x.1 - spawn_x.0) * unit(seed, 2 * i),
                spawn_y.0 + (spawn_y.1 - spawn_y.0) * unit(seed, 2 * i + 1),
            );
            let cell = (0..sites.len())
                .min_by(|&a, &b| {
                    let da = (sites.cells[a].position - p).norm();
                    let db = (sites.cells[b].position - p).norm();
                    da.total_cmp(&db)
                })
                .expect("a deployment has cells");
            (cell, p)
        })
        .collect();
    let mut sets: Vec<PathSet> = (0..SAMPLES).map(|_| PathSet::new()).collect();
    let mut trace_ns = Vec::new();
    let mut sweep_ns = Vec::new();
    let mut out = Vec::new();
    for _ in 0..REPS {
        let ((), secs) = cpu_timed(|| {
            for ((cell, p), set) in links.iter().zip(sets.iter_mut()) {
                let tx = sites.cells[*cell].position;
                channels[*cell].trace_into(&mut rng, &sites.environment, tx, *p, set);
            }
        });
        trace_ns.push(secs * 1e9 / SAMPLES as f64);
        let ((), secs) = cpu_timed(|| {
            for ((cell, p), set) in links.iter().zip(sets.iter()) {
                let cb = &sites.codebooks[*cell];
                out.resize(cb.len(), Dbm(0.0));
                let ue = Pose::new(*p, Radians(0.0));
                let rx_beam =
                    ue_codebook.best_beam_towards(ue.local_bearing_to(sites.cells[*cell].position));
                black_box(rss_sweep_tx(
                    sites.radio.tx_power,
                    sites.pose(*cell),
                    cb,
                    ue,
                    &ue_codebook,
                    rx_beam,
                    set.samples(),
                    &mut out,
                ));
            }
        });
        sweep_ns.push(secs * 1e9 / SAMPLES as f64);
    }
    l.set("st_phy.trace_ns", median(&trace_ns).unwrap_or(0.0));
    l.set("st_phy.sweep_ns", median(&sweep_ns).unwrap_or(0.0));
}

/// Time one `EventQueue` pop plus one schedule (the steady state of a
/// DES step) at a fixed queue depth.
pub fn des_cost(l: &mut Layers, depth: usize, seed: u64) {
    const STEPS: u64 = 200_000;
    let depth = depth.max(1);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth as u64 {
        let at = SimTime::ZERO + SimDuration::from_nanos((unit(seed, i) * 1e7) as u64);
        q.schedule(at, i);
    }
    let mut reps = Vec::new();
    for _ in 0..5 {
        let ((), secs) = cpu_timed(|| {
            for i in 0..STEPS {
                let (at, ev) = q.pop().expect("queue stays at depth");
                let delay = SimDuration::from_nanos(1 + (unit(seed, i) * 1e7) as u64);
                q.schedule(at + delay, black_box(ev));
            }
        });
        reps.push(secs * 1e9 / STEPS as f64);
    }
    l.set("st_des.event_ns", median(&reps).unwrap_or(0.0));
}

/// Fold work and cost from a recorded run: events and actions refolded,
/// and the per-event time of a verified replay and of a variant replay,
/// each the median of three passes on one thread.
pub fn fold_costs(l: &mut Layers, run: &RunTrace, variant: silent_tracker::TrackerConfig) {
    let mut verified = Vec::new();
    let mut open = Vec::new();
    let (mut events, mut actions) = (0, 0);
    for _ in 0..3 {
        let (rep, secs) = cpu_timed(|| replay_run(run, 1));
        verified.push(secs * 1e9 / rep.events.max(1) as f64);
        (events, actions) = (rep.events, rep.actions);
        let (var, secs) = cpu_timed(|| replay_run_with_config(run, variant, 1));
        open.push(secs * 1e9 / var.events.max(1) as f64);
    }
    l.set("silent_tracker.events", events as f64);
    l.set("silent_tracker.actions", actions as f64);
    l.set("silent_tracker.event_ns", median(&verified).unwrap_or(0.0));
    l.set(
        "silent_tracker.variant_event_ns",
        median(&open).unwrap_or(0.0),
    );
}

/// Trace codec throughput and density for one recorded run.
pub fn codec_costs(l: &mut Layers, run: &RunTrace) {
    let trace = FleetTrace {
        runs: vec![run.clone()],
    };
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut bytes = 0usize;
    for _ in 0..3 {
        let (b, secs) = cpu_timed(|| black_box(trace.to_bytes()));
        enc.push(secs);
        let (back, secs) = cpu_timed(|| FleetTrace::from_bytes(&b));
        black_box(back.expect("a fresh trace decodes"));
        dec.push(secs);
        bytes = b.len();
    }
    let mb = bytes as f64 / 1e6;
    l.set(
        "st_net.encode_mb_s",
        mb / median(&enc).unwrap_or(f64::INFINITY),
    );
    l.set(
        "st_net.decode_mb_s",
        mb / median(&dec).unwrap_or(f64::INFINITY),
    );
    l.set(
        "st_net.trace_bytes_per_ue_s",
        bytes as f64 / run.ue_seconds().max(1e-9),
    );
}
