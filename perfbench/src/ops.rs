//! The workloads' operations. Each op's inputs are a pure function of
//! the workload seed and the op index; each op is one call into a public
//! entry point of the program, followed by the checks that decide
//! whether it failed and the deterministic output it adds to the run
//! digest.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use silent_tracker::wire::Fnv64;
use silent_tracker::TrackerConfig;
use st_fleet::{run_fleet_with_workers, Deployment, FleetConfig, FleetOutcome, MobilityKind};
use st_net::scenarios::{by_name, eval_config};
use st_net::{replay_run, replay_run_with_config, FleetTrace, ProtocolKind, RunOutcome, RunTrace};
use st_phy::Db;

use crate::spans::{SpanId, Spans};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperTrials,
    StreetContention,
    StreetParallel,
    TraceReplay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperTrials,
        Workload::StreetContention,
        Workload::StreetParallel,
        Workload::TraceReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTrials => "paper_trials",
            Workload::StreetContention => "street_contention",
            Workload::StreetParallel => "street_parallel",
            Workload::TraceReplay => "trace_replay",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The tail percentile this workload reports as `op_cpu_tail_ms`: the
    /// highest one with at least ten ops beyond it at the op counts a
    /// run reaches (over 1,000 trials; over 100 fleet or replay ops).
    pub fn tail_q(self) -> f64 {
        match self {
            Workload::PaperTrials => 0.99,
            _ => 0.90,
        }
    }

    /// Set-ups per timed run; the median is reported as `setup_s`. The
    /// trace recording makes a `trace_replay` set-up some 40 times dearer
    /// than the others, and it is steady enough with three.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::TraceReplay => 3,
            _ => 5,
        }
    }

    /// Ops whose outputs make up the run digest: the first this many op
    /// indices, which every run performs (any the timed window did not
    /// reach are run untimed afterwards).
    pub fn digest_ops(self) -> u64 {
        match self {
            Workload::PaperTrials => 120,
            Workload::StreetContention | Workload::StreetParallel => 6,
            Workload::TraceReplay => 16,
        }
    }
}

/// A fleet on the contiguous street: size and simulated horizon.
#[derive(Debug, Clone, Copy)]
pub struct Street {
    pub ues: u32,
    pub secs: f64,
}

/// One `street_contention` / `street_parallel` op.
pub const STREET_OP: Street = Street {
    ues: 200,
    secs: 0.4,
};
/// The live fleet `trace_replay` records in set-up.
pub const REPLAY_FLEET: Street = Street {
    ues: 2000,
    secs: 2.0,
};

/// Shards of the street fleet: four tiles of two cells each.
pub const STREET_SHARDS: usize = 4;

/// The contended street: eight cells at 100 m pitch alternating street
/// sides, 85% Silent Tracker and 15% reactive UEs, each arm 80% walkers
/// and 20% 20 mph vehicles, four PRACH preambles, exact contention, tile
/// sharding and a 150 m interest radius.
pub fn street(spec: Street, seed: u64, record: bool) -> FleetConfig {
    let reactive = spec.ues * 15 / 100;
    let silent = spec.ues - reactive;
    let walkers = |n: u32| n * 4 / 5;
    Deployment::new()
        .street(800.0, 30.0)
        .cell_row(8, 100.0)
        .tx_beams(8)
        .prach_preambles(4)
        .population(
            walkers(silent),
            MobilityKind::Walk,
            ProtocolKind::SilentTracker,
        )
        .population(
            silent - walkers(silent),
            MobilityKind::Vehicular,
            ProtocolKind::SilentTracker,
        )
        .population(
            walkers(reactive),
            MobilityKind::Walk,
            ProtocolKind::Reactive,
        )
        .population(
            reactive - walkers(reactive),
            MobilityKind::Vehicular,
            ProtocolKind::Reactive,
        )
        .duration_secs(spec.secs)
        .seed(seed)
        .shards(STREET_SHARDS)
        .tile_sharding()
        .interest_radius(150.0)
        .exact_contention(true)
        .record_traces(record)
        .build()
        .expect("valid street deployment")
}

/// The paper's trial kinds: three mobility cases × two protocol arms.
pub const TRIAL_KINDS: [(&str, ProtocolKind); 6] = [
    ("walk", ProtocolKind::SilentTracker),
    ("rotation", ProtocolKind::SilentTracker),
    ("vehicular", ProtocolKind::SilentTracker),
    ("walk", ProtocolKind::Reactive),
    ("rotation", ProtocolKind::Reactive),
    ("vehicular", ProtocolKind::Reactive),
];

/// SplitMix64 finaliser: op `i` of workload seed `seed` gets an
/// independent, well-mixed seed.
pub fn op_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the untimed warm-up ops. Fixed, so set-up does the same work
/// whatever the workload seed.
pub const WARMUP_SEED: u64 = 0x5EED;

/// What one op produced.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Simulated UE-seconds the op covered.
    pub ue_s: f64,
    /// Digest of the op's deterministic outputs.
    pub digest: u64,
    /// Why the op failed, if it did.
    pub failure: Option<String>,
    /// Fleet ops keep their outcome for the traced run's layer metrics.
    pub fleet: Option<FleetOutcome>,
    /// Trial ops keep a few outcome counts for the same reason.
    pub trial: Option<TrialStats>,
}

impl OpResult {
    fn new(ue_s: f64, digest: u64, failure: Option<String>) -> OpResult {
        OpResult {
            ue_s,
            digest,
            failure,
            fleet: None,
            trial: None,
        }
    }
}

/// Outcome counts of one trial that the traced run reports.
#[derive(Debug, Clone, Copy)]
pub struct TrialStats {
    /// Points in the trial's RSS and alignment series.
    pub samples: u64,
    /// Receive-beam dwells spent searching.
    pub dwells: u64,
    pub rach_attempts: u64,
    pub handover: bool,
}

impl TrialStats {
    fn of(o: &RunOutcome) -> TrialStats {
        TrialStats {
            samples: (o.serving_rss.len() + o.neighbor_rss.len() + o.alignment.len()) as u64,
            dwells: o.search_passes.iter().map(|p| p.dwells as u64).sum::<u64>()
                + o.reactive_dwells.unwrap_or(0),
            rach_attempts: u64::from(o.rach_attempts),
            handover: o.handover_succeeded(),
        }
    }
}

/// Everything a workload's ops need, built in set-up.
pub enum Prepared {
    Trials {
        /// `eval_config` of each arm, indexed by [`arm_index`].
        cfgs: Box<[st_net::ScenarioConfig; 2]>,
    },
    Street {
        workers: usize,
        spec: Street,
    },
    Replay {
        run: RunTrace,
        variants: Vec<TrackerConfig>,
        workers: usize,
    },
}

fn arm_index(p: ProtocolKind) -> usize {
    match p {
        ProtocolKind::SilentTracker => 0,
        ProtocolKind::Reactive => 1,
    }
}

/// The fixed grid of tracker variants `trace_replay` re-evaluates:
/// beam-switch threshold × handover hysteresis around the paper's 3 dB.
pub fn variant_grid(base: TrackerConfig) -> Vec<TrackerConfig> {
    let mut grid = Vec::new();
    for switch in [2.0, 4.0] {
        for hysteresis in [2.0, 4.0] {
            grid.push(TrackerConfig {
                switch_threshold: Db(switch),
                handover_hysteresis: Db(hysteresis),
                ..base
            });
        }
    }
    grid
}

/// Record the `trace_replay` fleet live and round-trip its trace through
/// the byte codec. Returns the decoded trace, or why the recording is
/// unusable.
pub fn record_trace(
    spec: Street,
    seed: u64,
    workers: usize,
    spans: &Spans,
    parent: Option<SpanId>,
) -> Result<RunTrace, String> {
    let cfg = street(spec, seed, true);
    let t0 = Instant::now();
    let mut out = spans.call("run_fleet_with_workers", None, parent, || {
        run_fleet_with_workers(&cfg, workers)
    });
    let wall = t0.elapsed().as_secs_f64();
    if let Some(why) = fleet_failure(&out) {
        return Err(format!("recording fleet: {why}"));
    }
    let trace = FleetTrace {
        runs: vec![RunTrace {
            label: "perfbench".into(),
            seed,
            duration: cfg.base.duration,
            live_wall_s: wall,
            tracker: cfg.base.tracker,
            codebook: cfg.base.ue_codebook,
            ues: std::mem::take(&mut out.totals.ue_traces),
        }],
    };
    drop(out);
    let bytes = spans.call("FleetTrace::to_bytes", None, parent, || trace.to_bytes());
    let back = spans
        .call("FleetTrace::from_bytes", None, parent, || {
            FleetTrace::from_bytes(&bytes)
        })
        .map_err(|e| format!("trace decode: {e}"))?;
    if back != trace {
        return Err("trace changed in the byte round trip".into());
    }
    let mut runs = back.runs;
    Ok(runs.pop().expect("one run"))
}

impl Prepared {
    /// Build the op inputs of workload `w`.
    pub fn new(
        w: Workload,
        seed: u64,
        nproc: usize,
        spans: &Spans,
        parent: Option<SpanId>,
    ) -> Result<Prepared, String> {
        Ok(match w {
            Workload::PaperTrials => Prepared::Trials {
                cfgs: Box::new([
                    eval_config(ProtocolKind::SilentTracker),
                    eval_config(ProtocolKind::Reactive),
                ]),
            },
            Workload::StreetContention => Prepared::Street {
                workers: 1,
                spec: STREET_OP,
            },
            Workload::StreetParallel => Prepared::Street {
                workers: nproc,
                spec: STREET_OP,
            },
            Workload::TraceReplay => {
                let run = record_trace(REPLAY_FLEET, seed, nproc, spans, parent)?;
                Prepared::Replay {
                    variants: variant_grid(run.tracker),
                    run,
                    workers: nproc,
                }
            }
        })
    }

    /// Benchmark threads issuing ops concurrently (closed loop). Fleet
    /// and replay ops parallelise inside the program instead.
    pub fn client_threads(&self, nproc: usize) -> usize {
        match self {
            Prepared::Trials { .. } => nproc,
            _ => 1,
        }
    }

    /// Distinct op kinds; set-up runs one untimed warm-up op of each.
    pub fn kinds(&self) -> u64 {
        match self {
            Prepared::Trials { .. } => TRIAL_KINDS.len() as u64,
            Prepared::Street { .. } => 1,
            Prepared::Replay { .. } => 2,
        }
    }

    /// Run op `i` of workload seed `seed`, catching a panic as a failure.
    pub fn op(&self, seed: u64, i: u64, spans: &Spans) -> OpResult {
        let root = spans.open("op", Some(i), None);
        let r = catch_unwind(AssertUnwindSafe(|| self.op_inner(seed, i, spans, root)))
            .unwrap_or_else(|p| {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".into());
                OpResult::new(0.0, 0, Some(format!("panic: {msg}")))
            });
        spans.close(root);
        r
    }

    fn op_inner(&self, seed: u64, i: u64, spans: &Spans, root: Option<SpanId>) -> OpResult {
        match self {
            Prepared::Trials { cfgs } => {
                let (name, arm) = TRIAL_KINDS[(i % TRIAL_KINDS.len() as u64) as usize];
                let cfg = &cfgs[arm_index(arm)];
                let scenario = by_name(name, cfg, op_seed(seed, i));
                let out = spans.call("Scenario::run", Some(i), root, || scenario.run());
                let halted = out
                    .handover_complete_at
                    .map_or(cfg.duration.as_secs_f64(), |t| t.as_secs_f64());
                let mut r = OpResult::new(halted, trial_digest(&out), None);
                r.trial = Some(TrialStats::of(&out));
                r
            }
            Prepared::Street { workers, spec } => {
                let cfg = street(*spec, op_seed(seed, i), false);
                let out = spans.call("run_fleet_with_workers", Some(i), root, || {
                    run_fleet_with_workers(&cfg, *workers)
                });
                let mut h = Fnv64::new();
                h.write(out.summary().as_bytes());
                let ue_s = out.totals.ues as f64 * out.duration.as_secs_f64();
                let mut r = OpResult::new(ue_s, h.finish(), fleet_failure(&out));
                r.fleet = Some(out);
                r
            }
            Prepared::Replay {
                run,
                variants,
                workers,
                ..
            } => {
                let (rep, failure) = if i.is_multiple_of(2) {
                    let rep = spans.call("replay_run", Some(i), root, || replay_run(run, *workers));
                    let failure = (!rep.mismatches.is_empty()).then(|| {
                        format!(
                            "replay mismatch ({} differences), first: {}",
                            rep.mismatches.len(),
                            rep.mismatches[0]
                        )
                    });
                    (rep, failure)
                } else {
                    let v = variants[((i / 2) % variants.len() as u64) as usize];
                    let rep = spans.call("replay_run_with_config", Some(i), root, || {
                        replay_run_with_config(run, v, *workers)
                    });
                    (rep, None)
                };
                let mut h = Fnv64::new();
                for x in [rep.combined_digest, rep.events, rep.actions, rep.handovers] {
                    h.write(&x.to_le_bytes());
                }
                OpResult::new(rep.ue_seconds, h.finish(), failure)
            }
        }
    }
}

/// Why a fleet outcome is wrong, if it is: a shard cut short by its
/// event budget, or per-cell handover arrivals that do not add up to the
/// fleet's handover count.
pub fn fleet_failure(out: &FleetOutcome) -> Option<String> {
    let t = &out.totals;
    if t.budget_exhausted_shards > 0 {
        return Some(format!(
            "{} shard(s) exhausted their event budget",
            t.budget_exhausted_shards
        ));
    }
    let arrivals: u64 = t.per_cell.iter().map(|c| c.handovers_in).sum();
    (arrivals != t.handovers).then(|| {
        format!(
            "per-cell handovers_in sum to {arrivals}, fleet counted {}",
            t.handovers
        )
    })
}

/// Digest of a trial's deterministic outcome fields.
fn trial_digest(o: &RunOutcome) -> u64 {
    let text = format!(
        "{} {:?} {:?} {:?} {:?} {:?} {} {:?} {:?} {:?} {:?} {}",
        o.seed,
        o.acquired_at,
        o.handover_triggered_at,
        o.handover_reason,
        o.handover_complete_at,
        o.rlf_at,
        o.rach_attempts,
        o.interruption,
        o.search_passes,
        o.tracker_stats,
        o.reactive_dwells,
        o.serving_rss.len(),
    );
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    h.finish()
}

/// Combine per-op digests in op-index order.
pub fn run_digest(per_op: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for d in per_op {
        h.write(&d.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Street = Street { ues: 40, secs: 0.5 };

    /// Digest of a workload's first ops (one of each kind for trials),
    /// as a run computes it.
    fn workload_digest(w: Workload, seed: u64) -> u64 {
        let spans = Spans::new(false);
        let p = Prepared::new(w, seed, 2, &spans, None).unwrap();
        let per_op: Vec<u64> = (0..p.kinds().max(2))
            .map(|i| {
                let r = p.op(seed, i, &spans);
                assert_eq!(r.failure, None);
                r.digest
            })
            .collect();
        run_digest(&per_op)
    }

    #[test]
    fn street_digest_repeats_changes_with_seed_and_ignores_workers() {
        let a = workload_digest(Workload::StreetContention, 7);
        assert_eq!(
            a,
            workload_digest(Workload::StreetContention, 7),
            "digest must repeat for one seed"
        );
        assert_ne!(
            a,
            workload_digest(Workload::StreetContention, 8),
            "digest must change with the seed"
        );
        assert_eq!(
            a,
            workload_digest(Workload::StreetParallel, 7),
            "street_contention and street_parallel must agree"
        );
    }

    #[test]
    fn trial_digest_repeats_and_changes_with_seed() {
        let a = workload_digest(Workload::PaperTrials, 3);
        assert_eq!(a, workload_digest(Workload::PaperTrials, 3));
        assert_ne!(a, workload_digest(Workload::PaperTrials, 4));
    }

    fn replay_digest(seed: u64, workers: usize) -> u64 {
        let spans = Spans::new(false);
        let run = record_trace(SMALL, seed, workers, &spans, None).unwrap();
        let p = Prepared::Replay {
            variants: variant_grid(run.tracker),
            run,
            workers,
        };
        let per_op: Vec<u64> = (0..4)
            .map(|i| {
                let r = p.op(seed, i, &spans);
                assert_eq!(r.failure, None);
                r.digest
            })
            .collect();
        run_digest(&per_op)
    }

    #[test]
    fn replay_digest_repeats_changes_with_seed_and_ignores_workers() {
        let a = replay_digest(5, 1);
        assert_eq!(a, replay_digest(5, 1));
        assert_ne!(a, replay_digest(6, 1));
        assert_eq!(a, replay_digest(5, 2));
    }

    #[test]
    fn failed_fleet_checks_catch_a_broken_ledger() {
        let spans = Spans::new(false);
        let p = Prepared::Street {
            workers: 1,
            spec: SMALL,
        };
        let mut out = p.op(1, 0, &spans).fleet.unwrap();
        assert_eq!(fleet_failure(&out), None);
        out.totals.handovers += 1;
        assert!(fleet_failure(&out).unwrap().contains("handovers_in"));
        out.totals.budget_exhausted_shards = 1;
        assert!(fleet_failure(&out).unwrap().contains("event budget"));
    }

    #[test]
    fn a_panicking_op_counts_as_failed() {
        let spans = Spans::new(false);
        // An empty replay grid makes the variant op divide by zero.
        let p = Prepared::Replay {
            run: RunTrace {
                label: String::new(),
                seed: 0,
                duration: st_des::SimDuration::ZERO,
                live_wall_s: 0.0,
                tracker: TrackerConfig::paper_defaults(),
                codebook: st_phy::BeamwidthClass::Narrow,
                ues: Vec::new(),
            },
            variants: Vec::new(),
            workers: 1,
        };
        let r = p.op(0, 1, &spans);
        assert!(r.failure.unwrap().starts_with("panic"));
    }
}
