//! Fleet-level aggregates: per-cell RACH load and per-UE handover
//! outcomes, merged across shards in shard order so results are
//! bit-identical regardless of how many worker threads ran the shards.

use std::collections::BTreeSet;

use silent_tracker::attribution::{Cause, InterruptionBreakdown, Phase};
use st_des::SimDuration;
use st_mac::responder::ResponderStats;
use st_metrics::{Profiler, QuantileSketch, SketchMap, Table};
use st_net::stage::StageCounters;
use st_net::UeTrace;

use crate::telemetry::SnapshotRing;

/// RACH and backhaul load observed at one cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellLoad {
    /// BS-side responder counters (collisions, contention losses, …).
    pub responder: ResponderStats,
    /// Preamble transmissions UEs aimed at this cell (some are lost on
    /// air before the responder hears them).
    pub preambles_tx: u64,
    /// Distinct PRACH occasions on which ≥ 1 preamble was transmitted.
    pub occasions_used: u64,
    /// PRACH occasions the cell offered over the run.
    pub occasions_total: u64,
    /// Handovers completed with this cell as the target.
    pub handovers_in: u64,
}

impl CellLoad {
    /// Fraction of heard preambles that collided with another UE.
    pub fn collision_rate(&self) -> f64 {
        if self.responder.preambles_heard == 0 {
            return 0.0;
        }
        // Each collision involves ≥ 2 of the heard preambles.
        (2 * self.responder.collisions) as f64 / self.responder.preambles_heard as f64
    }

    /// Fraction of offered PRACH occasions actually used.
    pub fn occupancy(&self) -> f64 {
        if self.occasions_total == 0 {
            return 0.0;
        }
        self.occasions_used as f64 / self.occasions_total as f64
    }

    /// Fold another shard's view of this cell in: the UE-side counters
    /// add, and the offered occasion total — derived from the shared
    /// config, so every shard reports the same value — is kept once. The
    /// responder counters and the used-occasion count are fleet-wide,
    /// set once after the merge.
    pub fn merge(&mut self, other: &CellLoad) {
        self.preambles_tx += other.preambles_tx;
        self.handovers_in += other.handovers_in;
        assert!(
            self.occasions_total == 0 || self.occasions_total == other.occasions_total,
            "shards disagree on the offered PRACH occasion total"
        );
        self.occasions_total = other.occasions_total;
    }
}

/// Everything one shard observed.
#[derive(Debug, Clone, Default)]
pub struct ShardOutcome {
    pub per_cell: Vec<CellLoad>,
    /// Raw instants (ns) of PRACH occasions this shard's UEs transmitted
    /// on, per cell — unioned across shards by the merge so a globally
    /// shared occasion is counted once.
    pub occasion_instants: Vec<BTreeSet<u64>>,
    /// Soft-handover (make-before-break) interruptions, ms: a streaming
    /// sketch of fixed size, mergeable across shards with byte-identical
    /// results. No raw per-handover samples are kept; an exact reference
    /// comes from the recorded causal marks
    /// ([`crate::breakdowns_from_traces`]), whose totals bit-equal the
    /// values recorded here.
    pub soft_sketch: QuantileSketch,
    /// Hard-handover (post-RLF reactive) interruptions, ms; same
    /// contract.
    pub hard_sketch: QuantileSketch,
    /// Per-cause soft-interruption ledger: one streaming sketch per root
    /// cause, keyed by the stable cause label, merged in canonical key
    /// order (byte-identical across worker counts, constant memory).
    pub soft_causes: SketchMap,
    /// Per-cause hard-interruption ledger; same contract.
    pub hard_causes: SketchMap,
    /// Worst interruptions of the run with full phase breakdowns —
    /// bounded ([`crate::attribution::WORST_CAP`]) and kept in the
    /// canonical worst-first order, so the retained set is identical at
    /// any shard/worker split.
    pub worst: Vec<InterruptionBreakdown>,
    /// Time-sliced snapshot ring ([`FleetConfig::snapshot_interval`]).
    ///
    /// [`FleetConfig::snapshot_interval`]: crate::FleetConfig::snapshot_interval
    pub timeline: Option<SnapshotRing>,
    /// Deterministic work counters plus (non-deterministic, separately
    /// surfaced) wall-time spans for this shard / the merged run.
    pub profile: Profiler,
    pub ues: u64,
    pub handovers: u64,
    pub rlfs: u64,
    pub rach_attempts: u64,
    pub search_dwells: u64,
    pub nrba_switches: u64,
    pub events: u64,
    /// Shards whose executive tripped the per-shard event budget
    /// (runaway guard) instead of reaching the deadline. Zero on any
    /// healthy run.
    pub budget_exhausted_shards: u64,
    /// Recorded per-UE protocol traces ([`FleetConfig::record_traces`]).
    /// Merged in global UE-id order; deliberately excluded from
    /// [`FleetOutcome::summary`].
    ///
    /// [`FleetConfig::record_traces`]: crate::FleetConfig
    pub ue_traces: Vec<UeTrace>,
}

/// Nondeterministic execution-side observations of a fleet run
/// (wall-clock barrier overhead) plus the stage's deterministic
/// counters. Kept out of [`FleetOutcome::summary`]: wall time is not a
/// property of (config, seed).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageReport {
    /// Occasion barriers the run synchronized at: the barriers held,
    /// summed over contention groups.
    pub epochs: u64,
    /// Total wall-clock seconds all workers spent waiting at barriers.
    pub barrier_wait_s: f64,
    /// Deterministic stage counters (resolved preambles/Msg3s, busy and
    /// held barriers).
    pub counters: StageCounters,
}

/// Merged fleet result.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    pub seed: u64,
    pub n_shards: usize,
    pub duration: SimDuration,
    /// Barrier/stage execution report. Every fleet run sets it; only an
    /// outcome assembled directly with [`FleetOutcome::merge`] has none.
    pub stage: Option<StageReport>,
    pub totals: ShardOutcome,
}

impl FleetOutcome {
    /// Merge shard results *in shard order* — shard order is a property
    /// of the config, not of thread scheduling, so the merged outcome is
    /// identical at any worker count.
    ///
    /// The shards model one set of *global* PRACH occasions: the merge
    /// unions the used instants (a shared occasion is one occasion),
    /// counts them per cell and per timeline slice, and keeps the
    /// config-derived offered total once instead of once per shard.
    /// Responder counters come from the shared stage afterwards
    /// ([`FleetOutcome::apply_shared_responders`]).
    pub fn merge(
        seed: u64,
        duration: SimDuration,
        shards: impl IntoIterator<Item = ShardOutcome>,
    ) -> FleetOutcome {
        let mut totals = ShardOutcome::default();
        let mut n_shards: usize = 0;
        let mut timeline: Option<SnapshotRing> = None;
        let mut timeline_ok = true;
        for mut s in shards {
            n_shards += 1;
            totals.soft_sketch.merge(&s.soft_sketch);
            totals.hard_sketch.merge(&s.hard_sketch);
            totals.soft_causes.merge(&s.soft_causes);
            totals.hard_causes.merge(&s.hard_causes);
            crate::attribution::merge_worst(&mut totals.worst, &s.worst);
            totals.profile.merge(&s.profile);
            // Shard timelines share one shape (same config drives the
            // compaction schedule); a mismatch means some shard was cut
            // short (event-budget guard), in which case the timeline is
            // dropped rather than reported wrong or panicked on.
            if n_shards == 1 {
                timeline = s.timeline.take();
            } else {
                match (timeline.as_mut(), s.timeline.as_ref()) {
                    (Some(t), Some(r)) if t.compatible(r) => t.merge(r),
                    (None, None) => {}
                    _ => timeline_ok = false,
                }
            }
            if totals.per_cell.is_empty() {
                totals.per_cell = vec![CellLoad::default(); s.per_cell.len()];
            }
            for (t, c) in totals.per_cell.iter_mut().zip(s.per_cell.iter()) {
                t.merge(c);
            }
            if totals.occasion_instants.is_empty() {
                totals.occasion_instants = vec![BTreeSet::new(); s.occasion_instants.len()];
            }
            for (t, c) in totals
                .occasion_instants
                .iter_mut()
                .zip(s.occasion_instants.iter_mut())
            {
                t.append(c);
            }
            totals.ues += s.ues;
            totals.handovers += s.handovers;
            totals.rlfs += s.rlfs;
            totals.rach_attempts += s.rach_attempts;
            totals.search_dwells += s.search_dwells;
            totals.nrba_switches += s.nrba_switches;
            totals.events += s.events;
            totals.budget_exhausted_shards += s.budget_exhausted_shards;
            totals.ue_traces.append(&mut s.ue_traces);
        }
        // Tiles own interleaved global ids; restore global id order so the
        // trace set is identical for every shard/worker split.
        totals.ue_traces.sort_by_key(|u| u.id);
        totals.timeline = if timeline_ok { timeline } else { None };
        for (t, used) in totals.per_cell.iter_mut().zip(&totals.occasion_instants) {
            t.occasions_used = used.len() as u64;
        }
        if let Some(ring) = totals.timeline.as_mut() {
            ring.count_occasions(totals.occasion_instants.iter().flatten().copied());
        }
        FleetOutcome {
            seed,
            n_shards,
            duration,
            stage: None,
            totals,
        }
    }

    /// Install the shared stage's per-cell responder statistics —
    /// reported **once** per cell. Shards carry no responders (all RACH
    /// traffic resolves at the stage), so the summed per-shard counters
    /// this replaces are zero; summing the stage's counters per shard
    /// would double-, quadruple-, N-count them (the regression
    /// `metrics::tests` pins).
    pub fn apply_shared_responders(&mut self, per_cell: Vec<ResponderStats>) {
        assert_eq!(
            per_cell.len(),
            self.totals.per_cell.len(),
            "stage cell count must match the fleet's"
        );
        for (cell, stats) in self.totals.per_cell.iter_mut().zip(per_cell) {
            debug_assert_eq!(
                cell.responder,
                ResponderStats::default(),
                "shards must not report responder counters of their own"
            );
            cell.responder = stats;
        }
    }

    /// Deterministic one-blob textual aggregate: byte-identical for
    /// identical (config, seed) regardless of worker *and* shard count —
    /// the artifact the CI fleet-smoke step compares across invocations.
    /// It therefore reports no shard-structure artifacts (shard count,
    /// per-shard DES event sums — those live on
    /// [`FleetOutcome::n_shards`] / [`ShardOutcome::events`]).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let t = &self.totals;
        writeln!(
            s,
            "fleet seed={} ues={} duration_ms={:.3} contention=exact",
            self.seed,
            t.ues,
            self.duration.as_millis_f64(),
        )
        .unwrap();
        for (i, c) in t.per_cell.iter().enumerate() {
            writeln!(
                s,
                "cell{} tx={} heard={} collisions={} rar={} losses={} rejected={} \
                 occ={}/{} fetches={} queue_wait_us={} handovers_in={} \
                 merged_occ={} peak_merge={}",
                i,
                c.preambles_tx,
                c.responder.preambles_heard,
                c.responder.collisions,
                c.responder.rar_sent,
                c.responder.contention_losses,
                c.responder.rejected,
                c.occasions_used,
                c.occasions_total,
                c.responder.context_fetches,
                c.responder.backhaul_queue_wait.as_nanos() / 1000,
                c.handovers_in,
                c.responder.merged_occasions,
                c.responder.peak_merged_attempts,
            )
            .unwrap();
        }
        // Quantiles off the merged sketch: a deterministic function of
        // (config, seed).
        let quant = |sk: &QuantileSketch| -> String {
            if sk.is_empty() {
                return "n=0".into();
            }
            format!(
                "n={} p50_ms={:.3} p95_ms={:.3} max_ms={:.3}",
                sk.count(),
                sk.quantile(0.5).unwrap_or(0.0),
                sk.quantile(0.95).unwrap_or(0.0),
                sk.max().unwrap_or(0.0)
            )
        };
        writeln!(
            s,
            "handovers={} rlfs={} rach_attempts={} search_dwells={} nrba_switches={} \
             budget_exhausted_shards={}",
            t.handovers,
            t.rlfs,
            t.rach_attempts,
            t.search_dwells,
            t.nrba_switches,
            t.budget_exhausted_shards,
        )
        .unwrap();
        writeln!(s, "soft {}", quant(&t.soft_sketch)).unwrap();
        writeln!(s, "hard {}", quant(&t.hard_sketch)).unwrap();
        // Per-cause attribution ledgers, in canonical (lexicographic
        // label) order — only causes that actually occurred are listed.
        for (arm, map) in [("soft", &t.soft_causes), ("hard", &t.hard_causes)] {
            for (key, sk) in map.iter() {
                writeln!(
                    s,
                    "cause {} {} n={} p50_ms={:.3} p95_ms={:.3} max_ms={:.3}",
                    arm,
                    key,
                    sk.count(),
                    sk.quantile(0.5).unwrap_or(0.0),
                    sk.quantile(0.95).unwrap_or(0.0),
                    sk.max().unwrap_or(0.0)
                )
                .unwrap();
            }
        }
        s
    }

    /// Human-oriented per-cell table.
    pub fn render_cells(&self) -> String {
        let mut t = Table::new(
            "Per-cell RACH load",
            &[
                "cell",
                "preambles",
                "collision_%",
                "occupancy_%",
                "losses",
                "fetches",
                "queue_ms",
                "handovers",
            ],
        );
        for (i, c) in self.totals.per_cell.iter().enumerate() {
            t.row(&[
                format!("{i}"),
                format!("{}", c.responder.preambles_heard),
                format!("{:.1}", c.collision_rate() * 100.0),
                format!("{:.1}", c.occupancy() * 100.0),
                format!("{}", c.responder.contention_losses),
                format!("{}", c.responder.context_fetches),
                format!("{:.1}", c.responder.backhaul_queue_wait.as_millis_f64()),
                format!("{}", c.handovers_in),
            ]);
        }
        t.render()
    }

    /// Soft-interruption quantiles, read off the streaming sketch
    /// (relative error within its bound), if any handover completed.
    pub fn soft_stats(&self) -> Option<InterruptionStats> {
        interruption_stats(&self.totals.soft_sketch)
    }

    /// Hard-interruption quantiles; same source as
    /// [`FleetOutcome::soft_stats`].
    pub fn hard_stats(&self) -> Option<InterruptionStats> {
        interruption_stats(&self.totals.hard_sketch)
    }

    /// The merged snapshot timeline, when the run was armed with
    /// [`FleetConfig::snapshot_interval`].
    ///
    /// [`FleetConfig::snapshot_interval`]: crate::FleetConfig::snapshot_interval
    pub fn timeline(&self) -> Option<&SnapshotRing> {
        self.totals.timeline.as_ref()
    }

    /// The merged run profiler: deterministic work counters (asserted
    /// byte-identical across worker counts) plus wall-time spans (not).
    pub fn profile(&self) -> &Profiler {
        &self.totals.profile
    }

    /// Render the merged timeline as deterministic JSON — the
    /// `BENCH_fleet_timeline.json` artifact. Contains **no wall-clock
    /// values**: every byte is a function of (config, seed), so CI can
    /// `cmp` the file across worker counts.
    ///
    /// Schema (`st-fleet-timeline-v2`): `dt_s` is the effective slice
    /// width after ring compaction (`base_dt_s` times a power of two);
    /// `slices[i]` covers `[t_start_s, t_end_s)` with per-arm
    /// interruption quantiles (`n/p50_ms/p95_ms/p99_ms/max_ms`, zero
    /// when `n == 0`), interval counters (handovers, rlfs,
    /// rach_attempts, preambles_tx, occasions_used, preambles_heard,
    /// collisions, collision_rate, contention_losses, backhaul_wait_us),
    /// per-cause attributed-interruption counts (`causes`, canonical
    /// cause order — v2 addition) and boundary gauges
    /// (backhaul_backlog_us, event_queue_depth).
    pub fn timeline_json(&self) -> Option<String> {
        use std::fmt::Write as _;
        let ring = self.totals.timeline.as_ref()?;
        let dt = ring.effective_interval();
        let mut s = String::new();
        writeln!(s, "{{").unwrap();
        writeln!(s, "  \"schema\": \"st-fleet-timeline-v2\",").unwrap();
        writeln!(s, "  \"seed\": {},", self.seed).unwrap();
        writeln!(s, "  \"duration_s\": {:.6},", self.duration.as_secs_f64()).unwrap();
        writeln!(
            s,
            "  \"base_dt_s\": {:.6},",
            ring.base_interval().as_secs_f64()
        )
        .unwrap();
        writeln!(s, "  \"dt_s\": {:.6},", dt.as_secs_f64()).unwrap();
        writeln!(s, "  \"n_slices\": {},", ring.slices().len()).unwrap();
        writeln!(s, "  \"slices\": [").unwrap();
        let arm = |sk: &QuantileSketch| -> String {
            if sk.is_empty() {
                "{\"n\": 0, \"p50_ms\": 0.000, \"p95_ms\": 0.000, \
                 \"p99_ms\": 0.000, \"max_ms\": 0.000}"
                    .into()
            } else {
                format!(
                    "{{\"n\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
                     \"p99_ms\": {:.3}, \"max_ms\": {:.3}}}",
                    sk.count(),
                    sk.quantile(0.5).unwrap_or(0.0),
                    sk.quantile(0.95).unwrap_or(0.0),
                    sk.quantile(0.99).unwrap_or(0.0),
                    sk.max().unwrap_or(0.0)
                )
            }
        };
        let n = ring.slices().len();
        for (i, sl) in ring.slices().iter().enumerate() {
            let t0 = dt.as_secs_f64() * i as f64;
            let t1 = (dt.as_secs_f64() * (i + 1) as f64).min(self.duration.as_secs_f64());
            writeln!(s, "    {{").unwrap();
            writeln!(s, "      \"t_start_s\": {t0:.6}, \"t_end_s\": {t1:.6},").unwrap();
            writeln!(s, "      \"soft\": {},", arm(&sl.soft)).unwrap();
            writeln!(s, "      \"hard\": {},", arm(&sl.hard)).unwrap();
            writeln!(
                s,
                "      \"handovers\": {}, \"rlfs\": {}, \"rach_attempts\": {},",
                sl.handovers, sl.rlfs, sl.rach_attempts
            )
            .unwrap();
            writeln!(
                s,
                "      \"preambles_tx\": {}, \"occasions_used\": {}, \
                 \"preambles_heard\": {},",
                sl.preambles_tx, sl.occasions_used, sl.preambles_heard
            )
            .unwrap();
            writeln!(
                s,
                "      \"collisions\": {}, \"collision_rate\": {:.4}, \
                 \"contention_losses\": {},",
                sl.collisions,
                sl.collision_rate(),
                sl.contention_losses
            )
            .unwrap();
            let causes: Vec<String> = Cause::ALL
                .iter()
                .map(|&c| format!("\"{}\": {}", c.label(), sl.cause_counts[c as usize]))
                .collect();
            writeln!(s, "      \"causes\": {{{}}},", causes.join(", ")).unwrap();
            writeln!(
                s,
                "      \"backhaul_wait_us\": {}, \"backhaul_backlog_us\": {}, \
                 \"event_queue_depth\": {}",
                sl.backhaul_wait_us, sl.backhaul_backlog_us, sl.event_queue_depth
            )
            .unwrap();
            writeln!(s, "    }}{}", if i + 1 < n { "," } else { "" }).unwrap();
        }
        writeln!(s, "  ]").unwrap();
        writeln!(s, "}}").unwrap();
        Some(s)
    }

    /// Render the per-cause attribution aggregates as deterministic JSON
    /// (`st-fleet-causes-v1`): per-arm cause ledgers (streaming-sketch
    /// quantiles per cause label, canonical order) and the worst-k
    /// exemplars with their full phase decompositions. Contains **no
    /// wall-clock values** — every byte is a function of (config, seed),
    /// so CI can `cmp` the file across worker counts.
    pub fn causes_json(&self) -> String {
        use std::fmt::Write as _;
        let t = &self.totals;
        let mut s = String::new();
        writeln!(s, "{{").unwrap();
        writeln!(s, "  \"schema\": \"st-fleet-causes-v1\",").unwrap();
        writeln!(s, "  \"seed\": {},", self.seed).unwrap();
        for (name, map) in [
            ("soft_causes", &t.soft_causes),
            ("hard_causes", &t.hard_causes),
        ] {
            writeln!(s, "  \"{name}\": {{").unwrap();
            let n = map.len();
            for (i, (key, sk)) in map.iter().enumerate() {
                writeln!(
                    s,
                    "    \"{}\": {{\"n\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
                     \"p99_ms\": {:.3}, \"max_ms\": {:.3}}}{}",
                    key,
                    sk.count(),
                    sk.quantile(0.5).unwrap_or(0.0),
                    sk.quantile(0.95).unwrap_or(0.0),
                    sk.quantile(0.99).unwrap_or(0.0),
                    sk.max().unwrap_or(0.0),
                    if i + 1 < n { "," } else { "" }
                )
                .unwrap();
            }
            writeln!(s, "  }},").unwrap();
        }
        writeln!(s, "  \"worst\": [").unwrap();
        let n = t.worst.len();
        for (i, bd) in t.worst.iter().enumerate() {
            let phases: Vec<String> = Phase::ALL
                .iter()
                .map(|&p| format!("\"{}\": {:.6}", p.label(), bd.phases_ms[p as usize]))
                .collect();
            writeln!(
                s,
                "    {{\"ue\": {}, \"from_cell\": {}, \"to_cell\": {}, \"cause\": \"{}\", \
                 \"total_ms\": {:.6}, \"rach_rounds\": {}, \"phases_ms\": {{{}}}}}{}",
                bd.ue,
                bd.from_cell,
                bd.to_cell,
                bd.cause.label(),
                bd.total_ms,
                bd.rach_rounds,
                phases.join(", "),
                if i + 1 < n { "," } else { "" }
            )
            .unwrap();
        }
        writeln!(s, "  ]").unwrap();
        writeln!(s, "}}").unwrap();
        s
    }
}

/// Quantile surface of one interruption arm — the bench-table view of
/// its streaming sketch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterruptionStats {
    pub n: u64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub mean_ms: f64,
    pub max_ms: f64,
}

fn interruption_stats(sk: &QuantileSketch) -> Option<InterruptionStats> {
    if sk.is_empty() {
        return None;
    }
    Some(InterruptionStats {
        n: sk.count(),
        p50_ms: sk.quantile(0.5).unwrap_or(0.0),
        p95_ms: sk.quantile(0.95).unwrap_or(0.0),
        p99_ms: sk.quantile(0.99).unwrap_or(0.0),
        mean_ms: sk.mean().unwrap_or(0.0),
        max_ms: sk.max().unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(cells: usize, soft: &[f64]) -> ShardOutcome {
        let mut occasions = vec![BTreeSet::new(); cells];
        occasions[0] = (1..=5).collect();
        let mut s = ShardOutcome {
            per_cell: vec![CellLoad::default(); cells],
            occasion_instants: occasions,
            ues: 2,
            handovers: soft.len() as u64,
            ..ShardOutcome::default()
        };
        for &ms in soft {
            s.soft_sketch.record(ms);
        }
        s.per_cell[0].occasions_total = 50;
        s.per_cell[0].preambles_tx = 12;
        s
    }

    /// Shard order could only show through the order samples reach the
    /// interruption sketches, and a sketch merge ignores sample order.
    #[test]
    fn merge_is_shard_order_dependent_only_in_sample_order() {
        let merge = |first: &[f64], second: &[f64]| {
            FleetOutcome::merge(
                1,
                SimDuration::from_secs(1),
                [shard(2, first), shard(2, second)],
            )
        };
        let m = merge(&[10.0, 20.0], &[30.0]);
        assert_eq!(m.summary(), merge(&[30.0], &[10.0, 20.0]).summary());
        assert_eq!(m.totals.ues, 4);
        let sk = &m.totals.soft_sketch;
        assert_eq!(
            (sk.count(), sk.min(), sk.max()),
            (3, Some(10.0), Some(30.0))
        );
        // UE-side offered load adds; the shards' identical occasion
        // instants count once.
        assert_eq!(m.totals.per_cell[0].preambles_tx, 24);
        assert_eq!(m.totals.per_cell[0].occasions_used, 5);
    }

    #[test]
    fn rates_handle_empty_and_loaded_cells() {
        let mut m = FleetOutcome::merge(1, SimDuration::from_secs(1), [shard(2, &[15.0])]);
        let heard = ResponderStats {
            preambles_heard: 10,
            collisions: 2,
            ..ResponderStats::default()
        };
        m.apply_shared_responders(vec![heard, ResponderStats::default()]);
        let c0 = &m.totals.per_cell[0];
        assert!((c0.collision_rate() - 0.4).abs() < 1e-12);
        assert!((c0.occupancy() - 0.1).abs() < 1e-12);
        let c1 = &m.totals.per_cell[1];
        assert_eq!(c1.collision_rate(), 0.0);
        assert_eq!(c1.occupancy(), 0.0);
    }

    #[test]
    fn summary_is_deterministic_text() {
        let m1 = FleetOutcome::merge(1, SimDuration::from_secs(1), [shard(1, &[10.0])]);
        let m2 = FleetOutcome::merge(1, SimDuration::from_secs(1), [shard(1, &[10.0])]);
        assert_eq!(m1.summary(), m2.summary());
        assert!(m1.summary().contains("cell0"));
        assert!(m1.summary().contains("soft n=1"));
        assert!(m1.render_cells().contains("Per-cell RACH load"));
    }

    /// With the shared stage, responder counters are *global* — the merge
    /// must report them once per cell, not once per shard, and occasion
    /// accounting must union instants instead of summing per-shard
    /// distinct counts.
    #[test]
    fn exact_merge_reports_shared_responders_once_per_cell() {
        let exact_shard = |instants: &[u64]| {
            let mut s = ShardOutcome {
                per_cell: vec![CellLoad::default(); 2],
                occasion_instants: vec![instants.iter().copied().collect(), BTreeSet::new()],
                ues: 3,
                ..ShardOutcome::default()
            };
            // UE-side offered load is still per-shard additive…
            s.per_cell[0].preambles_tx = 5;
            s.per_cell[0].occasions_total = 50;
            s.per_cell[1].occasions_total = 50;
            s
        };
        // Shards share occasions 20 and 30: the union has 4 instants,
        // not 3 + 3.
        let a = exact_shard(&[10, 20, 30]);
        let b = exact_shard(&[20, 30, 40]);
        let mut m = FleetOutcome::merge(1, SimDuration::from_secs(1), [a, b]);
        assert_eq!(m.totals.per_cell[0].occasions_used, 4);
        // …and the offered total is the one set of global occasions the
        // cell actually transmitted, not once per shard.
        assert_eq!(m.totals.per_cell[0].occasions_total, 50);
        assert_eq!(m.totals.per_cell[0].preambles_tx, 10);

        // The stage's responder counters land once per cell, untouched
        // by the shard count.
        let stage_stats = ResponderStats {
            preambles_heard: 40,
            collisions: 7,
            rar_sent: 38,
            ..ResponderStats::default()
        };
        m.apply_shared_responders(vec![stage_stats, ResponderStats::default()]);
        assert_eq!(m.totals.per_cell[0].responder, stage_stats);
        assert_eq!(m.totals.per_cell[1].responder, ResponderStats::default());
        // Collision rate reads off the global counters.
        assert!((m.totals.per_cell[0].collision_rate() - 14.0 / 40.0).abs() < 1e-12);
    }

    /// The interruption distribution — the summary line and the stats
    /// surface read off the sketch — exists only once samples arrive.
    #[test]
    fn ecdfs_require_samples() {
        let m = FleetOutcome::merge(1, SimDuration::from_secs(1), [shard(1, &[])]);
        assert!(m.soft_stats().is_none());
        assert!(m.summary().contains("soft n=0"));
        let m2 = FleetOutcome::merge(1, SimDuration::from_secs(1), [shard(1, &[5.0, 7.0])]);
        let stats = m2.soft_stats().unwrap();
        assert_eq!((stats.n, stats.max_ms), (2, 7.0));
        assert!(stats.mean_ms > 5.9);
    }
}
