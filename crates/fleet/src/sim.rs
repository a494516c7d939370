//! One fleet shard: N UEs sharing M cells on a single discrete-event
//! executive.
//!
//! A shard is the fleet's loop over the shared UE driver
//! ([`st_net::driver`]) — the same handlers the single trial runs. What
//! the fleet adds is the MAC under load and its own bookkeeping:
//!
//! * all UEs share each cell's PRACH occasions — two UEs picking the same
//!   preamble on the same occasion collide, both accept the one RAR, and
//!   Msg4 contention resolution picks a winner while the loser backs off
//!   and retries. A shard does not answer its UEs' RACH traffic: the
//!   attempts its driver publishes go to the fleet's shared responder
//!   stage ([`st_net::stage`]) at occasion barriers, which resolves all
//!   shards' attempts together, so UEs on different shards contend
//!   exactly as if they shared one;
//! * soft-handover context fetches serialize through each cell's FIFO
//!   backhaul pipe (at the stage), so Msg4 latency — and therefore
//!   interruption — grows with handover load;
//! * unlike a single trial, the run never halts at the first handover:
//!   the driver re-anchors the protocol on the new serving cell and keeps
//!   going, so one UE can hand over repeatedly;
//! * channels are stepped lazily: a link's shadowing, fading and
//!   blockage advance only when that link is sampled, in one step from
//!   its last step to the sample instant (exact in law, see
//!   [`st_net::radio::LinkSet`]), so a link nobody reads costs no draws;
//! * the shard's [`Observer`] keeps the fleet's streaming telemetry,
//!   causal attribution and per-cell ledgers.
//!
//! Every stochastic component draws from a stream derived from the fleet
//! master seed and the *global* UE id, so a UE behaves identically no
//! matter which shard (or worker thread) runs it.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::RngExt as _;

use silent_tracker::attribution::InterruptionBreakdown;
use st_des::{Control, Executive, RngStreams, SimDuration, SimTime, StopReason};
use st_mobility::{BoxedModel, Composite, DeviceRotation, HumanWalk, TurnAt, Vehicular};
use st_net::config::ProtocolKind;
use st_net::driver::{Driver, Ev, HandoverDone, Observer, UeSetup};
use st_net::proto::Proto;
use st_net::radio::{LinkSet, Sites};
use st_net::stage::{RachAttemptMsg, RachReply};
use st_phy::codebook::Codebook;
use st_phy::geometry::{Radians, Vec2};

use crate::deployment::{nearest_cell, FleetConfig, MobilityKind, UeSpec};
use crate::metrics::{CellLoad, ShardOutcome};
use crate::telemetry::{SnapshotRing, SnapshotSlice};

/// The fleet's observer of one shard's UEs: it accumulates the shard's
/// [`ShardOutcome`] in place — counters, per-cell ledgers, interruption
/// sketches and causal attribution — plus the streaming timeline. Every
/// hook is a handful of updates into pre-sized, constant-size state.
struct Ledger {
    out: ShardOutcome,
    /// Per-arm (soft=0, hard=1), per-cause recorded interruption totals
    /// and their phase-decomposition sums, accumulated in recording
    /// order. Each summand pair is bit-equal by construction, so the
    /// accumulated pairs stay bit-equal — `finish` asserts it.
    cause_totals: [[f64; 5]; 2],
    cause_phase_sums: [[f64; 5]; 2],
    /// Run-level per-cause interruption counts — the conservation ledger
    /// the timeline slice cause counts must sum to.
    cause_counts_run: [u64; 5],
    /// The timeline slice accumulating since the last sealed boundary.
    cur: SnapshotSlice,
}

impl Ledger {
    /// Fold a retiring (or final) protocol instance's counters into the
    /// shard's totals.
    fn bank(&mut self, proto: &Proto) {
        self.out.search_dwells += proto.search_dwells();
        if let Some(st) = proto.stats() {
            self.out.nrba_switches += st.nrba_switches;
        }
    }

    /// Seal the accumulating slice at a snapshot boundary (or at the end
    /// of the run, for the last slice): sample the event-queue gauge and
    /// push the slice into the timeline ring. The responder-side fields
    /// (heard, collisions, losses, backhaul wait and backlog) stay zero
    /// here — the shared stage answers all RACH traffic, and its own
    /// per-slice attribution supplies them at merge time — and so do the
    /// used occasions, which the merge counts from the unioned instants.
    fn seal_slice(&mut self, event_queue_depth: u64) {
        let Some(ring) = self.out.timeline.as_mut() else {
            return;
        };
        let mut slice = std::mem::take(&mut self.cur);
        slice.event_queue_depth = event_queue_depth;
        ring.push(slice);
    }
}

impl Observer for Ledger {
    fn on_rlf(&mut self, _i: usize, _now: SimTime) {
        self.out.rlfs += 1;
        self.cur.rlfs += 1;
    }

    fn on_preamble(&mut self, _i: usize, now: SimTime, cell: usize, _attempt: u8) {
        self.out.rach_attempts += 1;
        self.cur.rach_attempts += 1;
        // Offered-load accounting: every transmission counts, whether or
        // not the BS ends up hearing it. The raw occasion instants travel
        // with the shard result so the merge can count each *global*
        // occasion once (two shards using one occasion is one occasion),
        // in the run totals and in the timeline slices alike.
        self.out.per_cell[cell].preambles_tx += 1;
        self.cur.preambles_tx += 1;
        self.out.occasion_instants[cell].insert(now.as_nanos());
    }

    fn on_handover(&mut self, _i: usize, now: SimTime, done: &HandoverDone, proto: &Proto) {
        if let Some(marks) = &done.marks {
            let ms = done.done_at.since(marks.start).as_millis_f64();
            // Causal attribution: the phase decomposition + root cause of
            // the raw timeline. The breakdown total is bit-equal to the
            // `ms` sample recorded below — one interruption, one number,
            // two views. Checked here, in every build: the runner fails
            // the whole run on a worker's panic.
            let bd = InterruptionBreakdown::from_marks(marks);
            assert!(
                bd.total_ms.to_bits() == ms.to_bits(),
                "UE {}'s handover at {now}: breakdown total {} ms must bit-equal the \
                 recorded interruption {ms} ms",
                marks.ue,
                bd.total_ms
            );
            let out = &mut self.out;
            let (arm, causes) = match proto.kind() {
                ProtocolKind::SilentTracker => {
                    out.soft_sketch.record(ms);
                    self.cur.soft.record(ms);
                    (0, &mut out.soft_causes)
                }
                ProtocolKind::Reactive => {
                    out.hard_sketch.record(ms);
                    self.cur.hard.record(ms);
                    (1, &mut out.hard_causes)
                }
            };
            causes.record(bd.cause.label(), ms);
            let c = bd.cause as usize;
            self.cause_totals[arm][c] += ms;
            self.cause_phase_sums[arm][c] += bd.phase_sum_ms();
            self.cause_counts_run[c] += 1;
            self.cur.cause_counts[c] += 1;
            crate::attribution::push_worst(&mut out.worst, bd);
        }
        self.out.handovers += 1;
        self.cur.handovers += 1;
        self.out.per_cell[done.target].handovers_in += 1;
        self.bank(proto);
    }
}

/// Build the mobility model of one UE from its per-UE spawn stream.
pub(crate) fn build_mobility(
    spec: &UeSpec,
    rng: &mut StdRng,
    cfg: &FleetConfig,
) -> (BoxedModel, Vec2) {
    let x = cfg.spawn_x.0 + rng.random::<f64>() * (cfg.spawn_x.1 - cfg.spawn_x.0);
    let y = cfg.spawn_y.0 + rng.random::<f64>() * (cfg.spawn_y.1 - cfg.spawn_y.0);
    let pos = Vec2::new(x, y);
    // Walkers and vehicles head up or down the street.
    let heading = if rng.random::<f64>() < 0.5 {
        Radians(0.0)
    } else {
        Radians(std::f64::consts::PI)
    };
    let phase = rng.random::<f64>() * std::f64::consts::TAU;
    let model: BoxedModel = match spec.mobility {
        MobilityKind::Walk => Box::new(HumanWalk::paper_walk(pos, heading).with_phase(phase)),
        MobilityKind::Vehicular => Box::new(Vehicular::paper_vehicular(pos, heading)),
        MobilityKind::Rotation => Box::new(DeviceRotation::paper_rotation(pos, Radians(phase))),
        MobilityKind::WalkAndTurn => {
            let walk = HumanWalk::paper_walk(pos, heading).with_phase(phase);
            let turn = TurnAt {
                start_s: 0.3 + rng.random::<f64>(),
                turn_rad: std::f64::consts::FRAC_PI_2,
                rate_rad_s: 120f64.to_radians(),
            };
            Box::new(Composite::new(walk, turn))
        }
    };
    (model, pos)
}

/// One shard packaged for stepped execution: the runner advances every
/// shard from one held occasion barrier to the next, draining its
/// published RACH attempts ([`ShardSim::outbox`]) at each barrier and
/// fanning resolved replies back in ([`ShardSim::deliver`]).
pub(crate) struct ShardSim {
    driver: Driver<Ledger>,
    ex: Executive<Ev>,
    snapshot_interval: Option<SimDuration>,
    budget_left: u64,
    budget_exhausted: bool,
}

impl ShardSim {
    /// The shard's UEs, ascending by global id, attached to their
    /// nearest cell. `sites` and `ue_codebook` are the fleet's shared
    /// static side, built once by the runner.
    pub(crate) fn new(
        cfg: &FleetConfig,
        shard_idx: usize,
        specs: Vec<UeSpec>,
        sites: &Arc<Sites>,
        ue_codebook: &Arc<Codebook>,
    ) -> ShardSim {
        let base = &cfg.base;
        let streams = RngStreams::new(base.seed);
        let n_cells = sites.len();
        // Responder fields and used-occasion counts stay default: the
        // merge derives them fleet-wide.
        let per_cell = (0..n_cells)
            .map(|c| {
                let ssb = base.ssb(c);
                CellLoad {
                    occasions_total: (base.duration.as_nanos() / ssb.burst_period.as_nanos())
                        * ssb.n_tx_beams as u64,
                    ..CellLoad::default()
                }
            })
            .collect();
        let ledger = Ledger {
            out: ShardOutcome {
                per_cell,
                occasion_instants: vec![BTreeSet::new(); n_cells],
                timeline: cfg
                    .snapshot_interval
                    .map(|dt| SnapshotRing::new(dt, SnapshotRing::DEFAULT_CAP)),
                ues: specs.len() as u64,
                ..ShardOutcome::default()
            },
            cause_totals: [[0.0; 5]; 2],
            cause_phase_sums: [[0.0; 5]; 2],
            cause_counts_run: [0; 5],
            cur: SnapshotSlice::new(),
        };
        let mut driver = Driver::new(
            base.clone(),
            Arc::clone(sites),
            Arc::clone(ue_codebook),
            cfg.interest_radius_m,
            shard_idx as u32,
            ledger,
        );
        for spec in specs {
            let mut spawn_rng = streams.stream_indexed("fleet-spawn", spec.id);
            let (mobility, _) = build_mobility(&spec, &mut spawn_rng, cfg);
            let serving = nearest_cell(&base.cells, mobility.pose_at(0.0).position);
            let links = match cfg.interest_radius_m {
                None => LinkSet::for_ue(&streams, base.channel, n_cells, spec.id),
                Some(_) => LinkSet::for_ue_interest(&streams, base.channel, n_cells, spec.id),
            };
            driver.add_ue(UeSetup {
                id: spec.id,
                protocol: spec.protocol,
                mobility,
                serving,
                rach_rng: streams.stream_indexed("fleet-rach", spec.id),
                fault_rng: streams.stream_indexed("fleet-fault", spec.id),
                links,
                record: cfg.record_traces,
            });
        }

        let mut ex: Executive<Ev> = Executive::new();
        driver.start(&mut ex);
        // Boundaries are armed strictly inside the run; `finish` seals
        // the last slice, so whatever happens at t = duration lands in it.
        if let Some(dt) = cfg.snapshot_interval.filter(|&dt| dt < base.duration) {
            ex.schedule_at(SimTime::ZERO + dt, Ev::Snapshot { k: 1 });
        }
        ShardSim {
            driver,
            ex,
            snapshot_interval: cfg.snapshot_interval,
            budget_left: cfg.event_budget,
            budget_exhausted: false,
        }
    }

    /// Process every pending event with timestamp ≤ `limit` (the DES
    /// clock parks at `limit`, so repeated bounded runs are equivalent
    /// to one long run). The per-shard event budget is cumulative across
    /// calls; once exhausted the shard stops advancing but stays a valid
    /// barrier participant.
    pub(crate) fn run_until(&mut self, limit: SimTime) {
        if self.budget_exhausted {
            return;
        }
        self.ex.event_budget = self.budget_left;
        let before = self.ex.events_processed();
        let (driver, interval) = (&mut self.driver, self.snapshot_interval);
        let reason = self.ex.run(limit, |ex, now, ev| {
            match ev {
                // Telemetry boundary `k` (at `k * interval`): seal the
                // current slice and chain the next boundary. It only
                // reads counters — it consumes no RNG draws, so arming
                // snapshots never perturbs the simulated outcome.
                Ev::Snapshot { k } => {
                    // Depth sampled before the next boundary is armed, so
                    // the chain itself never inflates the gauge.
                    driver.obs.seal_slice(ex.pending() as u64);
                    let dt = interval.expect("Snapshot event only armed with an interval");
                    if dt * (k + 1) < driver.cfg().duration {
                        ex.schedule_at(SimTime::ZERO + dt * (k + 1), Ev::Snapshot { k: k + 1 });
                    }
                }
                ev => driver.dispatch(ex, now, ev),
            }
            Control::Continue
        });
        self.budget_left = self
            .budget_left
            .saturating_sub(self.ex.events_processed() - before);
        if reason == StopReason::Budget {
            self.budget_exhausted = true;
        }
    }

    /// The attempts that arrived since the last barrier.
    pub(crate) fn outbox(&mut self) -> &mut Vec<RachAttemptMsg> {
        self.driver.outbox()
    }

    /// Schedule one resolved reply as a receive event. The stage
    /// guarantees `deliver_at` lies strictly beyond the barrier horizon,
    /// i.e. in this shard's future.
    pub(crate) fn deliver(&mut self, r: &RachReply) {
        self.driver.deliver(&mut self.ex, r);
    }

    /// Distinct serving cells of this shard's UEs (sorted). Used by the
    /// runner right after construction to close the contention groups
    /// over initial attachments: a UE spawned in a coverage gap may be
    /// served by a cell outside its tile's reachable set, and the group
    /// partition must account for that cell too.
    pub(crate) fn serving_cells(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.driver.ues().iter().map(|u| u.serving()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    pub(crate) fn finish(self) -> ShardOutcome {
        let events = self.ex.events_processed();
        let pending = self.ex.pending() as u64;
        let pending_peak = self.ex.pending_peak() as u64;
        let link_stats = self.driver.link_stats();
        let scratch_growth = self.driver.scratch_growth();
        let (mut ues, mut ledger) = self.driver.into_parts();

        // The last slice, full or partial, closes at the end of the run:
        // seal it with end-of-run gauges so the timeline covers the run.
        ledger.seal_slice(pending);
        for ue in &mut ues {
            let kind = ue.proto().kind();
            let (id, uid) = (ue.id(), ue.uid().0);
            if let Some(rec) = ue.proto_mut().finish_recording() {
                ledger.out.ue_traces.push(rec.into_trace(id, uid, kind));
            }
            ledger.bank(ue.proto());
        }
        let out = &mut ledger.out;
        out.events = events;
        out.budget_exhausted_shards = u64::from(self.budget_exhausted);
        if let Some(ring) = out.timeline.as_mut() {
            ring.finish();
        }
        // Deterministic work counters: every value here is a pure
        // function of the simulated run, so merged profiles must be
        // byte-identical across worker counts (wall-time spans are kept
        // separate and carry no such contract).
        let c = &mut out.profile.counters;
        c.add("phy.traces_cast", link_stats.traces_cast);
        c.add("phy.rays_tested", link_stats.rays_tested);
        c.add("phy.link_steps", link_stats.link_steps);
        c.add("des.events_popped", events);
        c.set_max("des.event_queue_peak", pending_peak);
        c.add("fleet.scratch_growth", scratch_growth);
        if let Some(ring) = &out.timeline {
            c.add("obs.snapshot_slices", ring.pushed());
        }
        // Conservation ledgers, checked in every build before the
        // aggregates leave the shard (each handover's breakdown total was
        // checked as it completed): (a) per-cell handover arrivals sum to
        // the handovers; (b) per arm and cause, the summed phase
        // decompositions bit-equal the summed recorded samples; (c) the
        // timeline's per-cause slice counts, handovers, RLFs, RACH
        // attempts and transmitted preambles sum to the run's totals —
        // nothing double-counted, nothing dropped.
        let arrivals: u64 = out.per_cell.iter().map(|c| c.handovers_in).sum();
        assert!(
            arrivals == out.handovers,
            "per-cell handovers_in sum to {arrivals}, the shard counted {} handovers",
            out.handovers
        );
        assert!(
            ledger
                .cause_totals
                .iter()
                .flatten()
                .zip(ledger.cause_phase_sums.iter().flatten())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "per-cause phase sums must bit-equal the recorded interruption totals"
        );
        if let Some(ring) = &out.timeline {
            let mut sums = [0u64; 5];
            for s in ring.slices() {
                for (a, b) in sums.iter_mut().zip(&s.cause_counts) {
                    *a += b;
                }
            }
            assert!(
                sums == ledger.cause_counts_run,
                "timeline slice cause counts must sum to the run's cause totals"
            );
            let sum = |f: fn(&SnapshotSlice) -> u64| ring.slices().iter().map(f).sum::<u64>();
            let sliced = [
                sum(|s| s.handovers),
                sum(|s| s.rlfs),
                sum(|s| s.rach_attempts),
                sum(|s| s.preambles_tx),
            ];
            let preambles_tx = out.per_cell.iter().map(|c| c.preambles_tx).sum();
            assert!(
                sliced == [out.handovers, out.rlfs, out.rach_attempts, preambles_tx],
                "timeline slice counters must sum to the run's totals: {sliced:?}"
            );
        }
        ledger.out
    }
}
