//! One fleet shard: N UEs sharing M cells on a single discrete-event
//! executive.
//!
//! This is the multi-UE generalization of the single-trial executor in
//! `st_net::scenario`, reusing its factored radio plumbing
//! ([`st_net::radio`]) and protocol dispatch ([`st_net::proto`]). What is
//! *new* here is the MAC under load:
//!
//! * all UEs share each cell's PRACH occasions — two UEs picking the same
//!   preamble on the same occasion collide, both accept the one RAR, and
//!   Msg4 contention resolution picks a winner while the loser backs off
//!   and retries. A shard does not answer its own RACH traffic: it
//!   publishes every Msg1/Msg3 to the fleet's shared responder stage
//!   ([`crate::stage`]), which resolves all shards' attempts together, so
//!   UEs on different shards contend exactly as if they shared one;
//! * soft-handover context fetches serialize through each cell's FIFO
//!   backhaul pipe (at the stage), so Msg4 latency — and therefore
//!   interruption — grows with handover load;
//! * unlike a single trial, the run never halts at the first handover:
//!   after completion the protocol is re-anchored on the new serving cell
//!   and keeps going, so one UE can hand over repeatedly.
//!
//! Every stochastic component draws from a stream derived from the fleet
//! master seed and the *global* UE id, so a UE behaves identically no
//! matter which shard (or worker thread) runs it.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::RngExt as _;

use silent_tracker::attribution::{InterruptionBreakdown, InterruptionMarks};
use silent_tracker::tracker::{Action, HandoverDirective, Input};
use silent_tracker::HandoverReason;
use st_des::{Control, Executive, RngStreams, SimDuration, SimTime, StopReason};
use st_mac::pdu::{CellId, Pdu, UeId};
use st_mac::rach::{RachProcedure, RachState};
use st_mac::responder::ResponderConfig;
use st_mac::timing::TxBeamIndex;
use st_mobility::{BoxedModel, Composite, DeviceRotation, HumanWalk, TurnAt, Vehicular};
use st_net::config::ProtocolKind;
use st_net::proto::Proto;
use st_net::radio::{LinkSet, Sites};
use st_phy::codebook::{BeamId, Codebook};
use st_phy::geometry::{Pose, Radians, Vec2};
use st_phy::link::RadioCal;
use st_phy::units::Dbm;

use st_net::config::ScenarioConfig;

use st_metrics::{Profiler, QuantileSketch, SketchMap};

use crate::deployment::{nearest_cell, FleetConfig, MobilityKind, UeSpec};
use crate::metrics::{CellLoad, ShardOutcome};
use crate::stage::{RachAttemptMsg, RachReply, RachReq};
use crate::telemetry::{SnapshotRing, SnapshotSlice};

/// Short over-the-air + processing delays (as in the single-UE executor).
const AIR_DELAY: SimDuration = SimDuration::from_micros(500);
const MSG2_DELAY: SimDuration = SimDuration::from_millis(2);
const MSG4_PROCESSING: SimDuration = SimDuration::from_millis(2);
/// Soft-handover context tokens are `BASE | ue`, always nonzero.
const CONTEXT_TOKEN_BASE: u64 = 0x511E_27AC_0000_0000;

/// Simulation events. Periodic drivers (`Burst`, `DwellEnd`,
/// `ServingMeas`, `Tick`) are shared — one event iterates every UE in
/// global-id order, which keeps the pending set small and the dispatch
/// order deterministic. Targeted events carry the UE's index in the
/// shard's UE vector, which is fixed for the whole run.
#[derive(Debug, Clone)]
enum Ev {
    Burst {
        k: u64,
    },
    DwellEnd,
    ServingMeas,
    Tick,
    UeRx {
        ue: u32,
        cell: u16,
        tx_beam: TxBeamIndex,
        pdu: Pdu,
    },
    BsRx {
        ue: u32,
        cell: u16,
        pdu: Pdu,
    },
    AssistApply {
        ue: u32,
        cell: u16,
        tx_beam: TxBeamIndex,
    },
    RachTry {
        ue: u32,
    },
    /// Telemetry boundary `k` (at `k * snapshot_interval`): seal the
    /// current [`SnapshotSlice`] and chain the next boundary. The
    /// handler only reads counters — it consumes no RNG draws, so
    /// arming snapshots never perturbs the simulated outcome.
    Snapshot {
        k: u64,
    },
}

/// In-flight random access towards a handover target.
struct RachExec {
    target: usize,
    ssb_beam: TxBeamIndex,
    rx_beam: BeamId,
    proc: RachProcedure,
    try_pending: bool,
    /// First preamble actually transmitted — opens the RACH phase of the
    /// causal attribution timeline.
    first_tx: Option<SimTime>,
    /// Latest Msg3 transmission — opens the backhaul window. Overwritten
    /// on retransmission (the last Msg3 is the one the Msg4 answers).
    msg3_at: Option<SimTime>,
    /// Backhaul span (queue wait + context fetch) the target responder
    /// embedded in the Msg4 delay for this UE's winning Msg3, in nanos.
    backhaul_ns: u64,
}

/// One mobile of the fleet. The per-instant hot state a measurement
/// sweep touches — the pose memo and the link scratch — lives
/// struct-of-arrays in [`FleetWorld`] (`poses`, `links`), parallel to
/// the `ues` vector, so a shard's sweep is one cache-friendly pass; this
/// struct keeps the colder protocol/accounting state.
struct Ue {
    spec: UeSpec,
    uid: UeId,
    mobility: BoxedModel,
    rach_rng: StdRng,
    fault_rng: StdRng,
    proto: Proto,
    serving: usize,
    /// Transmit beam each cell currently uses towards this UE.
    bs_tx_beam: Vec<TxBeamIndex>,
    rlf_count: u32,
    rlf_declared: bool,
    rach: Option<RachExec>,
    handover_reason: Option<HandoverReason>,
    trigger_at: Option<SimTime>,
    rlf_at: Option<SimTime>,
    // Banked accounting (survives protocol re-anchoring).
    handovers: u64,
    rlfs: u64,
    rach_attempts: u64,
    dwells_banked: u64,
    nrba_banked: u64,
    /// Raw interruption samples — retained (and allocated) only under
    /// [`FleetConfig::exact_ecdfs`]; the streaming default records into
    /// the shard's constant-memory sketches instead, so fleet metric
    /// memory stays O(cells × buckets), not O(samples).
    interruptions_ms: Vec<f64>,
}

impl Ue {
    fn context_token(&self) -> u64 {
        match self.spec.protocol {
            ProtocolKind::SilentTracker => CONTEXT_TOKEN_BASE | u64::from(self.uid.0),
            ProtocolKind::Reactive => 0,
        }
    }

    /// Fold the live protocol's counters into the banked totals.
    fn bank_proto(&mut self) {
        self.dwells_banked += self.proto.search_dwells();
        if let Some(st) = self.proto.stats() {
            self.nrba_banked += st.nrba_switches;
        }
    }
}

struct FleetWorld {
    cfg: FleetConfig,
    /// Shared across every shard of the fleet (cells, codebooks,
    /// environment) — built once by the runner, never cloned per shard
    /// or per UE.
    sites: Arc<Sites>,
    ue_codebook: Arc<Codebook>,
    /// Precomputed receiver thresholds, one per world instead of a
    /// `log10` per probe.
    cal: RadioCal,
    /// Batched-sweep scratch: one slot per transmit beam of the cell
    /// being swept. Shared by all UEs of the shard (used transiently
    /// within one sweep).
    sweep_scratch: Vec<Dbm>,
    /// UEs ascending by global id, with their hot per-instant state
    /// split struct-of-arrays alongside: `poses[i]` memoizes UE `i`'s
    /// pose per instant (mobility models are trigonometry-heavy) and
    /// `links[i]` is its link scratch.
    ues: Vec<Ue>,
    poses: Vec<(SimTime, Pose)>,
    links: Vec<LinkSet>,
    /// Cell indices sorted by street-axis abscissa — the interest query
    /// index (binary-search the x-window, filter by true distance).
    cells_by_x: Vec<(f64, u16)>,
    /// Reusable scratch for one UE's freshly computed interest set.
    interest_scratch: Vec<u16>,
    /// Distinct PRACH occasions (by instant) with ≥ 1 transmission, per cell.
    occasions_used: Vec<BTreeSet<u64>>,
    preambles_tx: Vec<u64>,
    handovers_in: Vec<u64>,
    burst_period: SimDuration,
    shard_idx: u32,
    /// RACH attempts published to the shared stage this epoch, drained
    /// at each barrier.
    outbox: Vec<RachAttemptMsg>,
    telemetry: Telemetry,
}

/// Streaming per-shard telemetry. Every field is constant-size: the
/// sketches are fixed bucket arrays, the ring is bounded by its
/// compaction cap, and the rest are scalars — nothing grows with the
/// number of recorded samples.
struct Telemetry {
    /// Run-level interruption sketches (the streaming replacement for
    /// the raw per-UE sample vectors), one per protocol arm.
    soft: QuantileSketch,
    hard: QuantileSketch,
    /// Per-cause interruption ledgers, one map per protocol arm —
    /// constant memory (O(causes × buckets)), canonical merge order.
    soft_causes: SketchMap,
    hard_causes: SketchMap,
    /// Per-arm (soft=0, hard=1), per-cause recorded interruption totals
    /// and their phase-decomposition sums, accumulated in recording
    /// order. Each summand pair is bit-equal by construction, so the
    /// accumulated pairs stay bit-equal — `collect` debug-asserts it.
    cause_totals: [[f64; 5]; 2],
    cause_phase_sums: [[f64; 5]; 2],
    /// Run-level per-cause interruption counts — the conservation ledger
    /// the timeline slice cause counts must sum to.
    cause_counts_run: [u64; 5],
    /// Worst interruptions of the run (bounded, canonically ordered) —
    /// the exemplars `--explain-top` and the fleet summary print.
    worst: Vec<InterruptionBreakdown>,
    /// Time-sliced snapshots, armed by [`FleetConfig::snapshot_interval`].
    ring: Option<SnapshotRing>,
    /// The slice accumulating since the last sealed boundary.
    cur: SnapshotSlice,
    /// Steady-state allocation violations: how often a reused scratch
    /// buffer (sweep scratch, stage outbox) actually had to grow.
    scratch_growth: u64,
}

/// The BS responder timing the shared stage models.
pub(crate) fn responder_config(base: &ScenarioConfig) -> ResponderConfig {
    ResponderConfig {
        rar_delay: MSG2_DELAY,
        msg4_delay: MSG4_PROCESSING,
        backhaul_latency: base.backhaul_latency,
        ..ResponderConfig::nr_default()
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

/// Compute one UE's interest set into `out`: cells within `radius` of
/// `pos` (x-window binary search over `cells_by_x`, then a true distance
/// check), force-including the serving cell and any in-flight RACH
/// target, sorted ascending and deduplicated.
#[allow(clippy::too_many_arguments)]
fn interest_cells(
    cells_by_x: &[(f64, u16)],
    base: &ScenarioConfig,
    pos: Vec2,
    radius: f64,
    serving: usize,
    rach_target: Option<usize>,
    out: &mut Vec<u16>,
) {
    out.clear();
    let lo = cells_by_x.partition_point(|&(x, _)| x < pos.x - radius);
    for &(_, cell) in &cells_by_x[lo..] {
        let p = base.cells[cell as usize].position;
        if p.x > pos.x + radius {
            break;
        }
        if p.distance(pos) <= radius {
            out.push(cell);
        }
    }
    out.push(serving as u16);
    if let Some(t) = rach_target {
        out.push(t as u16);
    }
    out.sort_unstable();
    out.dedup();
}

/// Build the shared static side of a fleet: one [`Sites`] and one UE
/// codebook behind `Arc`s, handed to every shard (and from there to every
/// UE's protocol instance) instead of being rebuilt/cloned per shard.
pub fn build_world(cfg: &FleetConfig) -> (Arc<Sites>, Arc<Codebook>) {
    let base = &cfg.base;
    let mut sites = Sites::new(
        base.cells.clone(),
        base.environment.clone(),
        base.radio,
        base.channel,
    );
    if let Some(dynamics) = &base.dynamics {
        // One blocker field shared by every UE of every shard: the same
        // bus shadows every link it crosses.
        sites = sites.with_dynamics(Arc::clone(dynamics));
    }
    let sites = Arc::new(sites);
    let ue_codebook = Arc::new(
        base.custom_ue_codebook
            .clone()
            .unwrap_or_else(|| Codebook::for_class(base.ue_codebook)),
    );
    (sites, ue_codebook)
}

/// One shard packaged for stepped execution: the runner advances every
/// shard in occasion-epoch steps, draining its published RACH attempts
/// ([`ShardSim::outbox`]) at each barrier and fanning resolved replies
/// back in ([`ShardSim::deliver`]).
pub(crate) struct ShardSim {
    world: FleetWorld,
    ex: Executive<Ev>,
    budget_left: u64,
    budget_exhausted: bool,
}

impl ShardSim {
    pub(crate) fn new(
        cfg: &FleetConfig,
        shard_idx: usize,
        specs: Vec<UeSpec>,
        sites: &Arc<Sites>,
        ue_codebook: &Arc<Codebook>,
    ) -> ShardSim {
        let base = &cfg.base;
        let streams = RngStreams::new(base.seed);
        let sites = Arc::clone(sites);
        let ue_codebook = Arc::clone(ue_codebook);

        let mut cells_by_x: Vec<(f64, u16)> = base
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| (c.position.x, i as u16))
            .collect();
        cells_by_x.sort_by(|a, b| a.partial_cmp(b).expect("finite cell positions"));

        let mut poses = Vec::with_capacity(specs.len());
        let mut links = Vec::with_capacity(specs.len());
        let ues: Vec<Ue> = specs
            .into_iter()
            .map(|spec| {
                let mut spawn_rng = streams.stream_indexed("fleet-spawn", spec.id);
                let (mobility, _) = build_mobility(&spec, &mut spawn_rng, cfg);
                let pose0 = mobility.pose_at(0.0);
                let serving = nearest_cell(&base.cells, pose0.position);
                let serving_rx = ue_codebook
                    .best_beam_towards(pose0.local_bearing_to(base.cells[serving].position));
                let bs_tx_beam = (0..sites.len())
                    .map(|i| sites.best_tx_beam_towards(i, pose0.position))
                    .collect();
                let uid = UeId(spec.id as u32 + 1);
                let mut proto = Proto::new(
                    spec.protocol,
                    base.tracker,
                    uid,
                    CellId(serving as u16),
                    Arc::clone(&ue_codebook),
                    serving_rx,
                );
                if cfg.record_traces {
                    proto.start_recording();
                }
                poses.push((SimTime::ZERO, pose0));
                links.push(match cfg.interest_radius_m {
                    None => LinkSet::for_ue(&streams, base.channel, sites.len(), spec.id),
                    Some(radius) => {
                        let mut set =
                            LinkSet::for_ue_interest(&streams, base.channel, sites.len(), spec.id);
                        let mut cells = Vec::new();
                        interest_cells(
                            &cells_by_x,
                            base,
                            pose0.position,
                            radius,
                            serving,
                            None,
                            &mut cells,
                        );
                        set.set_interest(&cells);
                        set
                    }
                });
                Ue {
                    uid,
                    mobility,
                    rach_rng: streams.stream_indexed("fleet-rach", spec.id),
                    fault_rng: streams.stream_indexed("fleet-fault", spec.id),
                    proto,
                    serving,
                    bs_tx_beam,
                    rlf_count: 0,
                    rlf_declared: false,
                    rach: None,
                    handover_reason: None,
                    trigger_at: None,
                    rlf_at: None,
                    handovers: 0,
                    rlfs: 0,
                    rach_attempts: 0,
                    dwells_banked: 0,
                    nrba_banked: 0,
                    interruptions_ms: Vec::new(),
                    spec,
                }
            })
            .collect();
        debug_assert!(
            ues.windows(2).all(|w| w[0].spec.id < w[1].spec.id),
            "shard population must ascend by global id"
        );

        let n_cells = sites.len();
        let burst_period = base.ssb(0).burst_period;
        let burst_active = base.ssb(0).burst_active();
        let world = FleetWorld {
            sites,
            ue_codebook,
            cal: base.radio.cal(),
            sweep_scratch: Vec::new(),
            ues,
            poses,
            links,
            cells_by_x,
            interest_scratch: Vec::new(),
            occasions_used: vec![BTreeSet::new(); n_cells],
            preambles_tx: vec![0; n_cells],
            handovers_in: vec![0; n_cells],
            burst_period,
            shard_idx: shard_idx as u32,
            outbox: Vec::new(),
            telemetry: Telemetry {
                soft: QuantileSketch::latency_ms(),
                hard: QuantileSketch::latency_ms(),
                soft_causes: SketchMap::new(),
                hard_causes: SketchMap::new(),
                cause_totals: [[0.0; 5]; 2],
                cause_phase_sums: [[0.0; 5]; 2],
                cause_counts_run: [0; 5],
                worst: Vec::new(),
                ring: cfg
                    .snapshot_interval
                    .map(|dt| SnapshotRing::new(dt, SnapshotRing::DEFAULT_CAP)),
                cur: SnapshotSlice::new(),
                scratch_growth: 0,
            },
            cfg: cfg.clone(),
        };

        let mut ex: Executive<Ev> = Executive::new();
        ex.schedule_at(SimTime::ZERO, Ev::Burst { k: 0 });
        ex.schedule_at(
            SimTime::ZERO + burst_active + SimDuration::from_millis(1),
            Ev::DwellEnd,
        );
        ex.schedule_in(SimDuration::from_millis(1), Ev::ServingMeas);
        ex.schedule_in(SimDuration::from_micros(500), Ev::Tick);
        if let Some(dt) = cfg.snapshot_interval {
            ex.schedule_at(SimTime::ZERO + dt, Ev::Snapshot { k: 1 });
        }

        ShardSim {
            world,
            ex,
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
        let world = &mut self.world;
        let reason = self.ex.run(limit, |ex, now, ev| {
            world.dispatch(ex, now, ev);
            Control::Continue
        });
        self.budget_left = self
            .budget_left
            .saturating_sub(self.ex.events_processed() - before);
        if reason == StopReason::Budget {
            self.budget_exhausted = true;
        }
    }

    /// The attempts published since the last barrier; the stage drains
    /// them with `Vec::append`, so the buffer keeps its capacity.
    pub(crate) fn outbox(&mut self) -> &mut Vec<RachAttemptMsg> {
        &mut self.world.outbox
    }

    /// Schedule one resolved reply as a receive event. The stage
    /// guarantees `deliver_at` lies strictly beyond the barrier horizon,
    /// i.e. in this shard's future.
    pub(crate) fn deliver(&mut self, r: &RachReply) {
        let Ok(i) = self
            .world
            .ues
            .binary_search_by_key(&r.ue_global, |u| u.spec.id)
        else {
            debug_assert!(
                false,
                "reply routed to a shard not owning UE {}",
                r.ue_global
            );
            return;
        };
        // The stage resolves Msg3, so the backhaul span embedded in the
        // Msg4 delay arrives with the reply; stamp it on the in-flight
        // procedure for causal attribution. Last write wins — a UE has
        // at most one Msg3 outstanding, so a dropped Msg4's retry simply
        // restamps.
        if matches!(r.pdu, Pdu::ContentionResolution { .. }) {
            if let Some(rach) = self.world.ues[i].rach.as_mut() {
                rach.backhaul_ns = r.backhaul_ns;
            }
        }
        self.ex.schedule_at(
            r.deliver_at,
            Ev::UeRx {
                ue: i as u32,
                cell: r.cell,
                tx_beam: r.tx_beam,
                pdu: r.pdu.clone(),
            },
        );
    }

    /// Distinct serving cells of this shard's UEs (sorted). Used by the
    /// runner right after construction to close the contention groups
    /// over initial attachments: a UE spawned in a coverage gap may be
    /// served by a cell outside its tile's reachable set, and the group
    /// partition must account for that cell too.
    pub(crate) fn serving_cells(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.world.ues.iter().map(|u| u.serving).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    pub(crate) fn finish(self) -> ShardOutcome {
        let pending = self.ex.pending() as u64;
        let pending_peak = self.ex.pending_peak() as u64;
        self.world.collect(
            self.ex.events_processed(),
            self.budget_exhausted,
            pending,
            pending_peak,
        )
    }
}

impl FleetWorld {
    /// UE `i`'s pose at `now`, memoized per instant in the
    /// struct-of-arrays pose memo.
    fn pose(&mut self, i: usize, now: SimTime) -> Pose {
        let memo = &mut self.poses[i];
        if memo.0 != now {
            *memo = (now, self.ues[i].mobility.pose_at(now.as_secs_f64()));
        }
        memo.1
    }

    fn dispatch(&mut self, ex: &mut Executive<Ev>, now: SimTime, ev: Ev) {
        match ev {
            Ev::Burst { k } => {
                for i in 0..self.ues.len() {
                    self.on_burst_ue(ex, now, i);
                }
                ex.schedule_at(
                    SimTime::ZERO + self.burst_period * (k + 1),
                    Ev::Burst { k: k + 1 },
                );
            }
            Ev::DwellEnd => {
                for i in 0..self.ues.len() {
                    let actions = self.ues[i].proto.handle(Input::DwellComplete { at: now });
                    self.apply_actions(ex, now, i, actions);
                }
                ex.schedule_in(self.burst_period, Ev::DwellEnd);
            }
            Ev::ServingMeas => {
                if !self.cfg.base.gaps.in_gap(now) {
                    for i in 0..self.ues.len() {
                        self.on_serving_meas_ue(ex, now, i);
                    }
                }
                ex.schedule_in(self.cfg.base.serving_meas_period, Ev::ServingMeas);
            }
            Ev::Tick => {
                for i in 0..self.ues.len() {
                    let actions = self.ues[i].proto.handle(Input::Tick { at: now });
                    self.apply_actions(ex, now, i, actions);
                    self.poll_rach(ex, now, i);
                }
                ex.schedule_in(SimDuration::from_millis(1), Ev::Tick);
            }
            Ev::UeRx {
                ue,
                cell,
                tx_beam,
                pdu,
            } => self.on_ue_rx(ex, now, ue as usize, cell as usize, tx_beam, pdu),
            Ev::BsRx { ue, cell, pdu } => self.on_bs_rx(ex, now, ue as usize, cell as usize, pdu),
            Ev::AssistApply { ue, cell, tx_beam } => {
                self.ues[ue as usize].bs_tx_beam[cell as usize] = tx_beam;
                ex.schedule_in(
                    AIR_DELAY,
                    Ev::UeRx {
                        ue,
                        cell,
                        tx_beam,
                        pdu: Pdu::BeamSwitchCommand {
                            cell: CellId(cell),
                            tx_beam,
                        },
                    },
                );
            }
            Ev::RachTry { ue } => self.on_rach_try(ex, now, ue as usize),
            Ev::Snapshot { k } => {
                // Depth sampled before the next boundary is armed, so the
                // chain itself never inflates the gauge.
                let depth = ex.pending() as u64;
                self.seal_slice(depth);
                let dt = self
                    .cfg
                    .snapshot_interval
                    .expect("Snapshot event only armed with an interval");
                if dt * (k + 1) <= self.cfg.base.duration {
                    ex.schedule_at(SimTime::ZERO + dt * (k + 1), Ev::Snapshot { k: k + 1 });
                }
            }
        }
    }

    /// Seal the accumulating slice at a snapshot boundary (or at the end
    /// of the run, for a partial tail): sample the event-queue gauge and
    /// push the slice into the ring. The responder-side fields (heard,
    /// collisions, losses, backhaul wait and backlog) stay zero here —
    /// the shared stage answers all RACH traffic, and its own per-slice
    /// attribution supplies them at merge time.
    fn seal_slice(&mut self, event_queue_depth: u64) {
        let Some(ring) = self.telemetry.ring.as_mut() else {
            return;
        };
        let mut slice = std::mem::take(&mut self.telemetry.cur);
        slice.event_queue_depth = event_queue_depth;
        ring.push(slice);
    }

    // ----- physics ----------------------------------------------------------

    /// Downlink RSS from `cell` to UE `i`; channels are advanced lazily to
    /// `now` on first use, which keeps per-event cost proportional to the
    /// links actually sampled.
    fn link_rss(
        &mut self,
        i: usize,
        now: SimTime,
        cell: usize,
        tx_beam: TxBeamIndex,
        rx_beam: BeamId,
    ) -> Option<Dbm> {
        let pose = self.pose(i, now);
        let links = &mut self.links[i];
        links.step_to(now);
        links.rss(&self.sites, cell, tx_beam, pose, &self.ue_codebook, rx_beam)
    }

    fn delivery_ok(&mut self, i: usize, rss: Option<Dbm>) -> bool {
        let Some(r) = rss else { return false };
        let p = self.cal.packet_success_probability(self.cal.snr(r));
        self.ues[i].rach_rng.random::<f64>() < p
    }

    // ----- event handlers ---------------------------------------------------

    /// Recompute UE `i`'s interest set from its current position
    /// (no-op unless an interest radius is configured). Runs at each SSB
    /// burst — the natural refresh cadence, since bursts are when links
    /// are measured — and always force-includes the serving cell and any
    /// in-flight RACH target so active procedures never lose their link.
    fn refresh_interest(&mut self, i: usize, now: SimTime) {
        let Some(radius) = self.cfg.interest_radius_m else {
            return;
        };
        let pose = self.pose(i, now);
        let ue = &self.ues[i];
        let target = ue.rach.as_ref().map(|r| r.target);
        let mut scratch = std::mem::take(&mut self.interest_scratch);
        interest_cells(
            &self.cells_by_x,
            &self.cfg.base,
            pose.position,
            radius,
            ue.serving,
            target,
            &mut scratch,
        );
        self.links[i].set_interest(&scratch);
        self.interest_scratch = scratch;
    }

    fn on_burst_ue(&mut self, ex: &mut Executive<Ev>, now: SimTime, i: usize) {
        self.refresh_interest(i, now);
        // Serving link: probe adjacent receive beams (snapshot traced
        // once, both probes reuse it).
        let serving = self.ues[i].serving;
        let serving_rx = self.ues[i].proto.serving_rx_beam();
        let tx = self.ues[i].bs_tx_beam[serving];
        for b in self.ue_codebook.adjacent(serving_rx) {
            if let Some(r) = self.link_rss(i, now, serving, tx, b) {
                if self.cal.detectable(r) {
                    let actions = self.ues[i].proto.handle(Input::ServingProbe {
                        at: now,
                        rx_beam: b,
                        rss: r,
                    });
                    self.apply_actions(ex, now, i, actions);
                }
            }
        }

        // Neighbor cells, inside the measurement gap: each cell's whole
        // SSB sweep is one batched evaluation (single trace, one pass
        // over the rays), then the SSBs feed the protocol in beam order —
        // identical inputs and RNG draws to per-beam probing, without the
        // N-beam re-traces. Only the interest set is swept: a cell out
        // of radio range costs zero traces (with no radius configured
        // the active set is every cell, the pre-interest behaviour).
        if self.cfg.base.gaps.in_gap(now) {
            let gap_beam = self.ues[i].proto.gap_rx_beam();
            for ci in 0.. {
                let cell = match self.links[i].active_cells().get(ci) {
                    Some(&c) => c as usize,
                    None => break,
                };
                let serving_now = self.ues[i].serving;
                if cell == serving_now && !self.post_rlf_search(i) {
                    continue;
                }
                let n_beams = self.cfg.base.cells[cell].n_tx_beams as usize;
                if n_beams > self.sweep_scratch.capacity() {
                    self.telemetry.scratch_growth += 1;
                }
                self.sweep_scratch.resize(n_beams, Dbm(f64::NEG_INFINITY));
                let pose = self.pose(i, now);
                let links = &mut self.links[i];
                links.step_to(now);
                if !links.rss_tx_sweep(
                    &self.sites,
                    cell,
                    pose,
                    &self.ue_codebook,
                    gap_beam,
                    &mut self.sweep_scratch[..n_beams],
                ) {
                    continue;
                }
                for tx_beam in 0..self.cfg.base.cells[cell].n_tx_beams {
                    let r = self.sweep_scratch[tx_beam as usize];
                    let usable = if self.ues[i].proto.tracked().is_none() {
                        self.cal.acquirable(r)
                    } else {
                        self.cal.detectable(r)
                    };
                    if usable {
                        let actions = self.ues[i].proto.handle(Input::NeighborSsb {
                            at: now,
                            cell: CellId(cell as u16),
                            tx_beam,
                            rx_beam: gap_beam,
                            rss: r,
                        });
                        self.apply_actions(ex, now, i, actions);
                    }
                }
            }
        }
    }

    fn post_rlf_search(&self, i: usize) -> bool {
        self.ues[i].rlf_declared && matches!(self.ues[i].spec.protocol, ProtocolKind::Reactive)
    }

    fn on_serving_meas_ue(&mut self, ex: &mut Executive<Ev>, now: SimTime, i: usize) {
        if self.ues[i].rlf_declared && self.ues[i].rach.is_none() {
            return; // disconnected (reactive arm)
        }
        let serving = self.ues[i].serving;
        let tx = self.ues[i].bs_tx_beam[serving];
        let rx = self.ues[i].proto.serving_rx_beam();
        let r = self.link_rss(i, now, serving, tx, rx);
        match r {
            Some(v) if self.cal.detectable(v) => {
                self.ues[i].rlf_count = 0;
                let actions = self.ues[i]
                    .proto
                    .handle(Input::ServingRss { at: now, rss: v });
                self.apply_actions(ex, now, i, actions);
            }
            _ => {
                let ue = &mut self.ues[i];
                ue.rlf_count += 1;
                let needed = (self.cfg.base.tracker.serving_timeout.as_nanos()
                    / self.cfg.base.serving_meas_period.as_nanos())
                .max(2) as u32;
                if ue.rlf_count >= needed && !ue.rlf_declared {
                    ue.rlf_declared = true;
                    ue.rlfs += 1;
                    self.telemetry.cur.rlfs += 1;
                    ue.rlf_at = Some(now);
                    let actions = ue.proto.handle(Input::ServingLinkLost { at: now });
                    self.apply_actions(ex, now, i, actions);
                }
            }
        }
    }

    fn refresh_rach_beams(&mut self, i: usize) {
        let tracked = self.ues[i].proto.tracked();
        if let (Some(rach), Some((cell, tx, rx))) = (&mut self.ues[i].rach, tracked) {
            if cell.0 as usize == rach.target {
                rach.ssb_beam = tx;
                rach.rx_beam = rx;
            }
        }
    }

    fn on_ue_rx(
        &mut self,
        ex: &mut Executive<Ev>,
        now: SimTime,
        i: usize,
        cell: usize,
        tx_beam: TxBeamIndex,
        pdu: Pdu,
    ) {
        self.refresh_rach_beams(i);
        let rx_beam = match &self.ues[i].rach {
            Some(r) if r.target == cell => r.rx_beam,
            _ => self.ues[i].proto.serving_rx_beam(),
        };
        let r = self.link_rss(i, now, cell, tx_beam, rx_beam);
        if !self.delivery_ok(i, r) {
            return;
        }
        let fault = self.cfg.base.fault.drop_rach_probability;
        if self.ues[i].fault_rng.random::<f64>() < fault
            && matches!(
                pdu,
                Pdu::RachResponse { .. } | Pdu::ContentionResolution { .. }
            )
        {
            return;
        }
        if self.ues[i].rach.as_ref().is_some_and(|r| r.target == cell) {
            let ue = &mut self.ues[i];
            let rach = ue.rach.as_mut().unwrap();
            let action = rach.proc.on_pdu(now, &pdu);
            let connected = rach.proc.state() == RachState::Connected;
            if let st_mac::rach::RachAction::Transmit(msg3) = action {
                rach.msg3_at = Some(now);
                self.send_to_bs(ex, now, i, cell, msg3);
            }
            if connected {
                self.complete_handover(now, i);
            }
            return;
        }
        let actions = self.ues[i]
            .proto
            .handle(Input::FromServing { at: now, pdu });
        self.apply_actions(ex, now, i, actions);
    }

    /// BS-side handling of the traffic the stage does not own: the
    /// beam-switch assist. RACH PDUs never arrive here — they are
    /// published to the shared stage instead (see [`Self::send_to_bs`]).
    fn on_bs_rx(&mut self, ex: &mut Executive<Ev>, now: SimTime, i: usize, cell: usize, pdu: Pdu) {
        if !matches!(pdu, Pdu::BeamSwitchRequest { .. })
            || self.ues[i].fault_rng.random::<f64>() < self.cfg.base.fault.drop_assist_probability
        {
            return;
        }
        let pose = self.pose(i, now);
        let best = self.sites.best_tx_beam_towards(cell, pose.position);
        let delay = self.cfg.base.assist_processing + self.cfg.base.fault.assist_extra_delay;
        ex.schedule_in(
            delay,
            Ev::AssistApply {
                ue: i as u32,
                cell: cell as u16,
                tx_beam: best,
            },
        );
    }

    fn send_to_bs(
        &mut self,
        ex: &mut Executive<Ev>,
        now: SimTime,
        i: usize,
        cell: usize,
        pdu: Pdu,
    ) {
        self.refresh_rach_beams(i);
        let (tx_beam, rx_beam) = match &self.ues[i].rach {
            Some(r) if r.target == cell => (r.ssb_beam, r.rx_beam),
            _ => (
                self.ues[i].bs_tx_beam[cell],
                self.ues[i].proto.serving_rx_beam(),
            ),
        };
        if let Pdu::RachPreamble { .. } = pdu {
            // Offered-load accounting: every transmission counts, whether
            // or not the BS ends up hearing it.
            self.preambles_tx[cell] += 1;
            self.telemetry.cur.preambles_tx += 1;
            if self.occasions_used[cell].insert(now.as_nanos()) {
                self.telemetry.cur.occasions_used += 1;
            }
        }
        let r = self.link_rss(i, now, cell, tx_beam, rx_beam);
        let faulted = self.ues[i].fault_rng.random::<f64>()
            < self.cfg.base.fault.drop_rach_probability
            && matches!(
                pdu,
                Pdu::RachPreamble { .. } | Pdu::ConnectionRequest { .. }
            );
        if self.delivery_ok(i, r) && !faulted {
            if let Some(req) = self.rach_request(now, i, cell, &pdu) {
                // Published to the shared stage; the resolved reply fans
                // back as a plain `UeRx` after the next occasion barrier.
                if self.outbox.len() == self.outbox.capacity() {
                    self.telemetry.scratch_growth += 1;
                }
                self.outbox.push(req);
                return;
            }
            ex.schedule_in(
                AIR_DELAY,
                Ev::BsRx {
                    ue: i as u32,
                    cell: cell as u16,
                    pdu,
                },
            );
        }
    }

    /// Stage publication: capture everything the shared stage needs to
    /// act as this cell's BS at the arrival instant, so the cross-shard
    /// resolution pass never reaches back into shard state. Returns
    /// `None` for PDUs the stage does not own (assist traffic stays on
    /// the local path).
    fn rach_request(
        &self,
        now: SimTime,
        i: usize,
        cell: usize,
        pdu: &Pdu,
    ) -> Option<RachAttemptMsg> {
        let at = now + AIR_DELAY;
        let req = match *pdu {
            Pdu::RachPreamble { preamble, ssb_beam } => {
                // Pose at the arrival instant, computed purely (mobility
                // models are functions of time), without the pose cache.
                let pos = self.ues[i].mobility.pose_at(at.as_secs_f64()).position;
                RachReq::Preamble {
                    preamble,
                    ssb_beam,
                    distance_m: pos.distance(self.cfg.base.cells[cell].position),
                }
            }
            Pdu::ConnectionRequest { ue, context_token } => RachReq::Msg3 {
                temp: self.ues[i].rach.as_ref().and_then(|r| r.proc.temp_ue()),
                ue,
                context_token,
                reply_tx_beam: self.ues[i].rach.as_ref().map(|r| r.ssb_beam).unwrap_or(0),
            },
            _ => return None,
        };
        Some(RachAttemptMsg {
            at,
            ue_global: self.ues[i].spec.id,
            shard: self.shard_idx,
            cell: cell as u16,
            req,
        })
    }

    fn on_rach_try(&mut self, ex: &mut Executive<Ev>, now: SimTime, i: usize) {
        self.refresh_rach_beams(i);
        let Some(rach) = &mut self.ues[i].rach else {
            return;
        };
        rach.try_pending = false;
        if !matches!(
            rach.proc.state(),
            RachState::Idle | RachState::WaitingRar { .. }
        ) {
            return;
        }
        let n_preambles = self.cfg.base.prach.n_preambles.max(1);
        let preamble: u8 = self.ues[i].rach_rng.random_range(0..n_preambles);
        let rach = self.ues[i].rach.as_mut().unwrap();
        let (target, ssb_beam) = (rach.target, rach.ssb_beam);
        match rach.proc.send_preamble(now, ssb_beam, preamble) {
            Ok(msg1) => {
                if rach.first_tx.is_none() {
                    rach.first_tx = Some(now);
                }
                self.ues[i].rach_attempts += 1;
                self.telemetry.cur.rach_attempts += 1;
                self.send_to_bs(ex, now, i, target, msg1);
            }
            Err(_) => self.abort_rach(ex, now, i),
        }
    }

    fn abort_rach(&mut self, ex: &mut Executive<Ev>, now: SimTime, i: usize) {
        self.ues[i].rach = None;
        let actions = self.ues[i].proto.handle(Input::RachFailed { at: now });
        self.apply_actions(ex, now, i, actions);
    }

    fn poll_rach(&mut self, ex: &mut Executive<Ev>, now: SimTime, i: usize) {
        let base_prach = self.cfg.base.prach;
        let Some(rach) = &mut self.ues[i].rach else {
            return;
        };
        let st = rach.proc.poll(now);
        match st {
            RachState::Idle if !rach.try_pending => {
                let ssb = self.cfg.base.ssb(rach.target);
                let at = base_prach.next_occasion(&ssb, now, rach.ssb_beam);
                rach.try_pending = true;
                ex.schedule_at(at, Ev::RachTry { ue: i as u32 });
            }
            RachState::Failed => self.abort_rach(ex, now, i),
            _ => {}
        }
    }

    fn complete_handover(&mut self, now: SimTime, i: usize) {
        let Some(rach) = self.ues[i].rach.take() else {
            return;
        };
        let hard_penalty = match self.ues[i].spec.protocol {
            ProtocolKind::Reactive => self.cfg.base.hard_handover_penalty,
            ProtocolKind::SilentTracker => SimDuration::ZERO,
        };
        let done_at = now + hard_penalty;
        let ue = &mut self.ues[i];
        let start = match ue.handover_reason {
            Some(HandoverReason::NeighborStronger) => ue.trigger_at,
            _ => ue.rlf_at.or(ue.trigger_at),
        };
        if let Some(s) = start {
            let ms = done_at.since(s).as_millis_f64();
            // Causal attribution: capture the raw handover timeline as
            // marks (recorded into the trace for autopsy refolds) and
            // derive the phase decomposition + root cause. The breakdown
            // total is bit-equal to the `ms` sample recorded below — one
            // interruption, one number, two views.
            let marks = InterruptionMarks {
                ue: ue.spec.id,
                from_cell: ue.serving as u16,
                to_cell: rach.target as u16,
                reason_rlf: !matches!(ue.handover_reason, Some(HandoverReason::NeighborStronger))
                    && ue.rlf_at.is_some(),
                dynamics: self.cfg.base.dynamics.is_some(),
                start: s,
                trigger: ue.trigger_at.unwrap_or(s),
                first_tx: rach.first_tx,
                msg3: rach.msg3_at,
                backhaul_ns: rach.backhaul_ns,
                connected: now,
                penalty_ns: hard_penalty.as_nanos(),
                rach_rounds: rach.proc.attempts(),
            };
            let bd = InterruptionBreakdown::from_marks(&marks);
            debug_assert!(
                bd.total_ms.to_bits() == ms.to_bits(),
                "breakdown total must bit-equal the recorded interruption"
            );
            let (arm, causes) = match ue.spec.protocol {
                ProtocolKind::SilentTracker => {
                    self.telemetry.soft.record(ms);
                    self.telemetry.cur.soft.record(ms);
                    (0, &mut self.telemetry.soft_causes)
                }
                ProtocolKind::Reactive => {
                    self.telemetry.hard.record(ms);
                    self.telemetry.cur.hard.record(ms);
                    (1, &mut self.telemetry.hard_causes)
                }
            };
            causes.record(bd.cause.label(), ms);
            let c = bd.cause as usize;
            self.telemetry.cause_totals[arm][c] += ms;
            self.telemetry.cause_phase_sums[arm][c] += bd.phase_sum_ms();
            self.telemetry.cause_counts_run[c] += 1;
            self.telemetry.cur.cause_counts[c] += 1;
            crate::attribution::push_worst(&mut self.telemetry.worst, bd);
            ue.proto.record_marks(&marks);
            if self.cfg.exact_ecdfs {
                ue.interruptions_ms.push(ms);
            }
        }
        ue.handovers += 1;
        self.telemetry.cur.handovers += 1;
        self.handovers_in[rach.target] += 1;
        ue.serving = rach.target;
        // The target BS served the whole RACH exchange on the SSB beam
        // the UE accessed through — that beam, not the spawn-era one, is
        // what it keeps transmitting on after admission. (Without this,
        // a fast-moving UE could be handed over straight into a spurious
        // RLF on a months-stale transmit beam.)
        ue.bs_tx_beam[rach.target] = rach.ssb_beam;
        // Re-anchor the protocol on the new serving cell: beam management
        // restarts there with the access beam as the serving beam (the
        // session continues — this is what the context transfer bought).
        ue.bank_proto();
        // Warm-start (opt-in): the monitor that tracked the target beam
        // pre-handover seeds the new serving monitor instead of starting
        // the EWMA cold.
        let warm = if self.cfg.base.tracker.warm_start_handover {
            ue.proto
                .tracked()
                .filter(|(cell, _, _)| cell.0 as usize == rach.target)
                .and_then(|_| ue.proto.tracked_monitor())
        } else {
            None
        };
        let rec = ue.proto.finish_recording();
        ue.proto = Proto::new(
            ue.spec.protocol,
            self.cfg.base.tracker,
            ue.uid,
            CellId(rach.target as u16),
            Arc::clone(&self.ue_codebook),
            rach.rx_beam,
        );
        if let Some(w) = &warm {
            ue.proto.warm_start(w);
        }
        if let Some(rec) = rec {
            ue.proto.resume_recording(rec, warm);
        }
        ue.rlf_declared = false;
        ue.rlf_count = 0;
        ue.handover_reason = None;
        ue.trigger_at = None;
        ue.rlf_at = None;
    }

    // ----- protocol actions -------------------------------------------------

    fn apply_actions(
        &mut self,
        ex: &mut Executive<Ev>,
        now: SimTime,
        i: usize,
        actions: Vec<Action>,
    ) {
        for a in actions {
            match a {
                Action::SetServingRxBeam(_) | Action::SetGapRxBeam(_) => {}
                Action::SendToServing(pdu) => {
                    let serving = self.ues[i].serving;
                    self.send_to_bs(ex, now, i, serving, pdu);
                }
                Action::SearchFailed { .. } | Action::NeighborAcquired(_) => {}
                Action::ExecuteHandover(directive) => self.start_rach(ex, now, i, directive),
            }
        }
    }

    fn start_rach(&mut self, ex: &mut Executive<Ev>, now: SimTime, i: usize, d: HandoverDirective) {
        if self.ues[i].rach.is_some() {
            return;
        }
        let target = d.target.0 as usize;
        if target == self.ues[i].serving {
            return; // stale directive towards the current serving cell
        }
        let ue = &mut self.ues[i];
        ue.trigger_at = Some(now);
        ue.handover_reason = Some(d.reason);
        let proc = RachProcedure::new(self.cfg.base.rach, ue.uid, ue.context_token());
        let ssb = self.cfg.base.ssb(target);
        let at = self.cfg.base.prach.next_occasion(&ssb, now, d.ssb_beam);
        ue.rach = Some(RachExec {
            target,
            ssb_beam: d.ssb_beam,
            rx_beam: d.rx_beam,
            proc,
            try_pending: true,
            first_tx: None,
            msg3_at: None,
            backhaul_ns: 0,
        });
        ex.schedule_at(at, Ev::RachTry { ue: i as u32 });
    }

    // ----- result collection ------------------------------------------------

    fn collect(
        mut self,
        events: u64,
        budget_exhausted: bool,
        pending: u64,
        pending_peak: u64,
    ) -> ShardOutcome {
        // A duration that is not a whole number of snapshot intervals
        // leaves a partial tail slice; seal it with end-of-run gauges so
        // the timeline covers the full run.
        if let Some(dt) = self.cfg.snapshot_interval {
            if self.cfg.base.duration.as_nanos() % dt.as_nanos() != 0 {
                self.seal_slice(pending);
            }
        }
        if let Some(ring) = self.telemetry.ring.as_mut() {
            ring.finish();
        }
        let occasions_per_cell = |cell: usize| {
            let ssb = self.cfg.base.ssb(cell);
            (self.cfg.base.duration.as_nanos() / ssb.burst_period.as_nanos())
                * ssb.n_tx_beams as u64
        };
        // The responder fields and the used-occasion count stay default:
        // the merge derives them fleet-wide.
        let per_cell = (0..self.sites.len())
            .map(|c| CellLoad {
                preambles_tx: self.preambles_tx[c],
                occasions_total: occasions_per_cell(c),
                handovers_in: self.handovers_in[c],
                ..CellLoad::default()
            })
            .collect();
        let mut out = ShardOutcome {
            per_cell,
            ues: self.ues.len() as u64,
            events,
            budget_exhausted_shards: u64::from(budget_exhausted),
            // The raw occasion instants travel with the shard result so
            // the merge can count each *global* occasion once (two shards
            // using the same occasion is one occasion, not two).
            occasion_instants: std::mem::take(&mut self.occasions_used),
            ..ShardOutcome::default()
        };
        let mut traces_cast = 0u64;
        let mut rays_tested = 0u64;
        for links in &self.links {
            let ls = links.stats();
            traces_cast += ls.traces_cast;
            rays_tested += ls.rays_tested;
        }
        for ue in &mut self.ues {
            ue.bank_proto();
            if let Some(rec) = ue.proto.finish_recording() {
                out.ue_traces
                    .push(rec.into_trace(ue.spec.id, ue.uid.0, ue.spec.protocol));
            }
            out.handovers += ue.handovers;
            out.rlfs += ue.rlfs;
            out.rach_attempts += ue.rach_attempts;
            out.search_dwells += ue.dwells_banked;
            out.nrba_switches += ue.nrba_banked;
            match ue.spec.protocol {
                ProtocolKind::SilentTracker => out
                    .soft_interruptions_ms
                    .extend(ue.interruptions_ms.iter().copied()),
                ProtocolKind::Reactive => out
                    .hard_interruptions_ms
                    .extend(ue.interruptions_ms.iter().copied()),
            }
        }
        // Deterministic work counters: every value here is a pure
        // function of the simulated run, so merged profiles must be
        // byte-identical across worker counts (wall-time spans are kept
        // separate and carry no such contract).
        let mut profile = Profiler::default();
        profile.counters.add("phy.traces_cast", traces_cast);
        profile.counters.add("phy.rays_tested", rays_tested);
        profile.counters.add("des.events_popped", events);
        profile
            .counters
            .set_max("des.event_queue_peak", pending_peak);
        profile
            .counters
            .add("fleet.scratch_growth", self.telemetry.scratch_growth);
        if let Some(ring) = &self.telemetry.ring {
            profile.counters.add("obs.snapshot_slices", ring.pushed());
        }
        out.profile = profile;
        out.soft_sketch = std::mem::take(&mut self.telemetry.soft);
        out.hard_sketch = std::mem::take(&mut self.telemetry.hard);
        // Attribution conservation ledgers, checked before the causal
        // aggregates leave the shard: (a) per arm and cause, the summed
        // phase decompositions bit-equal the summed recorded samples;
        // (b) the timeline's per-cause slice counts sum to the run's
        // per-cause totals — nothing double-counted, nothing dropped.
        if cfg!(debug_assertions) {
            debug_assert!(
                self.telemetry
                    .cause_totals
                    .iter()
                    .flatten()
                    .zip(self.telemetry.cause_phase_sums.iter().flatten())
                    .all(|(t, p)| t.to_bits() == p.to_bits()),
                "per-cause phase sums must bit-equal the recorded interruption totals"
            );
            if let Some(ring) = &self.telemetry.ring {
                let mut sums = [0u64; 5];
                for s in ring.slices() {
                    for (a, b) in sums.iter_mut().zip(&s.cause_counts) {
                        *a += b;
                    }
                }
                debug_assert!(
                    sums == self.telemetry.cause_counts_run,
                    "timeline slice cause counts must sum to the run's cause totals"
                );
            }
        }
        out.soft_causes = std::mem::take(&mut self.telemetry.soft_causes);
        out.hard_causes = std::mem::take(&mut self.telemetry.hard_causes);
        out.worst = std::mem::take(&mut self.telemetry.worst);
        out.timeline = self.telemetry.ring.take();
        // The constant-memory contract: unless the exact-ECDF opt-in is
        // armed, no per-handover sample vector may leave the shard —
        // quantiles travel only through the fixed-size sketches.
        debug_assert!(
            self.cfg.exact_ecdfs
                || (out.soft_interruptions_ms.is_empty() && out.hard_interruptions_ms.is_empty()),
            "raw interruption samples retained without exact_ecdfs"
        );
        out
    }
}
