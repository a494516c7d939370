//! The one UE driver: every per-UE handler, run by both the single-trial
//! loop and the fleet.
//!
//! A [`Driver`] owns a population of mobiles, each with its protocol
//! ([`Proto`]), its stochastic links ([`LinkSet`]) and its RACH state,
//! and translates between the physical world (mobility, channels, SSB
//! sweeps) and the sans-IO protocol fold:
//!
//! * every SSB burst set (all cells synchronized, as in an NR network) a
//!   mobile hears the serving cell on its serving beam, probes the
//!   adjacent serving beams, and — inside measurement gaps — listens for
//!   neighbor SSBs on the protocol's gap beam;
//! * control PDUs travel over the simulated link and are dropped
//!   according to SNR (plus injected faults), which is what makes the
//!   "assistance delayed or lost" edge real;
//! * a handover directive starts the 4-step RACH against the target on
//!   the PRACH occasion bound to the tracked SSB beam. Every uplink PDU
//!   travels as an arrival event; a RACH attempt is built at send time
//!   and published to [`Driver::outbox`] when it arrives, for a
//!   [`crate::stage::SharedRachStage`] to answer (the context fetch over
//!   the backhaul for a soft handover happens there);
//! * a completed handover re-anchors the protocol on the new serving
//!   cell, so one mobile can hand over repeatedly.
//!
//! What a loop learns from a run it learns through an [`Observer`]: the
//! single trial's outcome and milestone trace, or the fleet's telemetry,
//! attribution and per-cell ledgers. The loops differ only in how they
//! step channels, how they label RNG streams, and when they resolve the
//! stage. Every sample advances its own link to the sample instant (see
//! [`LinkSet`]); the single trial also advances every link at every
//! event ([`Driver::step_channels`]), while a fleet shard advances each
//! link only when it is sampled.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::RngExt as _;

use silent_tracker::attribution::InterruptionMarks;
use silent_tracker::{Action, HandoverDirective, HandoverReason, ProtocolEvent};
use st_des::{Executive, SimDuration, SimTime};
use st_mac::pdu::{CellId, Pdu, UeId};
use st_mac::rach::{RachAction, RachProcedure, RachState};
use st_mac::responder::ResponderConfig;
use st_mac::timing::TxBeamIndex;
use st_mobility::BoxedModel;
use st_phy::codebook::{BeamId, Codebook};
use st_phy::geometry::{Pose, Vec2};
use st_phy::link::RadioCal;
use st_phy::units::Dbm;

use crate::config::{ProtocolKind, ScenarioConfig};
use crate::proto::Proto;
use crate::radio::{LinkSet, LinkStats, Sites};
use crate::stage::{RachAttemptMsg, RachReply, RachReq};

/// Over-the-air plus processing delay of one PDU.
pub(crate) const AIR_DELAY: SimDuration = SimDuration::from_micros(500);
/// BS processing before the random-access response (Msg2).
const MSG2_DELAY: SimDuration = SimDuration::from_millis(2);
/// BS processing before contention resolution (Msg4), before any
/// backhaul context fetch.
const MSG4_PROCESSING: SimDuration = SimDuration::from_millis(2);
/// Soft-handover context tokens are `BASE | ue`, always nonzero.
const CONTEXT_TOKEN_BASE: u64 = 0x511E_27AC_0000_0000;

/// The BS responder timing of a deployment, as the RACH stage models it.
pub fn responder_config(cfg: &ScenarioConfig) -> ResponderConfig {
    ResponderConfig {
        rar_delay: MSG2_DELAY,
        msg4_delay: MSG4_PROCESSING,
        backhaul_latency: cfg.backhaul_latency,
        ..ResponderConfig::nr_default()
    }
}

/// Driver events. Periodic drivers (`Burst`, `DwellEnd`, `ServingMeas`,
/// `Tick`) are shared — one event iterates every UE in order, which
/// keeps the pending set small and the dispatch order deterministic.
/// Targeted events carry the UE's index in the driver, which is fixed
/// for the whole run.
#[derive(Debug, Clone)]
pub enum Ev {
    /// SSB burst set `k` of every cell (network-synchronized).
    Burst { k: u64 },
    /// End of the mobiles' gap dwell within the current burst period.
    DwellEnd,
    /// Periodic serving-link measurement opportunity.
    ServingMeas,
    /// 1 ms protocol timer tick.
    Tick,
    /// Downlink PDU arriving at UE `ue` from `cell`, transmitted on
    /// `tx_beam`; delivery success is sampled at arrival.
    UeRx {
        ue: u32,
        cell: u16,
        tx_beam: TxBeamIndex,
        pdu: Pdu,
    },
    /// Uplink PDU arriving at base station `cell` (delivery was sampled
    /// at transmission). A RACH PDU arrives as the attempt built when it
    /// was sent, and is published to the outbox.
    BsRx { ue: u32, cell: u16, rx: Uplink },
    /// The serving BS applies a transmit-beam switch and notifies the UE.
    AssistApply {
        ue: u32,
        cell: u16,
        tx_beam: TxBeamIndex,
    },
    /// Transmit (or re-transmit) the RACH preamble at a PRACH occasion.
    RachTry { ue: u32 },
    /// Telemetry boundary `k` of the loop running the driver. The loop
    /// handles it itself; [`Driver::dispatch`] ignores it.
    Snapshot { k: u64 },
}

/// What an uplink arrival carries.
#[derive(Debug, Clone)]
pub enum Uplink {
    /// A RACH attempt for the stage.
    Rach(RachReq),
    /// Any other PDU, handled by the receiving base station itself.
    Pdu(Pdu),
}

/// What a loop learns from the driver. Every hook defaults to doing
/// nothing and is statically dispatched, so an observer pays only for
/// the hooks it implements. Hooks receive plain values and borrows: an
/// observer that keeps counters allocates nothing, which the fleet's hot
/// path relies on. `i` is the UE's index in the driver.
pub trait Observer {
    /// UE `i` declared radio link failure on its serving cell.
    fn on_rlf(&mut self, _i: usize, _now: SimTime) {}

    /// UE `i` folded a serving-link measurement; `proto` is the protocol
    /// after the fold.
    fn on_serving_rss(&mut self, _i: usize, _now: SimTime, _rss: Dbm, _proto: &Proto) {}

    /// UE `i` finished its measurements of one SSB burst set at `pose`.
    fn on_burst_done(&mut self, _i: usize, _now: SimTime, _pose: Pose, _proto: &Proto) {}

    /// The serving BS of UE `i` took up its beam-switch request and will
    /// switch to `tx_beam`, or dropped it (`None`, an injected fault).
    fn on_assist(&mut self, _i: usize, _now: SimTime, _tx_beam: Option<TxBeamIndex>) {}

    /// UE `i`'s protocol emitted `action`, about to be applied.
    fn on_action(&mut self, _i: usize, _now: SimTime, _action: &Action, _proto: &Proto) {}

    /// A handover directive started random access towards its target.
    fn on_rach_start(&mut self, _i: usize, _now: SimTime, _directive: &HandoverDirective) {}

    /// UE `i` transmitted preamble number `attempt` of its access attempt
    /// towards `cell`.
    fn on_preamble(&mut self, _i: usize, _now: SimTime, _cell: usize, _attempt: u8) {}

    /// UE `i`'s access attempt failed for good: its preambles ran out
    /// (`exhausted`) or the procedure gave up.
    fn on_rach_failed(&mut self, _i: usize, _now: SimTime, _exhausted: bool) {}

    /// UE `i` completed a handover; `proto` is the protocol instance that
    /// completed it, before the driver re-anchors it.
    fn on_handover(&mut self, _i: usize, _now: SimTime, _done: &HandoverDone, _proto: &Proto) {}
}

/// A completed handover.
#[derive(Debug, Clone, Copy)]
pub struct HandoverDone {
    pub target: usize,
    /// Completion, including the hard-handover penalty.
    pub done_at: SimTime,
    /// The interruption's raw timeline; `None` if it has no start.
    pub marks: Option<InterruptionMarks>,
}

/// Everything needed to attach one UE to a [`Driver`]: the loop chooses
/// the RNG streams (and their labels) and the initial serving cell.
pub struct UeSetup {
    /// Global UE id, stable across shardings (the wire id is `id + 1`).
    pub id: u64,
    pub protocol: ProtocolKind,
    pub mobility: BoxedModel,
    pub serving: usize,
    pub rach_rng: StdRng,
    pub fault_rng: StdRng,
    pub links: LinkSet,
    /// Record the protocol's trace ([`crate::trace`]).
    pub record: bool,
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

/// One driven mobile. The per-instant hot state a measurement sweep
/// touches — the pose memo and the link scratch — lives
/// struct-of-arrays in [`Driver`], parallel to its UE vector, so a sweep
/// over many UEs is one cache-friendly pass; this struct keeps the colder
/// protocol and RACH state.
pub struct Ue {
    id: u64,
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
}

impl Ue {
    /// Global UE id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Wire id (`id + 1`).
    pub fn uid(&self) -> UeId {
        self.uid
    }

    /// Index of the current serving cell.
    pub fn serving(&self) -> usize {
        self.serving
    }

    pub fn proto(&self) -> &Proto {
        &self.proto
    }

    pub fn proto_mut(&mut self) -> &mut Proto {
        &mut self.proto
    }

    fn context_token(&self) -> u64 {
        match self.proto.kind() {
            ProtocolKind::SilentTracker => CONTEXT_TOKEN_BASE | u64::from(self.uid.0),
            ProtocolKind::Reactive => 0,
        }
    }

    /// After RLF the reactive baseline may reconnect to any cell,
    /// including the old serving one.
    fn post_rlf_search(&self) -> bool {
        self.rlf_declared && self.proto.kind() == ProtocolKind::Reactive
    }
}

/// Interest management: each UE's links are restricted to the cells
/// within `radius` metres, refreshed every SSB burst.
struct Interest {
    radius: f64,
    /// Cell indices sorted by street-axis abscissa — the query index
    /// (binary-search the x-window, filter by true distance).
    cells_by_x: Vec<(f64, u16)>,
    /// Reusable scratch for one UE's freshly computed interest set.
    scratch: Vec<u16>,
}

impl Interest {
    /// Compute one UE's interest set into the scratch: cells within the
    /// radius of `pos`, force-including the serving cell and any
    /// in-flight RACH target, sorted ascending and deduplicated.
    fn compute(
        &mut self,
        cfg: &ScenarioConfig,
        pos: Vec2,
        serving: usize,
        rach_target: Option<usize>,
    ) -> &[u16] {
        let out = &mut self.scratch;
        out.clear();
        let lo = self
            .cells_by_x
            .partition_point(|&(x, _)| x < pos.x - self.radius);
        for &(_, cell) in &self.cells_by_x[lo..] {
            let p = cfg.cells[cell as usize].position;
            if p.x > pos.x + self.radius {
                break;
            }
            if p.distance(pos) <= self.radius {
                out.push(cell);
            }
        }
        out.push(serving as u16);
        if let Some(t) = rach_target {
            out.push(t as u16);
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The UE driver: a population of mobiles sharing one deployment, plus
/// the observer the running loop learns from.
pub struct Driver<O> {
    cfg: ScenarioConfig,
    /// Shared static side (cells, codebooks, environment) — a fleet hands
    /// every shard the same one.
    sites: Arc<Sites>,
    ue_codebook: Arc<Codebook>,
    /// Precomputed receiver thresholds (noise floor et al.), derived once
    /// instead of re-deriving a `log10` per probe.
    cal: RadioCal,
    /// Batched-sweep scratch: one slot per transmit beam of the cell
    /// being swept, shared by all UEs (used transiently within a sweep).
    sweep_scratch: Vec<Dbm>,
    /// UEs in ascending global id, with their hot per-instant state split
    /// struct-of-arrays alongside: `poses[i]` memoizes UE `i`'s pose per
    /// instant (mobility models are trigonometry-heavy) and `links[i]` is
    /// its link scratch.
    ues: Vec<Ue>,
    poses: Vec<(SimTime, Pose)>,
    links: Vec<LinkSet>,
    interest: Option<Interest>,
    /// Reply-routing tag stamped on published attempts.
    shard: u32,
    /// RACH attempts that arrived since the loop last drained them.
    outbox: Vec<RachAttemptMsg>,
    /// Steady-state allocation violations: how often a reused scratch
    /// buffer (sweep scratch, outbox) actually had to grow.
    scratch_growth: u64,
    burst_period: SimDuration,
    /// The observer of the loop running this driver.
    pub obs: O,
}

impl<O: Observer> Driver<O> {
    /// A driver over `sites` with no UEs yet. With an interest radius,
    /// each UE's links cover only the cells within it (see
    /// [`LinkSet::set_interest`]); `shard` tags the attempts this driver
    /// publishes.
    pub fn new(
        cfg: ScenarioConfig,
        sites: Arc<Sites>,
        ue_codebook: Arc<Codebook>,
        interest_radius_m: Option<f64>,
        shard: u32,
        obs: O,
    ) -> Driver<O> {
        let interest = interest_radius_m.map(|radius| {
            let mut cells_by_x: Vec<(f64, u16)> = cfg
                .cells
                .iter()
                .enumerate()
                .map(|(i, c)| (c.position.x, i as u16))
                .collect();
            cells_by_x.sort_by(|a, b| a.partial_cmp(b).expect("finite cell positions"));
            Interest {
                radius,
                cells_by_x,
                scratch: Vec::new(),
            }
        });
        Driver {
            cal: cfg.radio.cal(),
            burst_period: cfg.ssb(0).burst_period,
            cfg,
            sites,
            ue_codebook,
            sweep_scratch: Vec::new(),
            ues: Vec::new(),
            poses: Vec::new(),
            links: Vec::new(),
            interest,
            shard,
            outbox: Vec::new(),
            scratch_growth: 0,
            obs,
        }
    }

    /// Attach a UE that completed initial access to `setup.serving`
    /// before the run: both ends start on their ground-truth best beams.
    /// UEs must be added in ascending global id.
    pub fn add_ue(&mut self, setup: UeSetup) {
        debug_assert!(
            self.ues.last().is_none_or(|u| u.id < setup.id),
            "UEs must ascend by global id"
        );
        let pose0 = setup.mobility.pose_at(0.0);
        let serving = setup.serving;
        let serving_rx = self
            .ue_codebook
            .best_beam_towards(pose0.local_bearing_to(self.cfg.cells[serving].position));
        let bs_tx_beam = (0..self.sites.len())
            .map(|c| self.sites.best_tx_beam_towards(c, pose0.position))
            .collect();
        let uid = UeId(setup.id as u32 + 1);
        let mut proto = Proto::new(
            setup.protocol,
            self.cfg.tracker,
            uid,
            CellId(serving as u16),
            Arc::clone(&self.ue_codebook),
            serving_rx,
        );
        if setup.record {
            proto.start_recording();
        }
        let mut links = setup.links;
        if let Some(interest) = &mut self.interest {
            links.set_interest(interest.compute(&self.cfg, pose0.position, serving, None));
        }
        self.poses.push((SimTime::ZERO, pose0));
        self.links.push(links);
        self.ues.push(Ue {
            id: setup.id,
            uid,
            mobility: setup.mobility,
            rach_rng: setup.rach_rng,
            fault_rng: setup.fault_rng,
            proto,
            serving,
            bs_tx_beam,
            rlf_count: 0,
            rlf_declared: false,
            rach: None,
            handover_reason: None,
            trigger_at: None,
            rlf_at: None,
        });
    }

    /// Arm the periodic drivers on `ex`.
    pub fn start(&self, ex: &mut Executive<Ev>) {
        let burst_active = self.cfg.ssb(0).burst_active();
        ex.schedule_at(SimTime::ZERO, Ev::Burst { k: 0 });
        ex.schedule_at(
            SimTime::ZERO + burst_active + SimDuration::from_millis(1),
            Ev::DwellEnd,
        );
        ex.schedule_in(SimDuration::from_millis(1), Ev::ServingMeas);
        ex.schedule_in(SimDuration::from_micros(500), Ev::Tick);
    }

    pub fn cfg(&self) -> &ScenarioConfig {
        &self.cfg
    }

    pub fn ues(&self) -> &[Ue] {
        &self.ues
    }

    /// End the run: the UEs and the observer.
    pub fn into_parts(self) -> (Vec<Ue>, O) {
        (self.ues, self.obs)
    }

    /// Trace/ray/step work counters summed over every UE's links.
    pub fn link_stats(&self) -> LinkStats {
        let mut s = LinkStats::default();
        for links in &self.links {
            let ls = links.stats();
            s.traces_cast += ls.traces_cast;
            s.rays_tested += ls.rays_tested;
            s.link_steps += ls.link_steps;
        }
        s
    }

    /// How often a reused scratch buffer had to grow.
    pub fn scratch_growth(&self) -> u64 {
        self.scratch_growth
    }

    /// The attempts that arrived since the loop last drained them; a
    /// stage drains them with `Vec::append`, so the buffer keeps its
    /// capacity.
    pub fn outbox(&mut self) -> &mut Vec<RachAttemptMsg> {
        &mut self.outbox
    }

    /// Schedule one resolved stage reply as a receive event. The stage
    /// guarantees `deliver_at` lies in the future.
    pub fn deliver(&mut self, ex: &mut Executive<Ev>, r: &RachReply) {
        let Ok(i) = self.ues.binary_search_by_key(&r.ue_global, |u| u.id) else {
            debug_assert!(
                false,
                "reply routed to a driver not owning UE {}",
                r.ue_global
            );
            return;
        };
        // The stage resolves Msg3, so the backhaul span embedded in the
        // Msg4 delay arrives with the reply; stamp it on the in-flight
        // procedure for causal attribution. Last write wins — a UE has at
        // most one Msg3 outstanding, so a dropped Msg4's retry restamps.
        if matches!(r.pdu, Pdu::ContentionResolution { .. }) {
            if let Some(rach) = self.ues[i].rach.as_mut() {
                rach.backhaul_ns = r.backhaul_ns;
            }
        }
        ex.schedule_at(
            r.deliver_at,
            Ev::UeRx {
                ue: i as u32,
                cell: r.cell,
                tx_beam: r.tx_beam,
                pdu: r.pdu.clone(),
            },
        );
    }

    /// Advance every UE's links to `now` ([`LinkSet::step_to`]). The
    /// single trial calls this at every event, which keeps its seeded
    /// realization; a fleet shard never does, so each of its links
    /// advances only when it is sampled, in one step from its last one.
    pub fn step_channels(&mut self, now: SimTime) {
        for links in &mut self.links {
            links.step_to(now);
        }
    }

    /// Handle one event.
    pub fn dispatch(&mut self, ex: &mut Executive<Ev>, now: SimTime, ev: Ev) {
        match ev {
            Ev::Burst { k } => {
                for i in 0..self.ues.len() {
                    self.on_burst(ex, now, i);
                }
                ex.schedule_at(
                    SimTime::ZERO + self.burst_period * (k + 1),
                    Ev::Burst { k: k + 1 },
                );
            }
            Ev::DwellEnd => {
                for i in 0..self.ues.len() {
                    self.feed(ex, now, i, ProtocolEvent::DwellComplete { at: now });
                }
                ex.schedule_in(self.burst_period, Ev::DwellEnd);
            }
            Ev::ServingMeas => {
                // While the radio is tuned away for neighbor measurements
                // there is no serving sample.
                if !self.cfg.gaps.in_gap(now) {
                    for i in 0..self.ues.len() {
                        self.on_serving_meas(ex, now, i);
                    }
                }
                ex.schedule_in(self.cfg.serving_meas_period, Ev::ServingMeas);
            }
            Ev::Tick => {
                for i in 0..self.ues.len() {
                    self.feed(ex, now, i, ProtocolEvent::Tick { at: now });
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
            Ev::BsRx { ue, cell, rx } => match rx {
                Uplink::Rach(req) => {
                    if self.outbox.len() == self.outbox.capacity() {
                        self.scratch_growth += 1;
                    }
                    self.outbox.push(RachAttemptMsg {
                        at: now,
                        ue_global: self.ues[ue as usize].id,
                        shard: self.shard,
                        cell,
                        req,
                    });
                }
                Uplink::Pdu(pdu) => self.on_bs_rx(ex, now, ue as usize, cell as usize, pdu),
            },
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
            Ev::Snapshot { .. } => {}
        }
    }

    // ----- physics ----------------------------------------------------------

    /// UE `i`'s pose at `now`, memoized per instant.
    fn pose(&mut self, i: usize, now: SimTime) -> Pose {
        let memo = &mut self.poses[i];
        if memo.0 != now {
            *memo = (now, self.ues[i].mobility.pose_at(now.as_secs_f64()));
        }
        memo.1
    }

    /// Downlink RSS from `cell` to UE `i` on (`tx_beam`, `rx_beam`) at
    /// `now`; by channel reciprocity the same figure serves the uplink.
    /// The sampled link alone is advanced to `now` if it lags.
    fn link_rss(
        &mut self,
        i: usize,
        now: SimTime,
        cell: usize,
        tx_beam: TxBeamIndex,
        rx_beam: BeamId,
    ) -> Option<Dbm> {
        let pose = self.pose(i, now);
        self.links[i].rss(
            &self.sites,
            cell,
            tx_beam,
            now,
            pose,
            &self.ue_codebook,
            rx_beam,
        )
    }

    /// Sample whether a control PDU gets through at this SNR.
    fn delivery_ok(&mut self, i: usize, rss: Option<Dbm>) -> bool {
        let Some(r) = rss else { return false };
        let p = self.cal.packet_success_probability(self.cal.snr(r));
        self.ues[i].rach_rng.random::<f64>() < p
    }

    // ----- event handlers ---------------------------------------------------

    /// Recompute UE `i`'s interest set from its current position (no-op
    /// without an interest radius). Runs at each SSB burst — the natural
    /// refresh cadence, since bursts are when links are measured.
    fn refresh_interest(&mut self, i: usize, now: SimTime) {
        if self.interest.is_none() {
            return;
        }
        let pose = self.pose(i, now);
        let ue = &self.ues[i];
        let target = ue.rach.as_ref().map(|r| r.target);
        let interest = self.interest.as_mut().expect("checked above");
        self.links[i].set_interest(interest.compute(&self.cfg, pose.position, ue.serving, target));
    }

    /// UE `i`'s share of one synchronized SSB burst set across all cells.
    fn on_burst(&mut self, ex: &mut Executive<Ev>, now: SimTime, i: usize) {
        self.refresh_interest(i, now);
        // Serving link: probe the adjacent receive beams (CSI-RS-like),
        // so the protocol's next mobile-side switch is informed.
        let serving = self.ues[i].serving;
        let serving_rx = self.ues[i].proto.serving_rx_beam();
        let tx = self.ues[i].bs_tx_beam[serving];
        for b in self.ue_codebook.adjacent(serving_rx) {
            if let Some(r) = self.link_rss(i, now, serving, tx, b) {
                if self.cal.detectable(r) {
                    let probe = ProtocolEvent::ServingProbe {
                        at: now,
                        rx_beam: b,
                        rss: r,
                    };
                    self.feed(ex, now, i, probe);
                }
            }
        }

        // Neighbor cells: the mobile listens on its gap beam during the
        // measurement gap that covers the burst. Each cell's whole SSB
        // sweep is one batched evaluation (single trace, one pass over
        // the rays), then the SSBs feed the protocol in beam order — the
        // same inputs, RSS values and RNG draws as probing beam by beam,
        // minus the redundant re-traces. Only the interest set is swept.
        if self.cfg.gaps.in_gap(now) {
            let gap_beam = self.ues[i].proto.gap_rx_beam();
            for ci in 0.. {
                let cell = match self.links[i].active_cells().get(ci) {
                    Some(&c) => c as usize,
                    None => break,
                };
                if cell == self.ues[i].serving && !self.ues[i].post_rlf_search() {
                    continue;
                }
                let n_beams = self.cfg.cells[cell].n_tx_beams as usize;
                if n_beams > self.sweep_scratch.capacity() {
                    self.scratch_growth += 1;
                }
                self.sweep_scratch.resize(n_beams, Dbm(f64::NEG_INFINITY));
                let pose = self.pose(i, now);
                if !self.links[i].rss_tx_sweep(
                    &self.sites,
                    cell,
                    now,
                    pose,
                    &self.ue_codebook,
                    gap_beam,
                    &mut self.sweep_scratch[..n_beams],
                ) {
                    continue;
                }
                for tx_beam in 0..self.cfg.cells[cell].n_tx_beams {
                    let r = self.sweep_scratch[tx_beam as usize];
                    // While no neighbor beam is tracked the protocol is
                    // *acquiring*: an SSB must be decodable (detection +
                    // PBCH margin), or a fading spike through a side
                    // lobe gets latched as a "found" beam pointing 100°+
                    // away. Once tracking, RSRP-style energy detection
                    // on the known beam/probes is enough. Evaluated per
                    // SSB — an earlier SSB of this same burst can flip
                    // the protocol from tracking back to searching.
                    let usable = if self.ues[i].proto.tracked().is_none() {
                        self.cal.acquirable(r)
                    } else {
                        self.cal.detectable(r)
                    };
                    if usable {
                        let ssb = ProtocolEvent::NeighborSsb {
                            at: now,
                            cell: CellId(cell as u16),
                            tx_beam,
                            rx_beam: gap_beam,
                            rss: r,
                        };
                        self.feed(ex, now, i, ssb);
                    }
                }
            }
        }

        let pose = self.pose(i, now);
        self.obs.on_burst_done(i, now, pose, &self.ues[i].proto);
    }

    fn on_serving_meas(&mut self, ex: &mut Executive<Ev>, now: SimTime, i: usize) {
        if self.ues[i].rlf_declared && self.ues[i].rach.is_none() {
            return; // disconnected (reactive arm): nothing to measure
        }
        let serving = self.ues[i].serving;
        let tx = self.ues[i].bs_tx_beam[serving];
        let rx = self.ues[i].proto.serving_rx_beam();
        match self.link_rss(i, now, serving, tx, rx) {
            Some(v) if self.cal.detectable(v) => {
                self.ues[i].rlf_count = 0;
                self.feed(ex, now, i, ProtocolEvent::ServingRss { at: now, rss: v });
                self.obs.on_serving_rss(i, now, v, &self.ues[i].proto);
            }
            _ => {
                let needed = (self.cfg.tracker.serving_timeout.as_nanos()
                    / self.cfg.serving_meas_period.as_nanos())
                .max(2) as u32;
                let ue = &mut self.ues[i];
                ue.rlf_count += 1;
                if ue.rlf_count >= needed && !ue.rlf_declared {
                    ue.rlf_declared = true;
                    ue.rlf_at = Some(now);
                    self.obs.on_rlf(i, now);
                    self.feed(ex, now, i, ProtocolEvent::ServingLinkLost { at: now });
                }
            }
        }
    }

    /// Keep the in-flight RACH pointed at the tracker's live beam pair:
    /// the device may rotate/move during the exchange and the tracker
    /// (which stays in N-RBA during random access) follows it.
    fn refresh_rach_beams(&mut self, i: usize) {
        let ue = &mut self.ues[i];
        if let (Some(rach), Some((cell, tx, rx))) = (&mut ue.rach, ue.proto.tracked()) {
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
        // Which receive beam is the mobile pointing at this sender? For
        // the RACH target, the tracker keeps maintaining the beam during
        // the exchange — use its live choice.
        self.refresh_rach_beams(i);
        let rx_beam = match &self.ues[i].rach {
            Some(r) if r.target == cell => r.rx_beam,
            _ => self.ues[i].proto.serving_rx_beam(),
        };
        let r = self.link_rss(i, now, cell, tx_beam, rx_beam);
        if !self.delivery_ok(i, r) {
            return;
        }
        if self.ues[i].fault_rng.random::<f64>() < self.cfg.fault.drop_rach_probability
            && matches!(
                pdu,
                Pdu::RachResponse { .. } | Pdu::ContentionResolution { .. }
            )
        {
            return;
        }
        // RACH messages go to the in-flight procedure.
        if let Some(rach) = self.ues[i].rach.as_mut().filter(|r| r.target == cell) {
            let action = rach.proc.on_pdu(now, &pdu);
            let connected = rach.proc.state() == RachState::Connected;
            if let RachAction::Transmit(msg3) = action {
                rach.msg3_at = Some(now);
                self.send_to_bs(ex, now, i, cell, msg3);
            }
            if connected {
                self.complete_handover(now, i);
            }
            return;
        }
        self.feed(ex, now, i, ProtocolEvent::FromServing { at: now, pdu });
    }

    /// BS-side handling of the uplink traffic the stage does not own:
    /// the beam-switch assist.
    fn on_bs_rx(&mut self, ex: &mut Executive<Ev>, now: SimTime, i: usize, cell: usize, pdu: Pdu) {
        if !matches!(pdu, Pdu::BeamSwitchRequest { .. }) {
            return;
        }
        if self.ues[i].fault_rng.random::<f64>() < self.cfg.fault.drop_assist_probability {
            self.obs.on_assist(i, now, None);
            return;
        }
        // The BS re-trains its transmit beam towards the mobile (its own
        // sweep + the UE's measurement reports).
        let pose = self.pose(i, now);
        let best = self.sites.best_tx_beam_towards(cell, pose.position);
        let delay = self.cfg.assist_processing + self.cfg.fault.assist_extra_delay;
        ex.schedule_in(
            delay,
            Ev::AssistApply {
                ue: i as u32,
                cell: cell as u16,
                tx_beam: best,
            },
        );
        self.obs.on_assist(i, now, Some(best));
    }

    fn send_to_bs(
        &mut self,
        ex: &mut Executive<Ev>,
        now: SimTime,
        i: usize,
        cell: usize,
        pdu: Pdu,
    ) {
        // Uplink delivery sampled by reciprocity: same beams, same SNR.
        self.refresh_rach_beams(i);
        let (tx_beam, rx_beam) = match &self.ues[i].rach {
            Some(r) if r.target == cell => (r.ssb_beam, r.rx_beam),
            _ => (
                self.ues[i].bs_tx_beam[cell],
                self.ues[i].proto.serving_rx_beam(),
            ),
        };
        let r = self.link_rss(i, now, cell, tx_beam, rx_beam);
        let faulted = self.ues[i].fault_rng.random::<f64>() < self.cfg.fault.drop_rach_probability
            && matches!(
                pdu,
                Pdu::RachPreamble { .. } | Pdu::ConnectionRequest { .. }
            );
        if !self.delivery_ok(i, r) || faulted {
            return;
        }
        let rx = match self.rach_request(now + AIR_DELAY, i, cell, &pdu) {
            Some(req) => Uplink::Rach(req),
            None => Uplink::Pdu(pdu),
        };
        let (ue, cell) = (i as u32, cell as u16);
        ex.schedule_in(AIR_DELAY, Ev::BsRx { ue, cell, rx });
    }

    /// Build the stage's view of a RACH PDU arriving at `at`: everything
    /// the stage needs to act as the cell's BS, so resolution never
    /// reaches back into driver state. `None` for PDUs the stage does
    /// not own.
    fn rach_request(&self, at: SimTime, i: usize, cell: usize, pdu: &Pdu) -> Option<RachReq> {
        let ue = &self.ues[i];
        match *pdu {
            Pdu::RachPreamble { preamble, ssb_beam } => {
                // The timing advance follows the true range at arrival;
                // mobility models are pure functions of time.
                let pos = ue.mobility.pose_at(at.as_secs_f64()).position;
                Some(RachReq::Preamble {
                    preamble,
                    ssb_beam,
                    distance_m: pos.distance(self.cfg.cells[cell].position),
                })
            }
            Pdu::ConnectionRequest {
                ue: id,
                context_token,
            } => Some(RachReq::Msg3 {
                temp: ue.rach.as_ref().and_then(|r| r.proc.temp_ue()),
                ue: id,
                context_token,
                reply_tx_beam: ue.rach.as_ref().map_or(0, |r| r.ssb_beam),
            }),
            _ => None,
        }
    }

    fn on_rach_try(&mut self, ex: &mut Executive<Ev>, now: SimTime, i: usize) {
        self.refresh_rach_beams(i);
        let n_preambles = self.cfg.prach.n_preambles.max(1);
        let ue = &mut self.ues[i];
        let Some(rach) = &mut ue.rach else { return };
        rach.try_pending = false;
        if !matches!(
            rach.proc.state(),
            RachState::Idle | RachState::WaitingRar { .. }
        ) {
            return;
        }
        let preamble: u8 = ue.rach_rng.random_range(0..n_preambles);
        let (target, ssb_beam) = (rach.target, rach.ssb_beam);
        match rach.proc.send_preamble(now, ssb_beam, preamble) {
            Ok(msg1) => {
                rach.first_tx.get_or_insert(now);
                let attempt = rach.proc.attempts();
                self.obs.on_preamble(i, now, target, attempt);
                self.send_to_bs(ex, now, i, target, msg1);
            }
            Err(_) => {
                self.obs.on_rach_failed(i, now, true);
                self.abort_rach(ex, now, i);
            }
        }
    }

    /// A permanently failed access attempt: tear down the RACH state and
    /// let the protocol recover (re-acquire and possibly re-trigger —
    /// make-before-break keeps the serving link alive meanwhile).
    fn abort_rach(&mut self, ex: &mut Executive<Ev>, now: SimTime, i: usize) {
        self.ues[i].rach = None;
        self.feed(ex, now, i, ProtocolEvent::RachFailed { at: now });
    }

    /// Retry the preamble on the next occasion after a timeout.
    fn poll_rach(&mut self, ex: &mut Executive<Ev>, now: SimTime, i: usize) {
        let Some(rach) = &mut self.ues[i].rach else {
            return;
        };
        match rach.proc.poll(now) {
            RachState::Idle if !rach.try_pending => {
                let ssb = self.cfg.ssb(rach.target);
                let at = self.cfg.prach.next_occasion(&ssb, now, rach.ssb_beam);
                rach.try_pending = true;
                ex.schedule_at(at, Ev::RachTry { ue: i as u32 });
            }
            RachState::Failed => {
                self.obs.on_rach_failed(i, now, false);
                self.abort_rach(ex, now, i);
            }
            _ => {}
        }
    }

    fn complete_handover(&mut self, now: SimTime, i: usize) {
        let Some(rach) = self.ues[i].rach.take() else {
            return;
        };
        let ue = &mut self.ues[i];
        let hard_penalty = match ue.proto.kind() {
            ProtocolKind::Reactive => self.cfg.hard_handover_penalty,
            ProtocolKind::SilentTracker => SimDuration::ZERO,
        };
        // Interruption accounting: make-before-break pays only the access
        // exchange; a post-RLF handover pays the whole outage.
        let soft = matches!(ue.handover_reason, Some(HandoverReason::NeighborStronger));
        let start = if soft {
            ue.trigger_at
        } else {
            ue.rlf_at.or(ue.trigger_at)
        };
        // The raw handover timeline, recorded into the trace for autopsy
        // refolds and handed to the observer for attribution.
        let marks = start.map(|s| InterruptionMarks {
            ue: ue.id,
            from_cell: ue.serving as u16,
            to_cell: rach.target as u16,
            reason_rlf: !soft && ue.rlf_at.is_some(),
            dynamics: self.cfg.dynamics.is_some(),
            start: s,
            trigger: ue.trigger_at.unwrap_or(s),
            first_tx: rach.first_tx,
            msg3: rach.msg3_at,
            backhaul_ns: rach.backhaul_ns,
            connected: now,
            penalty_ns: hard_penalty.as_nanos(),
            rach_rounds: rach.proc.attempts(),
        });
        if let Some(m) = &marks {
            ue.proto.record_marks(m);
        }
        let done = HandoverDone {
            target: rach.target,
            done_at: now + hard_penalty,
            marks,
        };
        self.obs.on_handover(i, now, &done, &ue.proto);

        ue.serving = rach.target;
        // The target BS served the whole RACH exchange on the SSB beam
        // the UE accessed through — that beam, not the spawn-era one, is
        // what it keeps transmitting on after admission. (Without this,
        // a fast-moving UE could be handed over straight into a spurious
        // RLF on a stale transmit beam.)
        ue.bs_tx_beam[rach.target] = rach.ssb_beam;
        // Re-anchor the protocol on the new serving cell with the access
        // beam as the serving beam (the session continues — this is what
        // the context transfer bought); the protocol itself restarts cold.
        ue.proto.reanchor(CellId(rach.target as u16), rach.rx_beam);
        ue.rlf_declared = false;
        ue.rlf_count = 0;
        ue.handover_reason = None;
        ue.trigger_at = None;
        ue.rlf_at = None;
    }

    // ----- protocol actions -------------------------------------------------

    /// Fold `input` into UE `i`'s protocol and apply the actions it
    /// emits.
    fn feed(&mut self, ex: &mut Executive<Ev>, now: SimTime, i: usize, input: ProtocolEvent) {
        self.ues[i].proto.handle(input);
        // Applying an action never folds another event, so the buffer can
        // be lent out while the actions are applied.
        let mut actions = std::mem::take(&mut self.ues[i].proto.actions);
        for a in actions.drain(..) {
            self.obs.on_action(i, now, &a, &self.ues[i].proto);
            match a {
                Action::SendToServing(pdu) => {
                    let serving = self.ues[i].serving;
                    self.send_to_bs(ex, now, i, serving, pdu);
                }
                Action::ExecuteHandover(d) => self.start_rach(ex, now, i, d),
                Action::SetServingRxBeam(_)
                | Action::SetGapRxBeam(_)
                | Action::SearchFailed { .. }
                | Action::NeighborAcquired(_) => {}
            }
        }
        self.ues[i].proto.actions = actions;
    }

    /// Start random access towards the directive's target — the old
    /// serving cell included, which is how a reactive UE re-establishes
    /// after RLF.
    fn start_rach(&mut self, ex: &mut Executive<Ev>, now: SimTime, i: usize, d: HandoverDirective) {
        let ue = &mut self.ues[i];
        if ue.rach.is_some() {
            return;
        }
        ue.trigger_at = Some(now);
        ue.handover_reason = Some(d.reason);
        let target = d.target.0 as usize;
        let proc = RachProcedure::new(self.cfg.rach, ue.uid, ue.context_token());
        let ssb = self.cfg.ssb(target);
        let at = self.cfg.prach.next_occasion(&ssb, now, d.ssb_beam);
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
        self.obs.on_rach_start(i, now, &d);
    }
}
