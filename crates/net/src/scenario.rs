//! The single trial: one mobile moving through a multi-cell deployment
//! for one seeded run, halting at its first completed handover.
//!
//! A [`Scenario`] is a one-UE run of the shared UE driver
//! ([`crate::driver`]) under the trial's own loop:
//!
//! * channels advance at every event, and the RNG streams keep the
//!   trial's labels, so seeded figures are stable;
//! * with nobody to contend with, a one-group RACH stage resolves each
//!   attempt the instant it arrives;
//! * the run's [`RunOutcome`] (search passes, RSS and alignment series,
//!   handover milestones) and its milestone [`Trace`] come from the
//!   trial's [`Observer`].

use std::sync::Arc;

use silent_tracker::{Action, HandoverDirective};
use st_des::{Control, Executive, RngStreams, SimTime, Trace, TraceLevel};
use st_mac::timing::TxBeamIndex;
use st_mobility::BoxedModel;
use st_phy::codebook::Codebook;
use st_phy::geometry::{Pose, Vec2};
use st_phy::units::Dbm;

use crate::config::{ProtocolKind, ScenarioConfig};
use crate::driver::{responder_config, Driver, Ev, HandoverDone, Observer, UeSetup};
use crate::outcome::{RunOutcome, SearchPass};
use crate::proto::Proto;
use crate::radio::{build_world, LinkSet};
use crate::stage::SharedRachStage;

/// One seeded scenario trial.
pub struct Scenario {
    config: ScenarioConfig,
    mobility: BoxedModel,
}

impl Scenario {
    pub fn new(config: ScenarioConfig, mobility: BoxedModel) -> Scenario {
        config.validate().expect("invalid scenario");
        Scenario { config, mobility }
    }

    /// Run to completion and return the outcome.
    pub fn run(self) -> RunOutcome {
        self.run_traced().0
    }

    /// Run and also return the milestone trace (examples print it).
    pub fn run_traced(self) -> (RunOutcome, Trace) {
        let cfg = self.config;
        let streams = RngStreams::new(cfg.seed);
        let (sites, ue_codebook) = build_world(&cfg);
        let ue = UeSetup {
            id: 0,
            protocol: cfg.protocol,
            mobility: self.mobility,
            serving: cfg.initial_serving,
            rach_rng: streams.stream("rach"),
            fault_rng: streams.stream("fault"),
            links: LinkSet::single_ue(&streams, cfg.channel, sites.len()),
            record: false,
        };
        let mut stage = SharedRachStage::new(cfg.cells.len(), responder_config(&cfg), 1);
        let deadline = SimTime::ZERO + cfg.duration;
        let trial = Trial {
            outcome: RunOutcome::new(cfg.seed),
            trace: Trace::default(),
            pass_dwell_mark: 0,
            codebook: Arc::clone(&ue_codebook),
            cells: cfg.cells.iter().map(|c| c.position).collect(),
        };
        let mut driver = Driver::new(cfg, sites, ue_codebook, None, 0, trial);
        driver.add_ue(ue);

        let mut ex: Executive<Ev> = Executive::new();
        ex.event_budget = 200_000_000;
        driver.start(&mut ex);
        ex.run(deadline, |ex, now, ev| {
            driver.step_channels(now);
            driver.dispatch(ex, now, ev);
            if !driver.outbox().is_empty() {
                stage.ingest(driver.outbox());
                stage.resolve_up_to(now, |_, reply| driver.deliver(ex, &reply));
            }
            if driver.obs.outcome.handover_succeeded() {
                Control::Halt
            } else {
                Control::Continue
            }
        });
        stage.assert_drained();

        let (ues, mut trial) = driver.into_parts();
        if !trial.outcome.handover_succeeded() {
            trial.bank(ues[0].proto());
        }
        (trial.outcome, trial.trace)
    }
}

/// The trial's observer: builds the [`RunOutcome`] and milestone trace.
struct Trial {
    outcome: RunOutcome,
    trace: Trace,
    /// Cumulative dwell count at the end of the previous search pass.
    pass_dwell_mark: u64,
    /// For ground-truth alignment: the UE codebook and cell positions.
    codebook: Arc<Codebook>,
    cells: Vec<Vec2>,
}

impl Trial {
    /// Take the protocol counters from the instance the trial ends on.
    fn bank(&mut self, proto: &Proto) {
        match proto.kind() {
            ProtocolKind::SilentTracker => self.outcome.tracker_stats = proto.stats(),
            ProtocolKind::Reactive => self.outcome.reactive_dwells = Some(proto.search_dwells()),
        }
    }
}

impl Observer for Trial {
    fn on_rlf(&mut self, _i: usize, now: SimTime) {
        self.outcome.rlf_at = Some(now);
        self.trace
            .record(now, TraceLevel::Error, "radio link failure on serving cell");
    }

    fn on_serving_rss(&mut self, _i: usize, now: SimTime, rss: Dbm, proto: &Proto) {
        self.outcome.serving_rss.push(now.as_secs_f64(), rss.0);
        if let Some(n) = proto.neighbor_level() {
            self.outcome.neighbor_rss.push(now.as_secs_f64(), n.0);
        }
    }

    /// Ground-truth alignment bookkeeping for the tracked neighbor beam.
    fn on_burst_done(&mut self, _i: usize, now: SimTime, pose: Pose, proto: &Proto) {
        let Some((cell, _, rx_beam)) = proto.tracked() else {
            return;
        };
        let aoa = pose.local_bearing_to(self.cells[cell.0 as usize]);
        let best = self.codebook.best_beam_towards(aoa);
        let g_best = self.codebook.gain(best, aoa);
        let g_cur = self.codebook.gain(rx_beam, aoa);
        let aligned = (g_best - g_cur).0 <= 3.0;
        self.outcome
            .alignment
            .push(now.as_secs_f64(), if aligned { 1.0 } else { 0.0 });
    }

    fn on_assist(&mut self, _i: usize, now: SimTime, tx_beam: Option<TxBeamIndex>) {
        match tx_beam {
            Some(best) => self.trace.record(
                now,
                TraceLevel::Info,
                format!("serving BS re-training tx beam -> {best}"),
            ),
            None => self
                .trace
                .record(now, TraceLevel::Warn, "cell assistance dropped (fault)"),
        }
    }

    fn on_action(&mut self, _i: usize, now: SimTime, action: &Action, proto: &Proto) {
        match action {
            Action::SetServingRxBeam(b) => {
                self.trace
                    .record(now, TraceLevel::Info, format!("S-RBA switch -> {b}"));
            }
            Action::SearchFailed { dwells_used } => {
                self.outcome.search_passes.push(SearchPass {
                    dwells: *dwells_used,
                    succeeded: false,
                    ended_at: now,
                });
                self.pass_dwell_mark = proto.search_dwells();
                self.trace.record(
                    now,
                    TraceLevel::Warn,
                    format!("search pass failed after {dwells_used} dwells"),
                );
            }
            Action::NeighborAcquired(d) => {
                let total = proto.search_dwells();
                let dwells = (total - self.pass_dwell_mark) as usize;
                self.pass_dwell_mark = total;
                self.outcome.search_passes.push(SearchPass {
                    dwells,
                    succeeded: true,
                    ended_at: now,
                });
                self.outcome.acquired_at.get_or_insert(now);
                self.trace.record(
                    now,
                    TraceLevel::Info,
                    format!(
                        "acquired {} tx{} on rx {} at {}",
                        d.cell, d.tx_beam, d.rx_beam, d.rss
                    ),
                );
            }
            Action::SetGapRxBeam(_) | Action::SendToServing(_) | Action::ExecuteHandover(_) => {}
        }
    }

    fn on_rach_start(&mut self, _i: usize, now: SimTime, d: &HandoverDirective) {
        self.outcome.handover_triggered_at = Some(now);
        self.outcome.handover_reason = Some(d.reason);
        self.trace.record(
            now,
            TraceLevel::Info,
            format!(
                "handover trigger ({:?}) -> cell{} ssb{} rx {}",
                d.reason, d.target.0, d.ssb_beam, d.rx_beam
            ),
        );
    }

    fn on_preamble(&mut self, _i: usize, _now: SimTime, _cell: usize, attempt: u8) {
        self.outcome.rach_attempts = u32::from(attempt);
    }

    fn on_rach_failed(&mut self, _i: usize, now: SimTime, exhausted: bool) {
        let why = if exhausted {
            "RACH attempts exhausted"
        } else {
            "RACH failed permanently"
        };
        self.trace.record(now, TraceLevel::Warn, why);
    }

    fn on_handover(&mut self, _i: usize, now: SimTime, done: &HandoverDone, proto: &Proto) {
        self.outcome.handover_complete_at = Some(done.done_at);
        if let Some(m) = &done.marks {
            self.outcome.interruption = Some(done.done_at.since(m.start));
        }
        self.trace.record(
            now,
            TraceLevel::Info,
            format!(
                "handover complete to cell{} ({} attempts)",
                done.target, self.outcome.rach_attempts
            ),
        );
        self.bank(proto);
    }
}
