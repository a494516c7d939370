//! Unit tests folding both protocol arms through hand-crafted
//! measurement sequences: Silent Tracker through every Fig. 2b edge, and
//! the reactive hard-handover baseline through its outage path. Each
//! test drives [`SilentState::handle`] or [`ReactiveState::handle`]
//! through a [`Fixture`]: the protocol context, one arm's state, and a
//! `handle` that folds one event and returns its actions.

use std::ops::Deref;

use super::config::TrackerConfig;
use super::machine::{
    Action, HandoverReason, ProtocolCtx, ProtocolEvent, ReactiveState, SilentState,
};
use super::search::Discovery;
use super::state::{Edge, TrackerState};
use st_des::{SimDuration, SimTime};
use st_mac::pdu::{CellId, Pdu, UeId};
use st_phy::codebook::{BeamId, BeamwidthClass, Codebook};
use st_phy::units::Dbm;

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// One protocol instance under test: UE 1 served by cell 0.
struct Fixture<S> {
    ctx: ProtocolCtx,
    st: S,
}

impl<S> Deref for Fixture<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.st
    }
}

impl Fixture<SilentState> {
    fn silent(cfg: TrackerConfig, class: BeamwidthClass, serving_rx: BeamId) -> Self {
        let ctx = ProtocolCtx::new(cfg, UeId(1), CellId(0), Codebook::for_class(class));
        let st = SilentState::initial(&ctx, serving_rx);
        Fixture { ctx, st }
    }

    fn handle(&mut self, ev: ProtocolEvent) -> Vec<Action> {
        let mut out = Vec::new();
        self.st.handle(&self.ctx, &ev, &mut out);
        out
    }

    fn gap_rx_beam(&self) -> BeamId {
        self.st.gap_rx_beam(&self.ctx.codebook)
    }
}

impl Fixture<ReactiveState> {
    fn reactive(cfg: TrackerConfig, class: BeamwidthClass, serving_rx: BeamId) -> Self {
        let ctx = ProtocolCtx::new(cfg, UeId(1), CellId(0), Codebook::for_class(class));
        let st = ReactiveState::initial(&ctx, serving_rx);
        Fixture { ctx, st }
    }

    fn handle(&mut self, ev: ProtocolEvent) -> Vec<Action> {
        let mut out = Vec::new();
        self.st.handle(&self.ctx, &ev, &mut out);
        out
    }
}

/// Paper defaults with exact arithmetic (no EWMA smoothing).
fn exact_config() -> TrackerConfig {
    TrackerConfig {
        ewma_alpha: 1.0,
        ..TrackerConfig::paper_defaults()
    }
}

fn tracker() -> Fixture<SilentState> {
    Fixture::silent(exact_config(), BeamwidthClass::Narrow, BeamId(4))
}

/// Walk the tracker through neighbor acquisition: dwell on the search
/// beam, hear cell 1's SSB, then ride through the (empty) P3 refinement
/// dwells until the acquisition is reported.
fn acquire_neighbor(tr: &mut Fixture<SilentState>, ms: u64, rss: f64) -> Discovery {
    let rx = tr.gap_rx_beam();
    tr.handle(ProtocolEvent::NeighborSsb {
        at: t(ms),
        cell: CellId(1),
        tx_beam: 2,
        rx_beam: rx,
        rss: Dbm(rss),
    });
    let mut all = Vec::new();
    for k in 1..=4 {
        let acts = tr.handle(ProtocolEvent::DwellComplete { at: t(ms + k) });
        for a in &acts {
            if let Action::NeighborAcquired(d) = a {
                return *d;
            }
        }
        all.extend(acts);
    }
    panic!("acquisition failed: {all:?}");
}

#[test]
fn starts_in_nar_with_search_beam_hinted() {
    let tr = tracker();
    assert_eq!(tr.fig2b_state(), TrackerState::NAr);
    // Spiral search starts at the serving rx beam.
    assert_eq!(tr.gap_rx_beam(), BeamId(4));
    assert_eq!(tr.neighbor_log().count_edge(Edge::B), 1);
}

#[test]
fn edge_c_acquisition_enters_nrba() {
    let mut tr = tracker();
    let d = acquire_neighbor(&mut tr, 10, -70.0);
    assert_eq!(tr.fig2b_state(), TrackerState::NRba);
    assert_eq!(tr.tracked(), Some((CellId(1), 2, d.rx_beam)));
    assert_eq!(tr.stats().searches_succeeded, 1);
    assert_eq!(tr.neighbor_log().count_edge(Edge::C), 1);
    assert!(tr.neighbor_log().is_contiguous());
}

#[test]
fn serving_cell_ssb_is_not_a_neighbor() {
    let mut tr = tracker();
    let rx = tr.gap_rx_beam();
    tr.handle(ProtocolEvent::NeighborSsb {
        at: t(5),
        cell: CellId(0), // serving
        tx_beam: 1,
        rx_beam: rx,
        rss: Dbm(-60.0),
    });
    let acts = tr.handle(ProtocolEvent::DwellComplete { at: t(6) });
    assert!(acts
        .iter()
        .all(|a| !matches!(a, Action::NeighborAcquired(_))));
    assert_eq!(tr.fig2b_state(), TrackerState::NAr);
}

#[test]
fn search_advances_through_spiral_and_fails_at_budget() {
    let cfg = TrackerConfig {
        max_search_dwells: 3,
        ..TrackerConfig::paper_defaults()
    };
    let mut tr = Fixture::silent(cfg, BeamwidthClass::Narrow, BeamId(0));
    let b0 = tr.gap_rx_beam();
    tr.handle(ProtocolEvent::DwellComplete { at: t(20) });
    let b1 = tr.gap_rx_beam();
    assert_ne!(b0, b1);
    tr.handle(ProtocolEvent::DwellComplete { at: t(40) });
    let acts = tr.handle(ProtocolEvent::DwellComplete { at: t(60) });
    assert!(acts
        .iter()
        .any(|a| matches!(a, Action::SearchFailed { dwells_used: 3 })));
    // Restarted automatically: still searching (A then B edges logged).
    assert_eq!(tr.fig2b_state(), TrackerState::NAr);
    assert_eq!(tr.stats().searches_failed, 1);
    assert_eq!(tr.neighbor_log().count_edge(Edge::A), 1);
    assert_eq!(tr.neighbor_log().count_edge(Edge::B), 2);
    assert_eq!(tr.stats().search_dwells, 3);
}

#[test]
fn edge_h_neighbor_rx_switch_on_3db_drop() {
    let mut tr = tracker();
    let d = acquire_neighbor(&mut tr, 10, -70.0);
    // A probe dwell measured an adjacent beam at a comparable level.
    let adjacent = Codebook::for_class(BeamwidthClass::Narrow).adjacent(d.rx_beam);
    tr.handle(ProtocolEvent::NeighborSsb {
        at: t(20),
        cell: CellId(1),
        tx_beam: 2,
        rx_beam: adjacent[0],
        rss: Dbm(-71.0),
    });
    // Feed a 4 dB weaker sample on the tracked beam.
    let acts = tr.handle(ProtocolEvent::NeighborSsb {
        at: t(30),
        cell: CellId(1),
        tx_beam: 2,
        rx_beam: d.rx_beam,
        rss: Dbm(-74.0),
    });
    assert!(acts
        .iter()
        .any(|a| matches!(a, Action::SetGapRxBeam(b) if *b != d.rx_beam)));
    assert_eq!(tr.stats().nrba_switches, 1);
    assert_eq!(tr.neighbor_log().count_edge(Edge::H), 1);
    // Still tracking (self-loop), beam changed.
    assert_eq!(tr.fig2b_state(), TrackerState::NRba);
    let (_, _, rx_now) = tr.tracked().unwrap();
    assert_ne!(rx_now, d.rx_beam);
}

#[test]
fn edge_h_prefers_probed_adjacent_beam() {
    let mut tr = tracker();
    let d = acquire_neighbor(&mut tr, 10, -70.0);
    let adjacent = Codebook::for_class(BeamwidthClass::Narrow).adjacent(d.rx_beam);
    // Probe: second adjacent beam is strong.
    tr.handle(ProtocolEvent::NeighborSsb {
        at: t(20),
        cell: CellId(1),
        tx_beam: 2,
        rx_beam: adjacent[1],
        rss: Dbm(-69.0),
    });
    // Drop on the tracked beam.
    tr.handle(ProtocolEvent::NeighborSsb {
        at: t(25),
        cell: CellId(1),
        tx_beam: 2,
        rx_beam: d.rx_beam,
        rss: Dbm(-75.0),
    });
    let (_, _, rx_now) = tr.tracked().unwrap();
    assert_eq!(rx_now, adjacent[1], "should pick the probed stronger beam");
}

#[test]
fn edge_d_loss_returns_to_search() {
    let mut tr = tracker();
    let d = acquire_neighbor(&mut tr, 10, -70.0);
    let acts = tr.handle(ProtocolEvent::NeighborSsb {
        at: t(50),
        cell: CellId(1),
        tx_beam: 2,
        rx_beam: d.rx_beam,
        rss: Dbm(-85.0), // 15 dB below reference
    });
    assert_eq!(tr.fig2b_state(), TrackerState::NAr);
    assert_eq!(tr.stats().reacquisitions, 1);
    assert_eq!(tr.neighbor_log().count_edge(Edge::D), 1);
    // Re-acquisition search is hinted at the lost beam.
    assert!(acts
        .iter()
        .any(|a| matches!(a, Action::SetGapRxBeam(b) if *b == d.rx_beam)));
}

#[test]
fn edge_e_handover_when_neighbor_beats_serving_plus_t() {
    let mut tr = tracker();
    // Serving at -70.
    tr.handle(ProtocolEvent::ServingRss {
        at: t(5),
        rss: Dbm(-70.0),
    });
    let d = acquire_neighbor(&mut tr, 10, -75.0);
    // Mature the neighbor estimate (min_track_samples) at a level below
    // the trigger point...
    for ms in [40, 50] {
        tr.handle(ProtocolEvent::NeighborSsb {
            at: t(ms),
            cell: CellId(1),
            tx_beam: 2,
            rx_beam: d.rx_beam,
            rss: Dbm(-75.0),
        });
    }
    // ...then the neighbor improves past serving + 3 dB.
    let acts = tr.handle(ProtocolEvent::NeighborSsb {
        at: t(60),
        cell: CellId(1),
        tx_beam: 2,
        rx_beam: d.rx_beam,
        rss: Dbm(-66.0),
    });
    let ho = acts
        .iter()
        .find_map(|a| match a {
            Action::ExecuteHandover(h) => Some(*h),
            _ => None,
        })
        .expect("handover expected");
    assert_eq!(ho.target, CellId(1));
    assert_eq!(ho.reason, HandoverReason::NeighborStronger);
    assert_eq!(ho.rx_beam, d.rx_beam);
    assert_eq!(tr.handover(), Some(ho));
    assert_eq!(tr.neighbor_log().count_edge(Edge::E), 1);
    // Terminal: further inputs are ignored.
    assert!(tr
        .handle(ProtocolEvent::ServingRss {
            at: t(70),
            rss: Dbm(-90.0)
        })
        .is_empty());
}

/// The paper keeps the target beam aligned "until handover completion":
/// after the directive, random access is still in flight, so the
/// neighbor loop keeps adapting. A 3 dB drop on the tracked beam, with a
/// fresh probe of an adjacent beam at a better level, still switches the
/// receive beam silently (edge H), and the directive stays issued.
#[test]
fn edge_h_keeps_the_target_beam_aligned_after_the_directive() {
    let mut tr = tracker();
    tr.handle(ProtocolEvent::ServingRss {
        at: t(5),
        rss: Dbm(-70.0),
    });
    let d = acquire_neighbor(&mut tr, 10, -75.0);
    let ssb = |ms: u64, rx_beam: BeamId, rss: f64| ProtocolEvent::NeighborSsb {
        at: t(ms),
        cell: CellId(1),
        tx_beam: 2,
        rx_beam,
        rss: Dbm(rss),
    };
    for ms in [40, 50] {
        tr.handle(ssb(ms, d.rx_beam, -75.0));
    }
    let ho = tr
        .handle(ssb(60, d.rx_beam, -66.0))
        .iter()
        .find_map(|a| match a {
            Action::ExecuteHandover(h) => Some(*h),
            _ => None,
        })
        .expect("handover expected");
    assert_eq!(tr.stats().nrba_switches, 0);

    // A probe dwell hears an adjacent beam 1 dB below the tracked level:
    // not enough to move on its own.
    let adjacent = Codebook::for_class(BeamwidthClass::Narrow).adjacent(d.rx_beam);
    assert!(tr.handle(ssb(70, adjacent[0], -67.0)).is_empty());
    // The tracked beam drops 5 dB (4.25 dB below its decayed reference).
    let acts = tr.handle(ssb(80, d.rx_beam, -71.0));
    assert_eq!(acts, [Action::SetGapRxBeam(adjacent[0])]);
    assert_eq!(tr.tracked(), Some((CellId(1), 2, adjacent[0])));
    assert_eq!(tr.stats().nrba_switches, 1);
    assert_eq!(tr.handover(), Some(ho));
    // The neighbor loop logs the switch after the trigger.
    let edges: Vec<Edge> = tr.neighbor_log().iter().map(|(_, tr)| tr.edge).collect();
    assert_eq!(edges[edges.len() - 2..], [Edge::E, Edge::H]);
}

#[test]
fn no_handover_within_hysteresis() {
    let mut tr = tracker();
    tr.handle(ProtocolEvent::ServingRss {
        at: t(5),
        rss: Dbm(-70.0),
    });
    let d = acquire_neighbor(&mut tr, 10, -75.0);
    for ms in [40, 50] {
        tr.handle(ProtocolEvent::NeighborSsb {
            at: t(ms),
            cell: CellId(1),
            tx_beam: 2,
            rx_beam: d.rx_beam,
            rss: Dbm(-75.0),
        });
    }
    // Neighbor at -68: better than serving but within T = 3 dB, and the
    // estimate is mature — still no trigger.
    let acts = tr.handle(ProtocolEvent::NeighborSsb {
        at: t(60),
        cell: CellId(1),
        tx_beam: 2,
        rx_beam: d.rx_beam,
        rss: Dbm(-68.0),
    });
    assert!(acts
        .iter()
        .all(|a| !matches!(a, Action::ExecuteHandover(_))));
    assert!(tr.handover().is_none());

    // An immature estimate must not trigger even when it beats serving:
    // a fresh tracker with one strong sample right at acquisition holds.
    let mut tr2 = tracker();
    tr2.handle(ProtocolEvent::ServingRss {
        at: t(5),
        rss: Dbm(-70.0),
    });
    let d2 = acquire_neighbor(&mut tr2, 10, -60.0);
    assert!(
        tr2.handover().is_none(),
        "immature estimate triggered handover at acquisition: {d2:?}"
    );
}

#[test]
fn serving_lost_with_tracked_beam_hands_over() {
    let mut tr = tracker();
    let d = acquire_neighbor(&mut tr, 10, -75.0);
    let acts = tr.handle(ProtocolEvent::ServingLinkLost { at: t(90) });
    let ho = acts
        .iter()
        .find_map(|a| match a {
            Action::ExecuteHandover(h) => Some(*h),
            _ => None,
        })
        .expect("handover on serving loss");
    assert_eq!(ho.reason, HandoverReason::ServingLost);
    assert_eq!(ho.rx_beam, d.rx_beam);
}

#[test]
fn rach_failure_reacquires_and_retriggers() {
    let mut tr = tracker();
    tr.handle(ProtocolEvent::ServingRss {
        at: t(5),
        rss: Dbm(-70.0),
    });
    let d = acquire_neighbor(&mut tr, 10, -75.0);
    tr.handle(ProtocolEvent::ServingLinkLost { at: t(90) });
    assert!(tr.handover().is_some());

    // Random access against the tracked beam fails permanently: the
    // directive is revoked and a hinted re-acquisition starts.
    let acts = tr.handle(ProtocolEvent::RachFailed { at: t(200) });
    assert!(tr.handover().is_none(), "directive must be revoked");
    assert_eq!(tr.fig2b_state(), TrackerState::NAr);
    assert!(acts.iter().any(|a| matches!(a, Action::SetGapRxBeam(_))));
    assert_eq!(tr.stats().reacquisitions, 1);

    // The serving link is still dead, so the next acquisition hands
    // over immediately instead of waiting for an edge-E comparison
    // against the stale serving EWMA.
    let rx = tr.gap_rx_beam();
    tr.handle(ProtocolEvent::NeighborSsb {
        at: t(250),
        cell: CellId(1),
        tx_beam: 2,
        rx_beam: rx,
        rss: Dbm(-72.0),
    });
    let mut ho = None;
    for k in 1..=4 {
        let acts = tr.handle(ProtocolEvent::DwellComplete { at: t(250 + k) });
        ho = ho.or(acts.iter().find_map(|a| match a {
            Action::ExecuteHandover(h) => Some(*h),
            _ => None,
        }));
    }
    let ho = ho.expect("re-acquisition must re-issue the handover");
    assert_eq!(ho.reason, HandoverReason::ServingLost);
    assert_eq!(ho.rx_beam, d.rx_beam, "hinted search finds the same beam");
    assert_eq!(tr.handover(), Some(ho));
}

#[test]
fn rach_failure_before_serving_loss_keeps_edge_e_gating() {
    let mut tr = tracker();
    tr.handle(ProtocolEvent::ServingRss {
        at: t(5),
        rss: Dbm(-70.0),
    });
    let _ = acquire_neighbor(&mut tr, 10, -60.0);
    // Trigger-driven handover (mature the estimate first).
    for ms in [40, 50, 60] {
        tr.handle(ProtocolEvent::NeighborSsb {
            at: t(ms),
            cell: CellId(1),
            tx_beam: 2,
            rx_beam: tr.tracked().unwrap().2,
            rss: Dbm(-60.0),
        });
    }
    assert!(tr.handover().is_some());
    // Failed access with the serving link alive: back to searching, and
    // a fresh acquisition does NOT hand over on its own — the edge-E
    // comparison (with maturity) must be re-earned.
    tr.handle(ProtocolEvent::RachFailed { at: t(100) });
    assert!(tr.handover().is_none());
    let rx = tr.gap_rx_beam();
    tr.handle(ProtocolEvent::NeighborSsb {
        at: t(120),
        cell: CellId(1),
        tx_beam: 2,
        rx_beam: rx,
        rss: Dbm(-60.0),
    });
    for k in 1..=4 {
        tr.handle(ProtocolEvent::DwellComplete { at: t(120 + k) });
    }
    assert!(tr.tracked().is_some(), "re-acquired");
    assert!(
        tr.handover().is_none(),
        "immature re-acquisition must not re-trigger instantly"
    );
}

#[test]
fn serving_recovery_clears_the_rlf_latch() {
    let mut tr = tracker();
    tr.handle(ProtocolEvent::ServingRss {
        at: t(5),
        rss: Dbm(-70.0),
    });
    // RLF with nothing tracked: latched, silent.
    tr.handle(ProtocolEvent::ServingLinkLost { at: t(50) });
    // The serving link comes back before anything is acquired.
    tr.handle(ProtocolEvent::ServingRss {
        at: t(80),
        rss: Dbm(-65.0),
    });
    // A later acquisition must NOT auto-handover on the stale latch.
    let _ = acquire_neighbor(&mut tr, 100, -75.0);
    assert!(
        tr.handover().is_none(),
        "recovered serving link must restore edge-E gating"
    );
}

#[test]
fn serving_lost_without_tracked_beam_is_silent_failure() {
    let mut tr = tracker();
    let acts = tr.handle(ProtocolEvent::ServingLinkLost { at: t(90) });
    assert!(acts.is_empty());
    assert!(tr.handover().is_none());
}

#[test]
fn edge_g_serving_drop_switches_rx_beam() {
    let mut tr = tracker();
    // A fresh probe shows the adjacent beam is viable.
    let adjacent = Codebook::for_class(BeamwidthClass::Narrow).adjacent(BeamId(4));
    tr.handle(ProtocolEvent::ServingProbe {
        at: t(1),
        rx_beam: adjacent[0],
        rss: Dbm(-61.0),
    });
    tr.handle(ProtocolEvent::ServingRss {
        at: t(2),
        rss: Dbm(-60.0),
    });
    let acts = tr.handle(ProtocolEvent::ServingRss {
        at: t(10),
        rss: Dbm(-64.0),
    });
    assert!(acts
        .iter()
        .any(|a| matches!(a, Action::SetServingRxBeam(_))));
    assert_eq!(tr.fig2b_state(), TrackerState::SRba);
    assert_eq!(tr.stats().srba_switches, 1);
    assert_ne!(tr.serving_rx_beam(), BeamId(4));
    assert_eq!(tr.serving_log().count_edge(Edge::G), 1);
}

#[test]
fn serving_drop_without_probe_evidence_holds_beam() {
    let mut tr = tracker();
    tr.handle(ProtocolEvent::ServingRss {
        at: t(0),
        rss: Dbm(-60.0),
    });
    // 4 dB drop but no probe has measured any adjacent beam: switching
    // blindly would add misalignment loss, so the beam is held (the
    // machine still enters S-RBA and can escalate to CABM).
    let acts = tr.handle(ProtocolEvent::ServingRss {
        at: t(10),
        rss: Dbm(-64.0),
    });
    assert!(acts
        .iter()
        .all(|a| !matches!(a, Action::SetServingRxBeam(_))));
    assert_eq!(tr.fig2b_state(), TrackerState::SRba);
    assert_eq!(tr.serving_rx_beam(), BeamId(4));
}

#[test]
fn serving_probe_guides_the_switch() {
    let mut tr = tracker();
    let adjacent = Codebook::for_class(BeamwidthClass::Narrow).adjacent(BeamId(4));
    tr.handle(ProtocolEvent::ServingProbe {
        at: t(1),
        rx_beam: adjacent[1],
        rss: Dbm(-58.0),
    });
    tr.handle(ProtocolEvent::ServingRss {
        at: t(2),
        rss: Dbm(-60.0),
    });
    tr.handle(ProtocolEvent::ServingRss {
        at: t(10),
        rss: Dbm(-65.0),
    });
    assert_eq!(tr.serving_rx_beam(), adjacent[1]);
}

#[test]
fn edge_a_recovery_returns_to_eo() {
    let mut tr = tracker();
    tr.handle(ProtocolEvent::ServingRss {
        at: t(0),
        rss: Dbm(-60.0),
    });
    tr.handle(ProtocolEvent::ServingRss {
        at: t(10),
        rss: Dbm(-64.0),
    }); // → S-RBA
    let acts = tr.handle(ProtocolEvent::ServingRss {
        at: t(20),
        rss: Dbm(-60.5),
    }); // recovered within 3 dB of reference
    assert!(acts.is_empty());
    // Serving loop back to Stable; neighbor loop still searching → N-A/R.
    assert_eq!(tr.fig2b_state(), TrackerState::NAr);
    assert_eq!(tr.serving_log().count_edge(Edge::A), 1);
    assert!(tr.serving_log().is_contiguous());
}

#[test]
fn escalation_to_cabm_after_settle_time() {
    let mut tr = tracker();
    tr.handle(ProtocolEvent::ServingRss {
        at: t(0),
        rss: Dbm(-60.0),
    });
    tr.handle(ProtocolEvent::ServingRss {
        at: t(10),
        rss: Dbm(-64.0),
    }); // → S-RBA at t=10
        // Still bad after settle_time (40 ms).
    let acts = tr.handle(ProtocolEvent::ServingRss {
        at: t(55),
        rss: Dbm(-65.0),
    });
    let req = acts
        .iter()
        .find_map(|a| match a {
            Action::SendToServing(p) => Some(p.clone()),
            _ => None,
        })
        .expect("CABM request");
    assert!(matches!(
        req,
        Pdu::BeamSwitchRequest {
            cell: CellId(0),
            ue: UeId(1),
            ..
        }
    ));
    assert_eq!(tr.fig2b_state(), TrackerState::Cabm);
    assert_eq!(tr.stats().cabm_requests, 1);
}

#[test]
fn edge_f_assistance_restores_eo() {
    let mut tr = tracker();
    tr.handle(ProtocolEvent::ServingRss {
        at: t(0),
        rss: Dbm(-60.0),
    });
    tr.handle(ProtocolEvent::ServingRss {
        at: t(10),
        rss: Dbm(-64.0),
    });
    tr.handle(ProtocolEvent::ServingRss {
        at: t(55),
        rss: Dbm(-65.0),
    }); // → CABM
    tr.handle(ProtocolEvent::FromServing {
        at: t(60),
        pdu: Pdu::BeamSwitchCommand {
            cell: CellId(0),
            tx_beam: 3,
        },
    });
    assert_eq!(tr.serving_log().count_edge(Edge::F), 1);
    // Serving loop stable again (state shows the neighbor loop's N-A/R).
    assert_eq!(tr.fig2b_state(), TrackerState::NAr);
}

#[test]
fn edge_g_assist_timeout_falls_back_to_srba() {
    let mut tr = tracker();
    tr.handle(ProtocolEvent::ServingRss {
        at: t(0),
        rss: Dbm(-60.0),
    });
    tr.handle(ProtocolEvent::ServingRss {
        at: t(10),
        rss: Dbm(-64.0),
    });
    tr.handle(ProtocolEvent::ServingRss {
        at: t(55),
        rss: Dbm(-65.0),
    }); // → CABM, deadline t=115
    tr.handle(ProtocolEvent::Tick { at: t(120) });
    assert_eq!(tr.fig2b_state(), TrackerState::SRba);
    assert_eq!(tr.stats().assist_lost, 1);
    // CABM → S-RBA logged as edge G.
    assert!(tr.serving_log().iter().any(|(_, tr)| tr.edge == Edge::G
        && tr.from == TrackerState::Cabm
        && tr.to == TrackerState::SRba));
}

#[test]
fn wrong_cell_beam_switch_command_ignored() {
    let mut tr = tracker();
    tr.handle(ProtocolEvent::ServingRss {
        at: t(0),
        rss: Dbm(-60.0),
    });
    tr.handle(ProtocolEvent::ServingRss {
        at: t(10),
        rss: Dbm(-64.0),
    });
    tr.handle(ProtocolEvent::ServingRss {
        at: t(55),
        rss: Dbm(-65.0),
    }); // → CABM
    tr.handle(ProtocolEvent::FromServing {
        at: t(60),
        pdu: Pdu::BeamSwitchCommand {
            cell: CellId(9),
            tx_beam: 3,
        },
    });
    assert_eq!(
        tr.fig2b_state(),
        TrackerState::Cabm,
        "foreign command must not clear CABM"
    );
}

#[test]
fn tracking_dwell_cycle_interleaves_adjacent_probes() {
    let mut tr = tracker();
    let d = acquire_neighbor(&mut tr, 10, -70.0);
    let adjacent = Codebook::for_class(BeamwidthClass::Narrow).adjacent(d.rx_beam);
    let mut seen = Vec::new();
    for i in 0..6 {
        tr.handle(ProtocolEvent::DwellComplete { at: t(20 + i * 20) });
        seen.push(tr.gap_rx_beam());
    }
    // Pattern alternates tracked / adjacent.
    assert!(seen.contains(&d.rx_beam));
    assert!(adjacent.iter().any(|a| seen.contains(a)));
    // Tracked beam appears at least half the time.
    let tracked_count = seen.iter().filter(|&&b| b == d.rx_beam).count();
    assert!(tracked_count >= 3, "{seen:?}");
}

#[test]
fn third_cell_detections_do_not_disturb_tracking() {
    let mut tr = tracker();
    let d = acquire_neighbor(&mut tr, 10, -70.0);
    tr.handle(ProtocolEvent::NeighborSsb {
        at: t(30),
        cell: CellId(7),
        tx_beam: 0,
        rx_beam: d.rx_beam,
        rss: Dbm(-50.0),
    });
    assert_eq!(tr.tracked().unwrap().0, CellId(1));
    assert!(tr.handover().is_none());
}

#[test]
fn tx_beam_follows_strongest_ssb_of_tracked_cell() {
    let mut tr = tracker();
    let d = acquire_neighbor(&mut tr, 10, -70.0);
    // A different tx beam of the same cell becomes stronger.
    tr.handle(ProtocolEvent::NeighborSsb {
        at: t(30),
        cell: CellId(1),
        tx_beam: 3,
        rx_beam: d.rx_beam,
        rss: Dbm(-67.0),
    });
    assert_eq!(tr.tracked().unwrap().1, 3);
}

#[test]
fn omni_codebook_never_switches_beams() {
    let mut tr = Fixture::silent(exact_config(), BeamwidthClass::Omni, BeamId(0));
    tr.handle(ProtocolEvent::ServingRss {
        at: t(0),
        rss: Dbm(-60.0),
    });
    let acts = tr.handle(ProtocolEvent::ServingRss {
        at: t(10),
        rss: Dbm(-70.0),
    });
    assert!(acts
        .iter()
        .all(|a| !matches!(a, Action::SetServingRxBeam(_))));
    assert_eq!(tr.stats().srba_switches, 0);
}

/// The reactive hard-handover baseline: no neighbor activity until the
/// serving link fails, then a cold full search and context-free access.
mod reactive {
    use super::*;

    fn reactive() -> Fixture<ReactiveState> {
        Fixture::reactive(exact_config(), BeamwidthClass::Narrow, BeamId(4))
    }

    #[test]
    fn no_neighbor_activity_while_connected() {
        let mut r = reactive();
        r.handle(ProtocolEvent::ServingRss {
            at: t(0),
            rss: Dbm(-60.0),
        });
        // SSBs from a neighbor are ignored entirely.
        let acts = r.handle(ProtocolEvent::NeighborSsb {
            at: t(5),
            cell: CellId(1),
            tx_beam: 1,
            rx_beam: BeamId(4),
            rss: Dbm(-50.0),
        });
        assert!(acts.is_empty());
        let acts = r.handle(ProtocolEvent::DwellComplete { at: t(6) });
        assert!(acts.is_empty());
        assert!(!r.in_outage());
        assert_eq!(r.search_dwells(), 0);
    }

    #[test]
    fn serving_beam_management_still_runs() {
        let mut r = reactive();
        r.handle(ProtocolEvent::ServingRss {
            at: t(0),
            rss: Dbm(-60.0),
        });
        let acts = r.handle(ProtocolEvent::ServingRss {
            at: t(10),
            rss: Dbm(-65.0),
        });
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SetServingRxBeam(_))));
        assert_eq!(r.srba_switches(), 1);
    }

    #[test]
    fn failure_starts_cold_search_then_hands_over() {
        let mut r = reactive();
        r.handle(ProtocolEvent::ServingRss {
            at: t(0),
            rss: Dbm(-60.0),
        });
        let acts = r.handle(ProtocolEvent::ServingLinkLost { at: t(100) });
        assert!(acts.iter().any(|a| matches!(a, Action::SetGapRxBeam(_))));
        assert!(r.in_outage());
        assert_eq!(r.failed_at(), Some(t(100)));
        // Two empty dwells, then a detection.
        r.handle(ProtocolEvent::DwellComplete { at: t(120) });
        r.handle(ProtocolEvent::DwellComplete { at: t(140) });
        let beam = r.gap_rx_beam();
        r.handle(ProtocolEvent::NeighborSsb {
            at: t(150),
            cell: CellId(1),
            tx_beam: 6,
            rx_beam: beam,
            rss: Dbm(-70.0),
        });
        // Detection dwell plus the two (empty) P3 refinement dwells.
        let mut ho = None;
        for k in 0..3 {
            let acts = r.handle(ProtocolEvent::DwellComplete {
                at: t(160 + k * 20),
            });
            ho = ho.or(acts.iter().find_map(|a| match a {
                Action::ExecuteHandover(h) => Some(*h),
                _ => None,
            }));
        }
        let ho = ho.expect("handover");
        assert_eq!(ho.target, CellId(1));
        assert_eq!(ho.reason, HandoverReason::ServingLost);
        assert_eq!(r.search_dwells(), 5);
        assert!(!r.in_outage());
    }

    #[test]
    fn failed_sweep_restarts() {
        let cfg = TrackerConfig {
            max_search_dwells: 2,
            ..exact_config()
        };
        let mut r = Fixture::reactive(cfg, BeamwidthClass::Wide, BeamId(0));
        r.handle(ProtocolEvent::ServingLinkLost { at: t(0) });
        r.handle(ProtocolEvent::DwellComplete { at: t(20) });
        let acts = r.handle(ProtocolEvent::DwellComplete { at: t(40) });
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SearchFailed { dwells_used: 2 })));
        assert!(r.in_outage(), "keeps sweeping after a failed pass");
        assert_eq!(r.search_dwells(), 2);
    }

    #[test]
    fn second_failure_event_ignored() {
        let mut r = reactive();
        r.handle(ProtocolEvent::ServingLinkLost { at: t(10) });
        let before = r.failed_at();
        r.handle(ProtocolEvent::ServingLinkLost { at: t(50) });
        assert_eq!(r.failed_at(), before);
    }
}
