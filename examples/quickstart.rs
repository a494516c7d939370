//! Quickstart: drive the Silent Tracker protocol by hand, then run one
//! full simulated cell-edge walk.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use silent_tracker::{Action, ProtocolCtx, ProtocolEvent, SilentState, TrackerConfig};
use st_des::{SimDuration, SimTime};
use st_mac::pdu::{CellId, UeId};
use st_net::scenarios::{eval_config, human_walk};
use st_net::ProtocolKind;
use st_phy::codebook::{BeamId, BeamwidthClass, Codebook};
use st_phy::units::Dbm;

fn main() {
    part1_protocol_by_hand();
    part2_simulated_walk();
}

/// Fold one event into the protocol state and return the actions it
/// emits.
fn fold(ctx: &ProtocolCtx, state: &mut SilentState, event: ProtocolEvent) -> Vec<Action> {
    let mut actions = Vec::new();
    state.handle(ctx, &event, &mut actions);
    actions
}

/// Fold a handful of in-band RSS samples into the protocol and watch it
/// react — no simulator involved. A protocol instance is an immutable
/// context plus a plain state value.
fn part1_protocol_by_hand() {
    println!("== Part 1: the protocol engine, by hand ==\n");
    let ctx = ProtocolCtx::new(
        TrackerConfig::paper_defaults(),
        UeId(1),
        CellId(0),
        Codebook::for_class(BeamwidthClass::Narrow),
    );
    let mut tracker = SilentState::initial(&ctx, BeamId(4));
    let t = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);

    println!(
        "state at start: {} (searching for a neighbor)",
        tracker.fig2b_state()
    );

    // Healthy serving link: nothing to do.
    let acts = fold(
        &ctx,
        &mut tracker,
        ProtocolEvent::ServingRss {
            at: t(5),
            rss: Dbm(-62.0),
        },
    );
    println!("healthy serving sample  -> {} actions", acts.len());

    // A neighbor SSB heard during a measurement gap on the search beam.
    // Acquisition is not instant: the detection kicks off a short P3
    // receive-beam refinement (one dwell per adjacent beam), so we keep
    // completing dwells until the acquisition is reported.
    let rx = tracker.gap_rx_beam(&ctx.codebook);
    fold(
        &ctx,
        &mut tracker,
        ProtocolEvent::NeighborSsb {
            at: t(20),
            cell: CellId(1),
            tx_beam: 3,
            rx_beam: rx,
            rss: Dbm(-70.0),
        },
    );
    let mut dwell_ms = 22;
    'acquiring: for _ in 0..4 {
        let acts = fold(
            &ctx,
            &mut tracker,
            ProtocolEvent::DwellComplete { at: t(dwell_ms) },
        );
        dwell_ms += 20;
        for a in &acts {
            if let Action::NeighborAcquired(d) = a {
                println!(
                    "acquired neighbor {} (tx beam {}, rx {})",
                    d.cell, d.tx_beam, d.rx_beam
                );
                break 'acquiring;
            }
        }
    }
    println!("state now: {} (silently tracking)", tracker.fig2b_state());

    // Mature the neighbor estimate (edge E requires a few samples —
    // one strong SSB at acquisition is not yet evidence)...
    let tracked_rx = tracker.tracked().unwrap().2;
    for ms in [80, 100] {
        fold(
            &ctx,
            &mut tracker,
            ProtocolEvent::NeighborSsb {
                at: t(ms),
                cell: CellId(1),
                tx_beam: 3,
                rx_beam: tracked_rx,
                rss: Dbm(-60.0),
            },
        );
    }
    // ...then the neighbor grows clearly stronger than serving + 3 dB
    // (the EWMA has to cross the hysteresis, not one raw sample): trigger.
    let acts = fold(
        &ctx,
        &mut tracker,
        ProtocolEvent::NeighborSsb {
            at: t(120),
            cell: CellId(1),
            tx_beam: 3,
            rx_beam: tracked_rx,
            rss: Dbm(-50.0),
        },
    );
    for a in &acts {
        if let Action::ExecuteHandover(h) = a {
            println!(
                "handover trigger: target {} on its beam {} with rx {} ({:?})\n",
                h.target, h.ssb_beam, h.rx_beam, h.reason
            );
        }
    }
}

/// Run the full simulated human-walk scenario and print the milestone
/// trace plus the outcome summary.
fn part2_simulated_walk() {
    println!("== Part 2: one simulated cell-edge walk (seed 42) ==\n");
    let cfg = eval_config(ProtocolKind::SilentTracker);
    let (outcome, trace) = human_walk(&cfg, 42).run_traced();
    for e in trace.at_level(st_des::TraceLevel::Info) {
        println!("{e}");
    }
    println!();
    if let Some(t) = outcome.acquired_at {
        println!("neighbor acquired at   {t}");
    }
    if let Some(t) = outcome.handover_complete_at {
        println!("handover complete at   {t}");
    }
    if let Some(i) = outcome.interruption {
        println!("service interruption   {i}");
    }
    if let Some(f) = outcome.alignment_fraction() {
        println!("beam aligned           {:.0}% of tracked time", f * 100.0);
    }
    if let Some(stats) = outcome.tracker_stats {
        println!(
            "switches: serving {}, neighbor(silent) {}, CABM requests {}",
            stats.srba_switches, stats.nrba_switches, stats.cabm_requests
        );
    }
}
