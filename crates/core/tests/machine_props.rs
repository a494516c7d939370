//! Property tests of the table-driven protocol core.
//!
//! The whole protocol is the pure fold
//! `step(ctx, state, event) -> (state, actions)` over a plain
//! [`ProtocolState`] value. These tests assert, over arbitrary event
//! streams:
//!
//! 1. **Determinism** — folding the same stream twice produces
//!    byte-identical action streams and final-state encodings (no hidden
//!    inputs).
//! 2. **The trace-compression lemma** — folding
//!    `TickRun{start, period, n}` equals folding its `n` ticks one by
//!    one.

use std::sync::Arc;

use proptest::prelude::*;
use silent_tracker::{
    step_mut, ProtocolCtx, ProtocolEvent, ProtocolState, ReactiveState, SilentState, TrackerConfig,
};
use st_des::{SimDuration, SimTime};
use st_mac::pdu::{CellId, Pdu, UeId};
use st_phy::codebook::{BeamId, BeamwidthClass, Codebook};
use st_phy::units::Dbm;

fn ctx() -> ProtocolCtx {
    ProtocolCtx::new(
        TrackerConfig::paper_defaults(),
        UeId(1),
        CellId(0),
        Arc::new(Codebook::for_class(BeamwidthClass::Narrow)),
    )
}

fn initial(ctx: &ProtocolCtx, silent: bool) -> ProtocolState {
    if silent {
        ProtocolState::Silent(SilentState::initial(ctx, BeamId(0)))
    } else {
        ProtocolState::Reactive(ReactiveState::initial(ctx, BeamId(0)))
    }
}

/// One random protocol event. `ms` spaces events a millisecond apart so
/// timers (hysteresis, staleness, RLF deadlines) actually fire across a
/// generated stream.
fn event(n_beams: u16) -> impl Strategy<Value = ProtocolEvent> {
    let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    prop_oneof![
        (0u64..2000, -90.0..-40.0f64).prop_map(move |(ms, rss)| ProtocolEvent::ServingRss {
            at: at(ms),
            rss: Dbm(rss),
        }),
        (0u64..2000, 0..n_beams, -90.0..-40.0f64).prop_map(move |(ms, b, rss)| {
            ProtocolEvent::ServingProbe {
                at: at(ms),
                rx_beam: BeamId(b),
                rss: Dbm(rss),
            }
        }),
        (0u64..2000, 0u16..3, 0u16..8, 0..n_beams, -95.0..-45.0f64).prop_map(
            move |(ms, cell, tx, rx, rss)| ProtocolEvent::NeighborSsb {
                at: at(ms),
                cell: CellId(cell),
                tx_beam: tx,
                rx_beam: BeamId(rx),
                rss: Dbm(rss),
            }
        ),
        (0u64..2000).prop_map(move |ms| ProtocolEvent::DwellComplete { at: at(ms) }),
        (0u64..2000, any::<u8>(), 0u32..5000).prop_map(move |(ms, preamble, ta)| {
            ProtocolEvent::FromServing {
                at: at(ms),
                pdu: Pdu::RachResponse {
                    preamble,
                    timing_advance_ns: ta,
                    temp_ue: UeId(1),
                },
            }
        }),
        (0u64..2000, 0u16..8).prop_map(move |(ms, tx)| ProtocolEvent::FromServing {
            at: at(ms),
            pdu: Pdu::BeamSwitchCommand {
                cell: CellId(0),
                tx_beam: tx,
            },
        }),
        (0u64..2000).prop_map(move |ms| ProtocolEvent::ServingLinkLost { at: at(ms) }),
        (0u64..2000).prop_map(move |ms| ProtocolEvent::RachFailed { at: at(ms) }),
        (0u64..2000).prop_map(move |ms| ProtocolEvent::Tick { at: at(ms) }),
    ]
}

/// Sort by timestamp so streams look like what a driver emits (the fold
/// itself never goes back in time on live runs).
fn stream(n_beams: u16) -> impl Strategy<Value = Vec<ProtocolEvent>> {
    proptest::collection::vec(event(n_beams), 0..120).prop_map(|mut evs| {
        evs.sort_by_key(|e| e.at());
        evs
    })
}

/// Fold `events` from `state`, returning (encoded final state, encoded
/// action stream).
fn fold(
    ctx: &ProtocolCtx,
    mut state: ProtocolState,
    events: &[ProtocolEvent],
) -> (Vec<u8>, Vec<u8>) {
    let mut out = Vec::new();
    let mut actions = Vec::new();
    for ev in events {
        out.clear();
        step_mut(ctx, &mut state, ev, &mut out);
        for a in &out {
            a.encode(&mut actions);
        }
    }
    let mut final_bytes = Vec::new();
    state.encode(&mut final_bytes);
    (final_bytes, actions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fold is a pure function of (initial state, event stream):
    /// two runs over the same stream are byte-identical.
    #[test]
    fn step_is_deterministic(silent: bool, evs in stream(16)) {
        let c = ctx();
        let n = c.codebook.len() as u16;
        prop_assume!(n >= 16);
        let a = fold(&c, initial(&c, silent), &evs);
        let b = fold(&c, initial(&c, silent), &evs);
        prop_assert_eq!(a, b);
    }

    /// The O(1) tick-run fold equals folding each tick individually —
    /// the soundness lemma behind the tick runs trace replay synthesises.
    #[test]
    fn tick_run_equals_individual_ticks(
        silent: bool,
        evs in stream(16),
        start_ms in 0u64..1500,
        period_us in 1u64..5000,
        count in 1u64..300,
    ) {
        let c = ctx();
        let mut warm = initial(&c, silent);
        let mut out = Vec::new();
        for ev in &evs {
            out.clear();
            step_mut(&c, &mut warm, ev, &mut out);
        }

        let start = SimTime::ZERO + SimDuration::from_millis(start_ms);
        let period = SimDuration::from_micros(period_us);
        let run = ProtocolEvent::TickRun { start, period, count };
        let ticks: Vec<ProtocolEvent> = (0..count)
            .map(|k| ProtocolEvent::Tick { at: start + period * k })
            .collect();

        let compressed = fold(&c, warm.clone(), std::slice::from_ref(&run));
        let individual = fold(&c, warm, &ticks);
        prop_assert_eq!(compressed, individual);
    }
}
