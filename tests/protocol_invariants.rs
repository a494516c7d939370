//! Property-style checks of the protocol invariants from DESIGN.md §3,
//! asserted over full simulated runs (not hand-crafted inputs).

use proptest::prelude::*;
use silent_tracker::{Edge, TrackerState};
use st_net::scenarios::{by_name, eval_config};
use st_net::ProtocolKind;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1+state machine: over arbitrary seeds and scenarios, a
    /// traced run takes only Fig. 2b arrows and attempts a neighbor
    /// search. The arrows are checked as they are taken:
    /// `TransitionLog::push` debug-asserts each one against the table, so
    /// an illegal arrow panics the run in a debug build. The logs are not
    /// read, and are not contiguous chains: the neighbor loop keeps
    /// adapting (edges H and D) after its handover trigger (E).
    #[test]
    fn traced_runs_take_only_legal_arrows(seed in 0u64..5000, idx in 0usize..3) {
        let scenario = ["walk", "rotation", "vehicular"][idx];
        let cfg = eval_config(ProtocolKind::SilentTracker);
        let (out, _) = by_name(scenario, &cfg, seed).run_traced();
        // The run must at least have attempted a search.
        prop_assert!(out.search_passes.len() + out.tracker_stats.map(|s| s.search_dwells as usize).unwrap_or(0) > 0);
    }

    /// Invariant: alignment samples are only recorded while a beam is
    /// actually tracked, and values are boolean.
    #[test]
    fn alignment_series_is_boolean(seed in 0u64..5000) {
        let cfg = eval_config(ProtocolKind::SilentTracker);
        let out = by_name("walk", &cfg, seed).run();
        for &(t, v) in out.alignment.points() {
            prop_assert!(v == 0.0 || v == 1.0);
            prop_assert!(t >= 0.0);
        }
    }

    /// Completion ordering: acquisition ≤ trigger ≤ completion whenever
    /// all three exist, and the interruption is non-negative and
    /// consistent with the timeline.
    #[test]
    fn timeline_is_ordered(seed in 0u64..5000, idx in 0usize..3) {
        let scenario = ["walk", "rotation", "vehicular"][idx];
        let cfg = eval_config(ProtocolKind::SilentTracker);
        let out = by_name(scenario, &cfg, seed).run();
        if let (Some(acq), Some(trig)) = (out.acquired_at, out.handover_triggered_at) {
            prop_assert!(acq <= trig, "acquired {acq} after trigger {trig}");
        }
        if let (Some(trig), Some(done)) = (out.handover_triggered_at, out.handover_complete_at) {
            prop_assert!(trig <= done);
        }
        if let Some(i) = out.interruption {
            prop_assert!(i.as_millis_f64() >= 0.0);
        }
    }
}

/// Deterministic single-run check of the unit-level machine invariants,
/// driven from the library API (complements the run-level proptests).
#[test]
fn machine_edges_are_exactly_fig2b() {
    use silent_tracker::Transition;
    // 11 arrows, no more, no less (Fig. 2b).
    let legal = Transition::all_legal();
    assert_eq!(legal.len(), 11);
    // Handover exit exists only from N-RBA.
    for t in &legal {
        if t.edge == Edge::E {
            assert_eq!(t.from, TrackerState::NRba);
            assert_eq!(t.to, TrackerState::Eo);
        }
    }
    // The only self-loop is the silent adaptation H.
    for t in &legal {
        if t.from == t.to {
            assert_eq!(t.edge, Edge::H);
        }
    }
}
