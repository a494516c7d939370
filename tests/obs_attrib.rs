//! Causal interruption-attribution contracts: phase-decomposed
//! breakdowns, per-cause ledgers and the trace-refold autopsy path.
//!
//! * **Worker invariance** — the per-cause attribution document
//!   (`causes_json`: cause-keyed quantile ledgers + worst-k exemplars)
//!   and the summaries are byte-identical at 1/2/4/8 workers.
//! * **Exact decomposition** — every breakdown's phases sum *bit-equal*
//!   (`f64::to_bits`) to the recorded interruption total, on the small
//!   sweep point and (`--ignored`) at the 1,000-UE point.
//! * **Autopsy equivalence** — refolding the recorded trace marks
//!   (after a round-trip through the on-disk format) reproduces the
//!   live run's breakdowns exactly: same worst-k set, same per-cause
//!   counts.
//!
//! All tests drive `st_bench::fleet_load` sweep points (the 4-cell
//! street): it is the smallest deployment in the repo where *both*
//! arms complete attributable handovers — the reactive arm's
//! RLF-triggered reconnections need the vehicular slice and the full
//! 2 s to finish rather than just fail.

use silent_tracker_repro::silent_tracker::attribution::{Cause, InterruptionBreakdown};
use silent_tracker_repro::st_bench::fleet_load::{self, causes_json, FleetLoad};
use silent_tracker_repro::st_fleet;
use silent_tracker_repro::st_net::FleetTrace;

/// Everything the attribution determinism contract covers, as one blob.
fn attrib_blob(r: &FleetLoad) -> String {
    use std::fmt::Write as _;
    let mut s = causes_json(r);
    for a in &r.arms {
        write!(s, "summary:{}", a.outcome.summary()).unwrap();
    }
    s
}

#[test]
fn breakdowns_are_worker_invariant_in_both_contention_modes() {
    let base = fleet_load::run(&[28], 42, 1, false, None);
    let base_blob = attrib_blob(&base);
    for workers in [2, 4, 8] {
        let other = fleet_load::run(&[28], 42, workers, false, None);
        assert_eq!(
            base_blob,
            attrib_blob(&other),
            "attribution diverged at {workers} workers"
        );
        for (a, b) in base.arms.iter().zip(&other.arms) {
            assert_eq!(a.outcome.totals.worst, b.outcome.totals.worst);
        }
    }
    // Both arms actually attributed interruptions: the silent arm into
    // the soft ledger, the reactive arm into the hard ledger.
    let (silent, reactive) = (&base.arms[0].outcome.totals, &base.arms[1].outcome.totals);
    assert!(silent.soft_causes.total_count() > 0, "{base_blob}");
    assert!(reactive.hard_causes.total_count() > 0, "{base_blob}");
    assert!(!silent.worst.is_empty() && !reactive.worst.is_empty());
}

/// Phases must sum bit-equal to the recorded interruption — both for
/// the exemplars the live run retained and for every mark refolded
/// from the recorded traces.
fn assert_exact_decomposition(r: &FleetLoad) {
    for a in &r.arms {
        let t = &a.outcome.totals;
        for bd in &t.worst {
            assert_eq!(
                bd.phase_sum_ms().to_bits(),
                bd.total_ms.to_bits(),
                "worst exemplar phases drifted from total: {bd:?}"
            );
        }
        let run = a.trace.as_ref().expect("recording was armed");
        let marks = st_fleet::marks_from_traces(&run.ues);
        assert!(!marks.is_empty(), "no causal marks recorded");
        // One mark per attributed interruption, no more, no fewer.
        let attributed = t.soft_causes.total_count() + t.hard_causes.total_count();
        assert_eq!(marks.len() as u64, attributed);
        for m in &marks {
            let bd = InterruptionBreakdown::from_marks(m);
            assert_eq!(
                bd.total_ms.to_bits(),
                m.total().as_millis_f64().to_bits(),
                "breakdown total drifted from the marks: {m:?}"
            );
            assert_eq!(
                bd.phase_sum_ms().to_bits(),
                bd.total_ms.to_bits(),
                "phases do not sum to the recorded total: {bd:?} from {m:?}"
            );
        }
    }
}

#[test]
fn phase_sums_equal_recorded_totals_bit_exactly() {
    let r = fleet_load::run(&[28], 42, 4, true, None);
    assert_exact_decomposition(&r);
}

#[test]
#[ignore] // 1,000-UE sweep point; minutes in debug builds. Run with --ignored.
fn phase_sums_equal_recorded_totals_at_thousand_ues() {
    let r = fleet_load::run(&[1000], 42, 8, true, None);
    assert_exact_decomposition(&r);
}

#[test]
fn replayed_trace_breakdowns_match_live() {
    let r = fleet_load::run(&[28], 42, 4, true, None);
    for a in &r.arms {
        let t = &a.outcome.totals;
        let run = a.trace.as_ref().expect("recording was armed");
        // Round-trip through the on-disk format: what `autopsy` consumes
        // is the decoded file, not the in-memory recording.
        let trace = FleetTrace {
            runs: vec![run.clone()],
        };
        let decoded = FleetTrace::from_bytes(&trace.to_bytes()).unwrap();
        let mut refolded = st_fleet::breakdowns_from_traces(&decoded.runs[0].ues);
        refolded.sort_by(st_fleet::attribution::worst_order);

        // The live run's retained worst-k is exactly the head of the
        // refolded worst-first order — byte-for-byte equal breakdowns.
        let k = t.worst.len();
        assert!(k > 0, "live run retained no exemplars ({})", run.label);
        assert_eq!(t.worst.as_slice(), &refolded[..k], "{}", run.label);

        // Per-cause counts from the refold equal the live ledgers.
        let mut counts = [0u64; 5];
        for bd in &refolded {
            counts[bd.cause as usize] += 1;
        }
        for c in Cause::ALL {
            let live = t.soft_causes.get(c.label()).map_or(0, |sk| sk.count())
                + t.hard_causes.get(c.label()).map_or(0, |sk| sk.count());
            assert_eq!(
                counts[c as usize],
                live,
                "cause {} count drifted between live run and trace refold ({})",
                c.label(),
                run.label
            );
        }
    }
}
