//! End-to-end integration: Silent Tracker completes a *soft* handover in
//! all three of the paper's mobility scenarios, across a seed sweep —
//! the top-level claim of Fig. 2c.

use st_net::scenarios::{by_name, eval_config};
use st_net::ProtocolKind;

fn completion_rate(scenario: &str, seeds: std::ops::Range<u64>) -> (usize, usize, Vec<f64>) {
    let cfg = eval_config(ProtocolKind::SilentTracker);
    let total = (seeds.end - seeds.start) as usize;
    let mut done = 0;
    let mut times_ms = Vec::new();
    for seed in seeds {
        let out = by_name(scenario, &cfg, seed).run();
        if let Some(t) = out.handover_complete_at {
            done += 1;
            times_ms.push(t.as_millis_f64());
        }
    }
    (done, total, times_ms)
}

#[test]
fn walk_completes_across_seeds() {
    let (done, total, times) = completion_rate("walk", 0..10);
    assert!(done * 10 >= total * 8, "walk: {done}/{total} completed");
    // Median completion lands in the window the paper plots (400–1800 ms
    // up to the long tail of trials starting farther from the boundary).
    let mut t = times.clone();
    t.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = t[t.len() / 2];
    assert!(
        (300.0..3000.0).contains(&median),
        "walk median completion {median} ms"
    );
}

#[test]
fn rotation_completes_across_seeds() {
    let (done, total, _) = completion_rate("rotation", 0..10);
    assert!(done * 10 >= total * 8, "rotation: {done}/{total} completed");
}

#[test]
fn vehicular_completes_across_seeds() {
    let (done, total, _) = completion_rate("vehicular", 0..10);
    assert!(
        done * 10 >= total * 8,
        "vehicular: {done}/{total} completed"
    );
}

#[test]
fn handover_is_soft_make_before_break() {
    // In the trigger-driven (edge E) case, the serving link is alive
    // until random access concludes: the interruption is only the access
    // exchange, tens of milliseconds.
    let cfg = eval_config(ProtocolKind::SilentTracker);
    let mut checked = 0;
    for seed in 0..10 {
        let out = by_name("walk", &cfg, seed).run();
        if out.handover_succeeded()
            && out.handover_reason == Some(silent_tracker::HandoverReason::NeighborStronger)
        {
            let i = out.interruption.expect("interruption recorded");
            assert!(
                i.as_millis_f64() < 100.0,
                "seed {seed}: soft interruption {i}"
            );
            checked += 1;
        }
    }
    assert!(checked >= 3, "only {checked} trigger-driven handovers seen");
}

#[test]
fn tracker_arrives_with_aligned_beam() {
    // The thesis: at RACH time the receive beam is already aligned, so
    // access succeeds within a few preamble attempts.
    let cfg = eval_config(ProtocolKind::SilentTracker);
    let mut attempts = Vec::new();
    for seed in 0..10 {
        let out = by_name("walk", &cfg, seed).run();
        if out.handover_succeeded() {
            attempts.push(out.rach_attempts);
        }
    }
    assert!(!attempts.is_empty());
    let mean = attempts.iter().sum::<u32>() as f64 / attempts.len() as f64;
    assert!(mean <= 4.0, "mean RACH attempts {mean}: beam not aligned");
}
