//! Pins the single trial end to end: one digest over the outcome fields
//! the benchmark hashes per trial plus the full milestone trace, for the
//! benchmark's six trial kinds (three mobility cases × both protocol
//! arms) at seeds 0–4. Any change to what a trial computes — RNG draws,
//! event order, handler logic — moves the digest.

use silent_tracker_repro::silent_tracker::wire::Fnv64;
use silent_tracker_repro::st_net::scenarios::{by_name, eval_config};
use silent_tracker_repro::st_net::ProtocolKind;

const KINDS: [(&str, ProtocolKind); 6] = [
    ("walk", ProtocolKind::SilentTracker),
    ("rotation", ProtocolKind::SilentTracker),
    ("vehicular", ProtocolKind::SilentTracker),
    ("walk", ProtocolKind::Reactive),
    ("rotation", ProtocolKind::Reactive),
    ("vehicular", ProtocolKind::Reactive),
];

/// The pinned digest. A change that moves it changes what a paper trial
/// computes, so every figure must be re-baselined with it.
const PINNED: u64 = 0xb541_f0d9_fcf0_5297;

#[test]
fn paper_trials_match_the_pinned_digest() {
    let mut h = Fnv64::new();
    for (name, arm) in KINDS {
        let cfg = eval_config(arm);
        for seed in 0..5 {
            let (o, trace) = by_name(name, &cfg, seed).run_traced();
            let text = format!(
                "{} {:?} {:?} {:?} {:?} {:?} {} {:?} {:?} {:?} {:?} {}\n",
                o.seed,
                o.acquired_at,
                o.handover_triggered_at,
                o.handover_reason,
                o.handover_complete_at,
                o.rlf_at,
                o.rach_attempts,
                o.interruption,
                o.search_passes,
                o.tracker_stats,
                o.reactive_dwells,
                o.serving_rss.len(),
            );
            h.write(text.as_bytes());
            for e in trace.iter() {
                h.write(format!("{e}\n").as_bytes());
            }
        }
    }
    assert_eq!(h.finish(), PINNED, "digest {:#018x}", h.finish());
}
