//! Deterministic-interleaving stress for the barrier-synchronized fleet
//! runner.
//!
//! The shared responder stage claims its outcome is independent of
//! worker count, worker scheduling and merge order. Real threads are
//! good at hiding order dependence behind lucky scheduling, so this
//! harness makes the scheduling *adversarial on purpose*: the
//! `StageOrder` knob reverses / rotates both the order each worker steps
//! its shards per epoch and the order the resolution pass drains the
//! shard outboxes. Every combination must produce byte-identical
//! aggregates — any divergence means merge order leaked through the
//! canonical resolution sort.

mod common;

use common::contended_street;
use silent_tracker_repro::st_fleet::{
    run_fleet_exact_with_order, run_fleet_with_workers, StageOrder,
};

/// Fast always-on version: a small contended fleet across worker counts
/// and adversarial orders (the release-scale sweep below does the same
/// at the heavy-load acceptance point).
#[test]
fn adversarial_interleaving_is_invisible_small() {
    let cfg = contended_street(96, 2, 8, 0.8);
    let reference = run_fleet_with_workers(&cfg, 1);
    // Contention ran: the stage resolved preambles.
    let stage = reference.stage.expect("stage report");
    assert!(
        stage.counters.resolved_preambles > 0,
        "{}",
        reference.summary()
    );
    let reference = reference.summary();
    for workers in [2, 4, 8] {
        for order in [
            StageOrder::Forward,
            StageOrder::Reversed,
            StageOrder::Rotated(3),
        ] {
            let out = run_fleet_exact_with_order(&cfg, workers, order).summary();
            assert_eq!(
                reference, out,
                "aggregate diverged at workers={workers} order={order:?}"
            );
        }
    }
}

/// The satellite acceptance run: the 4,800-UE / 2-preamble heavy-load
/// deployment at 1, 2, 4 and 8 workers under reversed and rotated
/// shard-completion orders — all aggregates `assert_eq!`. Sized for
/// `--release` (`cargo test --release --test exact_contention -- --ignored`).
#[test]
#[ignore = "release-scale: repeated 4,800-UE fleets; run with --release -- --ignored"]
fn adversarial_interleaving_is_invisible_at_heavy_load() {
    let cfg = contended_street(4800, 2, 8, 2.0);
    let reference = run_fleet_with_workers(&cfg, 1);
    assert!(reference.totals.handovers > 0, "{}", reference.summary());
    let reference = reference.summary();
    for workers in [1, 2, 4, 8] {
        // Alternate the adversarial order per worker count so both the
        // shard-step and mailbox-drain permutations are exercised at
        // every parallelism level.
        for order in [StageOrder::Reversed, StageOrder::Rotated(workers)] {
            let out = run_fleet_exact_with_order(&cfg, workers, order).summary();
            assert_eq!(
                reference, out,
                "aggregate diverged at workers={workers} order={order:?}"
            );
        }
    }
}
