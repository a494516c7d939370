//! A fleet run: 96 mobiles sharing four cells down a street canyon.
//!
//! Where every other example follows *one* mobile through *one* seeded
//! trial, this one drives the `st_fleet` engine: a mixed population
//! (walkers, vehicles, both protocol arms) contends for shared PRACH
//! occasions and backhaul pipes, sharded across worker threads with a
//! bit-identical aggregate regardless of worker count.
//!
//!     cargo run --release --example fleet

use silent_tracker_repro::st_fleet::{run_fleet, Deployment, MobilityKind};
use silent_tracker_repro::st_net::ProtocolKind;

fn main() {
    let cfg = Deployment::new()
        .street(400.0, 30.0)
        .cell_row(4, 100.0)
        .tx_beams(8)
        .prach_preambles(8)
        .population(56, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .population(16, MobilityKind::Vehicular, ProtocolKind::SilentTracker)
        .population(16, MobilityKind::Walk, ProtocolKind::Reactive)
        .population(8, MobilityKind::WalkAndTurn, ProtocolKind::SilentTracker)
        .duration_secs(2.0)
        .seed(42)
        .shards(4)
        .build()
        .expect("valid deployment");

    println!(
        "running {} UEs over {} cells for {}…\n",
        cfg.n_ues(),
        cfg.base.cells.len(),
        cfg.base.duration
    );
    let out = run_fleet(&cfg);

    println!("{}", out.render_cells());
    let arm = |name: &str, s: Option<silent_tracker_repro::st_fleet::InterruptionStats>| {
        if let Some(s) = s {
            println!(
                "{name} handover interruption (ms): n={} mean={:.3} p50={:.3} \
                 p95={:.3} p99={:.3} max={:.3} (sketch)",
                s.n, s.mean_ms, s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms,
            );
        }
    };
    arm("soft", out.soft_stats());
    arm("hard", out.hard_stats());
    println!("\naggregate summary (bit-identical for this seed):");
    print!("{}", out.summary());
}
