//! Blocker-density sweep: where does silent tracking save sessions that
//! reactive handover loses?
//!
//! The dynamic-environment subsystem (`st_env`) makes blockage an *event
//! with geometry*: a bus shadow sweeps every link it crosses, a crowd
//! thickens until the LOS is cut more often than it is clear. This study
//! sweeps blocker density × protocol arm on a shared street: at each
//! density the same blocker field (same seed) is run once with an
//! all-Silent-Tracker population and once all-reactive. The silent arm
//! hands over *before* the shadowed serving link dies (make-before-break
//! on the tracked neighbor beam); the reactive arm only moves after RLF —
//! so as density rises its outage count and interruption tail grow while
//! the silent arm degrades gracefully. The `saved` column is the
//! difference in radio-link failures: sessions the blockers killed under
//! reactive handover that silent tracking carried through.
//!
//! `--smoke` runs a small fixed sweep (deterministic summary on stdout,
//! JSON artifact to disk) for the CI perf-smoke step.

use std::time::Instant;

use silent_tracker::attribution::Cause;
use st_env::BlockerPopulation;
use st_fleet::{
    run_fleet_with_workers, Deployment, FleetConfig, FleetOutcome, InterruptionStats, MobilityKind,
};
use st_metrics::Table;
use st_net::ProtocolKind;

/// One (density, arm) sweep point.
#[derive(Debug, Clone)]
pub struct DensityArm {
    /// Number of moving blockers shared by the fleet.
    pub blockers: u32,
    pub protocol: ProtocolKind,
    pub outcome: FleetOutcome,
    pub wall_s: f64,
}

#[derive(Debug, Clone)]
pub struct BlockageStudy {
    pub arms: Vec<DensityArm>,
}

/// The shared world at one density: a two-cell street canyon, walkers
/// crossing the cell boundary, and a blocker field of `density` moving
/// obstacles (mostly crowd, plus a vehicle/bus backbone once the
/// density allows it). *Every* density — including 0 — opts into the
/// geometric blockage model, so the stochastic duty cycle is off across
/// the whole sweep and the density axis varies exactly one thing: the
/// number of obstacles. Density 0 is therefore a genuinely clear street,
/// not "stochastic blockage instead".
fn deployment(density: u32, protocol: ProtocolKind, seed: u64, ues: u32) -> FleetConfig {
    let buses = (density / 25).min(4);
    let vehicles = (density / 12).min(8);
    let crowd = density - buses - vehicles;
    Deployment::new()
        .street(200.0, 30.0)
        .cell_row(2, 80.0)
        .tx_beams(8)
        .prach_preambles(8)
        .spawn_region((-25.0, 15.0), (-3.0, 3.0))
        .population(ues, MobilityKind::Walk, protocol)
        .blockers(
            BlockerPopulation::new(seed)
                .crowd(crowd)
                .vehicles(vehicles)
                .buses(buses),
        )
        .duration_secs(2.0)
        .seed(seed)
        .shards(2)
        .build()
        .expect("valid blockage deployment")
}

pub fn run(densities: &[u32], seed: u64, workers: usize, ues: u32) -> BlockageStudy {
    let mut arms = Vec::new();
    for &blockers in densities {
        for protocol in [ProtocolKind::SilentTracker, ProtocolKind::Reactive] {
            let cfg = deployment(blockers, protocol, seed, ues);
            let start = Instant::now();
            let outcome = run_fleet_with_workers(&cfg, workers);
            let wall_s = start.elapsed().as_secs_f64();
            arms.push(DensityArm {
                blockers,
                protocol,
                outcome,
                wall_s,
            });
        }
    }
    BlockageStudy { arms }
}

fn arm_label(p: ProtocolKind) -> &'static str {
    match p {
        ProtocolKind::SilentTracker => "silent",
        ProtocolKind::Reactive => "reactive",
    }
}

fn interruption_stats(a: &DensityArm) -> Option<InterruptionStats> {
    match a.protocol {
        ProtocolKind::SilentTracker => a.outcome.soft_stats(),
        ProtocolKind::Reactive => a.outcome.hard_stats(),
    }
}

/// How many of this arm's interruptions each root cause accounts for,
/// indexed by [`Cause`] discriminant — read off the arm's own cause
/// ledger (soft for silent, hard for reactive).
fn cause_counts(a: &DensityArm) -> [u64; 5] {
    let map = match a.protocol {
        ProtocolKind::SilentTracker => &a.outcome.totals.soft_causes,
        ProtocolKind::Reactive => &a.outcome.totals.hard_causes,
    };
    let mut out = [0u64; 5];
    for c in Cause::ALL {
        out[c as usize] = map.get(c.label()).map_or(0, |sk| sk.count());
    }
    out
}

/// Radio-link failures the reactive arm suffered *beyond* the silent arm
/// at the same density — the sessions silent tracking saved.
fn saved_at(r: &BlockageStudy, blockers: u32) -> Option<i64> {
    let rlfs = |p: ProtocolKind| {
        r.arms
            .iter()
            .find(|a| a.blockers == blockers && a.protocol == p)
            .map(|a| a.outcome.totals.rlfs as i64)
    };
    Some(rlfs(ProtocolKind::Reactive)? - rlfs(ProtocolKind::SilentTracker)?)
}

/// The figure: interruption and session-loss against blocker density,
/// with the causal decomposition of each arm's interruptions — as
/// density rises, the cause mass should migrate from trigger-maturity
/// toward blockage-onset (and, under contention, preamble-collision).
pub fn render(r: &BlockageStudy) -> String {
    let mut t = Table::new(
        "Blockage study: silent vs reactive under moving blockers (2 cells, 2 s)",
        &[
            "blockers",
            "arm",
            "handovers",
            "rlfs",
            "saved",
            "intr_p50_ms",
            "intr_p95_ms",
            "intr_mean_ms",
            "c_blockage",
            "c_fade",
            "c_collision",
            "c_backhaul",
            "c_trigger",
        ],
    );
    for a in &r.arms {
        let (p50, p95, mean) = interruption_stats(a)
            .map(|st| {
                (
                    format!("{:.1}", st.p50_ms),
                    format!("{:.1}", st.p95_ms),
                    format!("{:.1}", st.mean_ms),
                )
            })
            .unwrap_or_else(|| ("-".into(), "-".into(), "-".into()));
        let saved = match a.protocol {
            // Report the delta once per density, on the reactive row.
            ProtocolKind::Reactive => saved_at(r, a.blockers)
                .map(|s| format!("{s}"))
                .unwrap_or_else(|| "-".into()),
            ProtocolKind::SilentTracker => "-".into(),
        };
        let causes = cause_counts(a);
        t.row(&[
            format!("{}", a.blockers),
            arm_label(a.protocol).into(),
            format!("{}", a.outcome.totals.handovers),
            format!("{}", a.outcome.totals.rlfs),
            saved,
            p50,
            p95,
            mean,
            format!("{}", causes[Cause::BlockageOnset as usize]),
            format!("{}", causes[Cause::Fade as usize]),
            format!("{}", causes[Cause::PreambleCollision as usize]),
            format!("{}", causes[Cause::BackhaulCongestion as usize]),
            format!("{}", causes[Cause::TriggerMaturity as usize]),
        ]);
    }
    t.render()
}

/// Serialize the sweep into the `BENCH_blockage.json` artifact uploaded
/// by CI beside `BENCH_fleet.json`.
pub fn bench_json(r: &BlockageStudy, mode: &str) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    writeln!(s, "{{").unwrap();
    writeln!(s, "  \"bench\": \"blockage_study\",").unwrap();
    writeln!(s, "  \"mode\": \"{mode}\",").unwrap();
    let total_wall: f64 = r.arms.iter().map(|a| a.wall_s).sum();
    writeln!(s, "  \"total_wall_s\": {total_wall:.3},").unwrap();
    writeln!(s, "  \"arms\": [").unwrap();
    for (i, a) in r.arms.iter().enumerate() {
        let sep = if i + 1 == r.arms.len() { "" } else { "," };
        let (p50, p95) = interruption_stats(a)
            .map(|st| (st.p50_ms, st.p95_ms))
            .unwrap_or((-1.0, -1.0));
        // As in the table, the per-density `saved` delta appears once —
        // on the reactive row — so summing the field over rows is safe.
        let saved = match a.protocol {
            ProtocolKind::Reactive => {
                format!("\"saved\": {}, ", saved_at(r, a.blockers).unwrap_or(0))
            }
            ProtocolKind::SilentTracker => String::new(),
        };
        // Per-cause interruption counts, in Cause-discriminant order —
        // the causal decomposition of the row's interruption mass.
        let counts = cause_counts(a);
        let causes: Vec<String> = Cause::ALL
            .iter()
            .map(|&c| format!("\"{}\": {}", c.label(), counts[c as usize]))
            .collect();
        writeln!(
            s,
            "    {{\"blockers\": {}, \"arm\": \"{}\", \"handovers\": {}, \"rlfs\": {}, \
             {saved}\"intr_p50_ms\": {:.3}, \"intr_p95_ms\": {:.3}, \
             \"causes\": {{{}}}, \"wall_s\": {:.3}}}{sep}",
            a.blockers,
            arm_label(a.protocol),
            a.outcome.totals.handovers,
            a.outcome.totals.rlfs,
            p50,
            p95,
            causes.join(", "),
            a.wall_s,
        )
        .unwrap();
    }
    writeln!(s, "  ]").unwrap();
    writeln!(s, "}}").unwrap();
    s
}

pub fn write_bench_json(path: &str, r: &BlockageStudy, mode: &str) -> std::io::Result<()> {
    std::fs::write(path, bench_json(r, mode))
}

/// Deterministic smoke sweep for CI: two densities, small fleet. The
/// stdout summary is byte-stable for a given build (the aggregates are
/// worker-invariant); wall-clock lives only in the JSON artifact.
pub fn smoke(workers: usize) -> (String, BlockageStudy) {
    use std::fmt::Write as _;
    let study = run(&[0, 24], 11, workers, 10);
    let mut s = String::new();
    for a in &study.arms {
        writeln!(
            s,
            "blockers={} arm={}\n{}",
            a.blockers,
            arm_label(a.protocol),
            a.outcome.summary()
        )
        .unwrap();
    }
    (s, study)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_worker_invariant() {
        let (a, _) = smoke(1);
        let (b, _) = smoke(4);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_renders_and_serializes_both_arms() {
        let r = run(&[0, 16], 3, 4, 8);
        assert_eq!(r.arms.len(), 4);
        let table = render(&r);
        assert!(
            table.contains("silent") && table.contains("reactive"),
            "{table}"
        );
        let json = bench_json(&r, "test");
        assert!(json.contains("\"blockers\": 16"), "{json}");
        assert!(json.contains("\"saved\""), "{json}");
        // Every row carries its causal decomposition.
        assert!(table.contains("c_blockage"), "{table}");
        assert!(json.contains("\"causes\": {\"blockage-onset\""), "{json}");
        // Density 0 is the clear-street control (geometric model armed,
        // zero obstacles); 16 carries a real field.
        let clear = &r.arms[0];
        assert_eq!(clear.blockers, 0);
        // The blocked fleets actually ran the occlusion path.
        assert!(r.arms[2].outcome.totals.events > 0);
    }
}
