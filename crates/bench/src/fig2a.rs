//! Fig. 2a — directional neighbor search under human walk.
//!
//! Left panel: search latency, measured (as in the paper) in *number of
//! beam searches* (receive-beam dwells) until the neighbor cell's beam is
//! found, for the Narrow (20°) and Wide (60°) codebooks. Right panel:
//! search success rate (%) for Narrow, Wide and Omni.
//!
//! Each trial walks the mobile at 1.4 m/s at the cell edge and observes
//! the *first* search pass of the Silent Tracker. A pass that exhausts
//! its dwell budget (or a run where nothing was ever found) counts as a
//! failure. Detection needs SNR ≥ 3 dB at a ~45 m neighbor — exactly the
//! regime where the omni antenna's missing array gain costs it the
//! detection, which is the paper's point.

use st_metrics::{Accumulator, RateCounter, Table};
use st_net::scenarios::human_walk;
use st_net::{ProtocolKind, RunOutcome, ScenarioConfig};
use st_phy::codebook::BeamwidthClass;
use st_phy::units::Db;

use crate::runner::run_trials;

/// Aggregate for one codebook class.
#[derive(Debug, Clone)]
pub struct ClassResult {
    pub class: BeamwidthClass,
    /// Dwells of the first successful pass, across trials.
    pub latency: Accumulator,
    pub success: RateCounter,
}

/// Full Fig. 2a result.
#[derive(Debug, Clone)]
pub struct Fig2a {
    pub per_class: Vec<ClassResult>,
    pub trials: u64,
}

/// Scenario configuration for the search experiment.
pub fn config(class: BeamwidthClass) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::two_cell_edge();
    cfg.protocol = ProtocolKind::SilentTracker;
    cfg.ue_codebook = class;
    // Sync detection needs a few dB of margin; this is what separates
    // the codebooks at cell-edge distances: with ~5.5 dB required SNR the
    // neighbor's SSBs sit ~4 dB *below* the omni antenna's detection
    // point (only shadowing/fading upswings get through), ~3 dB above
    // wide's, and ~8 dB above narrow's.
    cfg.radio.detection_snr = Db(5.5);
    // One search pass is bounded as in the paper's latency plot (~25
    // dwell positions), after which the pass counts as failed.
    cfg.tracker.max_search_dwells = 25;
    cfg.duration = st_des::SimDuration::from_secs(8);
    cfg
}

fn first_pass(outcome: &RunOutcome) -> (bool, Option<usize>) {
    match outcome.search_passes.first() {
        Some(p) if p.succeeded => (true, Some(p.dwells)),
        Some(_) => (false, None),
        // Dwell budget never even filled within the run: failure.
        None => (false, None),
    }
}

/// Run the experiment.
pub fn run(trials: u64) -> Fig2a {
    let classes = [
        BeamwidthClass::Narrow,
        BeamwidthClass::Wide,
        BeamwidthClass::Omni,
    ];
    let per_class = classes
        .iter()
        .map(|&class| {
            let cfg = config(class);
            let outs = run_trials(trials, |seed| human_walk(&cfg, seed));
            let mut latency = Accumulator::new();
            let mut success = RateCounter::default();
            for o in &outs {
                let (ok, dwells) = first_pass(o);
                success.record(ok);
                if let Some(d) = dwells {
                    latency.push(d as f64);
                }
            }
            ClassResult {
                class,
                latency,
                success,
            }
        })
        .collect();
    Fig2a { per_class, trials }
}

/// Render both panels as tables (the series the paper's bars show).
pub fn render(r: &Fig2a) -> String {
    let mut latency = Table::new(
        "Fig. 2a (left): Search latency under human walk [number of beam searches]",
        &["codebook", "mean", "ci95", "min", "max", "n_success"],
    );
    for c in &r.per_class {
        if c.latency.count() > 0 {
            let s = c.latency.summary();
            latency.row(&[
                c.class.label().into(),
                format!("{:.1}", s.mean),
                format!("±{:.1}", s.ci95),
                format!("{:.0}", s.min),
                format!("{:.0}", s.max),
                format!("{}", s.n),
            ]);
        } else {
            latency.row(&[
                c.class.label().into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "0".into(),
            ]);
        }
    }
    let mut rate = Table::new(
        "Fig. 2a (right): Search success rate [%]",
        &[
            "codebook",
            "success_%",
            "wilson95_lo",
            "wilson95_hi",
            "trials",
        ],
    );
    for c in &r.per_class {
        let (lo, hi) = c.success.wilson_ci95();
        rate.row(&[
            c.class.label().into(),
            format!("{:.1}", c.success.percent()),
            format!("{:.1}", lo * 100.0),
            format!("{:.1}", hi * 100.0),
            format!("{}", c.success.trials),
        ]);
    }
    format!("{}\n{}", latency.render(), rate.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        // Small trial count to keep the test quick; the bench binary uses
        // more. The *shape* must already hold: narrow success ≫ omni,
        // and narrow needs at least as many dwells as wide.
        let r = run(8);
        let narrow = &r.per_class[0];
        let wide = &r.per_class[1];
        let omni = &r.per_class[2];
        assert!(
            narrow.success.rate() > omni.success.rate(),
            "narrow {} vs omni {}",
            narrow.success.percent(),
            omni.success.percent()
        );
        assert!(narrow.success.rate() >= 0.5, "narrow should mostly succeed");
        if narrow.latency.count() > 0 && wide.latency.count() > 0 {
            assert!(
                narrow.latency.mean() >= wide.latency.mean() * 0.8,
                "narrow {} vs wide {}",
                narrow.latency.mean(),
                wide.latency.mean()
            );
        }
        let text = render(&r);
        assert!(text.contains("Narrow") && text.contains("Omni"));
    }
}
