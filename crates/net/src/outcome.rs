//! Per-run results: everything the figure benches aggregate.

use silent_tracker::{HandoverReason, TrackerStats};
use st_des::{SimDuration, SimTime};
use st_metrics::TimeSeries;

/// One neighbor-search pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchPass {
    /// Receive-beam dwells consumed (Fig. 2a "Number of Beam Searches").
    pub dwells: usize,
    pub succeeded: bool,
    pub ended_at: SimTime,
}

/// Everything observed in one scenario run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub seed: u64,
    /// First successful neighbor acquisition.
    pub acquired_at: Option<SimTime>,
    /// Every search pass (initial acquisition and re-acquisitions).
    pub search_passes: Vec<SearchPass>,
    /// Handover trigger (edge E or serving-loss) time.
    pub handover_triggered_at: Option<SimTime>,
    pub handover_reason: Option<HandoverReason>,
    /// Random access + context transfer finished; mobile served by target.
    pub handover_complete_at: Option<SimTime>,
    /// Radio link failure on the serving cell, if it happened.
    pub rlf_at: Option<SimTime>,
    /// RACH preamble transmissions used by the handover.
    pub rach_attempts: u32,
    /// Service interruption: for make-before-break this is trigger →
    /// complete; for a post-RLF handover it is RLF → complete (plus the
    /// hard penalty for the reactive baseline).
    pub interruption: Option<SimDuration>,
    /// 1.0 when the neighbor-track receive beam was within 3 dB of the
    /// ground-truth best beam, 0.0 otherwise (sampled per SSB burst).
    pub alignment: TimeSeries,
    /// Smoothed serving RSS (dBm) over time (seconds).
    pub serving_rss: TimeSeries,
    /// Smoothed tracked-neighbor RSS (dBm) over time (seconds).
    pub neighbor_rss: TimeSeries,
    /// Protocol counters (Silent Tracker arm only).
    pub tracker_stats: Option<TrackerStats>,
    /// Dwells spent searching after RLF (reactive arm only).
    pub reactive_dwells: Option<u64>,
}

impl RunOutcome {
    pub fn new(seed: u64) -> RunOutcome {
        RunOutcome {
            seed,
            acquired_at: None,
            search_passes: Vec::new(),
            handover_triggered_at: None,
            handover_reason: None,
            handover_complete_at: None,
            rlf_at: None,
            rach_attempts: 0,
            interruption: None,
            alignment: TimeSeries::new("aligned"),
            serving_rss: TimeSeries::new("serving_rss_dbm"),
            neighbor_rss: TimeSeries::new("neighbor_rss_dbm"),
            tracker_stats: None,
            reactive_dwells: None,
        }
    }

    /// Did the run complete a handover?
    pub fn handover_succeeded(&self) -> bool {
        self.handover_complete_at.is_some()
    }

    /// Fraction of tracked time the receive beam was aligned (≤ 3 dB off
    /// the ground-truth best beam).
    pub fn alignment_fraction(&self) -> Option<f64> {
        self.alignment.fraction_where(|v| v > 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_on_empty_outcome() {
        let o = RunOutcome::new(7);
        assert!(!o.handover_succeeded());
        assert_eq!(o.alignment_fraction(), None);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn alignment_fraction_uses_time_weighting() {
        let mut o = RunOutcome::new(1);
        o.alignment.push(0.0, 1.0);
        o.alignment.push(0.8, 0.0);
        o.alignment.push(1.0, 0.0);
        assert!((o.alignment_fraction().unwrap() - 0.8).abs() < 1e-12);
    }
}
