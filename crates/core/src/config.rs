//! Protocol thresholds and timers.
//!
//! The numbers on the Fig. 2b state-machine edges are configuration here:
//! the 3 dB mobile-side switch threshold (edges G'/H), the 10 dB
//! neighbor-beam loss threshold (edge D), and the handover hysteresis T
//! (edge E). The ablation bench (E6) sweeps these.

use st_des::SimDuration;
use st_phy::units::Db;

/// Silent Tracker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerConfig {
    /// Mobile-side receive-beam switch threshold (paper: 3 dB). Applies
    /// to both the serving link (S-RBA) and the neighbor track (N-RBA).
    pub switch_threshold: Db,
    /// Neighbor beam considered lost when its RSS falls this far below
    /// reference (paper: 10 dB, edge D) — triggers re-acquisition.
    pub loss_threshold: Db,
    /// Handover hysteresis T (edge E): neighbor must beat serving by this
    /// margin to trigger handover while the serving link is alive.
    pub handover_hysteresis: Db,
    /// How long to wait for the serving cell's transmit-beam switch
    /// before concluding "cell assistance delayed or lost" (edge G).
    pub assist_timeout: SimDuration,
    /// Serving link declared lost after this long without a decodable
    /// keep-alive (radio link failure at cell edge).
    pub serving_timeout: SimDuration,
    /// EWMA smoothing factor for RSS measurements, in (0, 1]; higher is
    /// more reactive. Raw per-SSB RSS is too noisy to compare against a
    /// 3 dB threshold directly.
    pub ewma_alpha: f64,
    /// Maximum receive-beam dwells in one neighbor search pass before the
    /// search is declared failed (counts towards Fig. 2a success rate).
    pub max_search_dwells: usize,
    /// After a mobile-side switch, how long to wait before judging it
    /// insufficient and escalating to cell assistance (CABM).
    pub settle_time: SimDuration,
    /// If the tracked neighbor beam produces no detectable SSB for this
    /// long, it is declared lost (edge D) even though no explicit RSS
    /// drop was measured — a beam that rotated out of alignment goes
    /// *silent*, it does not report a low RSS.
    pub track_staleness: SimDuration,
    /// Decay of the tracked-neighbor loss reference, dB per tracked-beam
    /// sample. The edge-D loss threshold is measured against the best
    /// level the beam has *sustained*, not a single lucky fading/wobble
    /// peak — without decay, one peak pins the reference and ordinary
    /// oscillation afterwards reads as a 10 dB loss, churning the track
    /// through needless re-acquisitions.
    pub loss_reference_decay: Db,
    /// Minimum samples the tracked-neighbor EWMA must have absorbed
    /// before the handover trigger (edge E) may compare it against the
    /// serving level: a single strong SSB right at acquisition is a
    /// fading spike, not evidence that the neighbor sustainably beats
    /// serving + T. Loss-driven handover (serving link dies) is exempt —
    /// any tracked beam beats none.
    pub min_track_samples: u32,
}

impl TrackerConfig {
    /// The paper's operating point.
    pub fn paper_defaults() -> TrackerConfig {
        TrackerConfig {
            switch_threshold: Db(3.0),
            loss_threshold: Db(10.0),
            handover_hysteresis: Db(3.0),
            assist_timeout: SimDuration::from_millis(60),
            serving_timeout: SimDuration::from_millis(100),
            ewma_alpha: 0.4,
            max_search_dwells: 40,
            settle_time: SimDuration::from_millis(40),
            track_staleness: SimDuration::from_millis(200),
            loss_reference_decay: Db(0.75),
            min_track_samples: 3,
        }
    }

    /// Sanity-check parameter relationships.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.switch_threshold.0 <= 0.0 {
            return Err("switch threshold must be positive");
        }
        if self.loss_threshold.0 <= self.switch_threshold.0 {
            return Err("loss threshold must exceed switch threshold");
        }
        if !(0.0..=1.0).contains(&self.ewma_alpha) || self.ewma_alpha == 0.0 {
            return Err("ewma alpha must be in (0, 1]");
        }
        if self.max_search_dwells == 0 {
            return Err("search needs at least one dwell");
        }
        if self.loss_reference_decay.0 < 0.0 {
            return Err("loss reference decay must be non-negative");
        }
        Ok(())
    }
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_the_papers_numbers() {
        let c = TrackerConfig::paper_defaults();
        assert_eq!(c.switch_threshold, Db(3.0));
        assert_eq!(c.loss_threshold, Db(10.0));
        assert_eq!(c.handover_hysteresis, Db(3.0));
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_inversions() {
        let mut c = TrackerConfig::paper_defaults();
        c.loss_threshold = Db(2.0);
        assert!(c.validate().is_err());

        let mut c = TrackerConfig::paper_defaults();
        c.switch_threshold = Db(0.0);
        assert!(c.validate().is_err());

        let mut c = TrackerConfig::paper_defaults();
        c.ewma_alpha = 0.0;
        assert!(c.validate().is_err());
        c.ewma_alpha = 1.5;
        assert!(c.validate().is_err());

        let mut c = TrackerConfig::paper_defaults();
        c.max_search_dwells = 0;
        assert!(c.validate().is_err());

        let mut c = TrackerConfig::paper_defaults();
        c.loss_reference_decay = Db(-1.0);
        assert!(c.validate().is_err());
    }
}
