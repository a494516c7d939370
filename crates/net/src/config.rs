//! Scenario configuration: cells, radio, protocol arm, faults.

use std::sync::Arc;

use silent_tracker::TrackerConfig;
use st_des::SimDuration;
use st_env::DynamicEnvironment;
use st_mac::rach::{PrachConfig, RachConfig};
use st_mac::schedule::GapSchedule;
use st_mac::timing::SsbConfig;
use st_phy::channel::{ChannelConfig, Environment};
use st_phy::codebook::BeamwidthClass;
use st_phy::geometry::{Radians, Vec2};
use st_phy::link::RadioConfig;

/// One base station.
#[derive(Debug, Clone, Copy)]
pub struct CellConfig {
    pub position: Vec2,
    pub heading: Radians,
    /// Transmit beams swept per SSB burst set.
    pub n_tx_beams: u16,
}

impl CellConfig {
    pub fn at(x: f64, y: f64) -> CellConfig {
        CellConfig {
            position: Vec2::new(x, y),
            heading: Radians(0.0),
            n_tx_beams: 16,
        }
    }
}

/// Which protocol drives the mobile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// The paper's contribution.
    SilentTracker,
    /// Reactive hard-handover baseline.
    Reactive,
}

/// Control-plane fault injection (smoltcp-style knobs).
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability that the serving BS never answers a beam-switch
    /// request (exercises edge G).
    pub drop_assist_probability: f64,
    /// Extra delay added to cell assistance beyond the processing time.
    pub assist_extra_delay: SimDuration,
    /// Probability that any RACH message (either direction) is lost
    /// independently of SNR.
    pub drop_rach_probability: f64,
}

impl FaultConfig {
    pub fn none() -> FaultConfig {
        FaultConfig {
            drop_assist_probability: 0.0,
            assist_extra_delay: SimDuration::ZERO,
            drop_rach_probability: 0.0,
        }
    }
}

/// Full scenario description (mobility is passed separately — it is a
/// trait object and scenarios build it per trial).
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    pub cells: Vec<CellConfig>,
    /// Static propagation environment (walls for the ray tracer).
    pub environment: Environment,
    /// Optional dynamic environment: moving geometric blockers occluding
    /// rays with knife-edge diffraction. `None` (the default) keeps the
    /// stochastic per-link blockage process as the only blockage source,
    /// so every seeded baseline is untouched unless a scenario opts in.
    /// When set, its static walls take precedence over `environment`.
    /// Opt in via [`ScenarioConfig::set_dynamics`], which also disarms
    /// the stochastic process — assigning the field directly would run
    /// both blockage models at once and attenuate every link twice.
    pub dynamics: Option<Arc<DynamicEnvironment>>,
    /// Index into `cells` of the initial serving cell.
    pub initial_serving: usize,
    pub ue_codebook: BeamwidthClass,
    /// Override the mobile's codebook with an explicit one (e.g. a
    /// multi-panel ULA build) instead of the sectored `ue_codebook`
    /// class. Used by the pattern-realism ablation.
    pub custom_ue_codebook: Option<st_phy::codebook::Codebook>,
    pub protocol: ProtocolKind,
    pub tracker: TrackerConfig,
    pub channel: ChannelConfig,
    pub radio: RadioConfig,
    pub prach: PrachConfig,
    pub rach: RachConfig,
    pub gaps: GapSchedule,
    /// Serving-link measurement period.
    pub serving_meas_period: SimDuration,
    /// One-way backhaul latency between base stations.
    pub backhaul_latency: SimDuration,
    /// Extra connection re-establishment time paid by a *hard* handover
    /// (authentication, core signalling, context rebuild).
    pub hard_handover_penalty: SimDuration,
    /// BS processing time before cell assistance is transmitted.
    pub assist_processing: SimDuration,
    pub fault: FaultConfig,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Master seed; trials use seed + trial index.
    pub seed: u64,
}

impl ScenarioConfig {
    /// Two cells 80 m apart on a street; the wall geometry and radio
    /// parameters approximate the paper's 60 GHz testbed deployment.
    pub fn two_cell_edge() -> ScenarioConfig {
        ScenarioConfig {
            cells: vec![CellConfig::at(-40.0, 10.0), CellConfig::at(40.0, 10.0)],
            environment: Environment::street_canyon(200.0, 30.0),
            dynamics: None,
            initial_serving: 0,
            ue_codebook: BeamwidthClass::Narrow,
            custom_ue_codebook: None,
            protocol: ProtocolKind::SilentTracker,
            tracker: TrackerConfig::paper_defaults(),
            channel: ChannelConfig::outdoor_60ghz(),
            radio: RadioConfig::ni_60ghz_testbed(),
            prach: PrachConfig::nr_default(),
            rach: RachConfig::nr_default(),
            gaps: GapSchedule::dense(),
            serving_meas_period: SimDuration::from_millis(5),
            backhaul_latency: SimDuration::from_millis(3),
            hard_handover_penalty: SimDuration::from_millis(80),
            assist_processing: SimDuration::from_millis(8),
            fault: FaultConfig::none(),
            duration: SimDuration::from_secs(20),
            seed: 1,
        }
    }

    /// SSB configuration of cell `idx`.
    pub fn ssb(&self, idx: usize) -> SsbConfig {
        SsbConfig::nr_fr2(self.cells[idx].n_tx_beams)
    }

    /// Opt into a dynamic environment: geometric occlusion becomes *the*
    /// blockage model, so the geometry-free stochastic duty cycle is
    /// switched off in the same move — a bus shadow and a random fade
    /// must not stack on the same ray. This is the only supported way to
    /// set [`ScenarioConfig::dynamics`].
    pub fn set_dynamics(&mut self, dynamics: Arc<DynamicEnvironment>) {
        self.channel.blockage_rate_hz = 0.0;
        self.dynamics = Some(dynamics);
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.cells.is_empty() {
            return Err("need at least one cell".into());
        }
        if self.initial_serving >= self.cells.len() {
            return Err("initial serving cell out of range".into());
        }
        self.tracker.validate().map_err(|e| e.to_string())?;
        self.gaps.validate().map_err(|e| e.to_string())?;
        for (p, label) in [
            (self.fault.drop_assist_probability, "assist"),
            (self.fault.drop_rach_probability, "rach"),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{label} drop probability out of [0,1]"));
            }
        }
        // The measurement-gap pattern must cover the SSB burst active
        // window, or the mobile could never hear a neighbor burst.
        for idx in 0..self.cells.len() {
            let ssb = self.ssb(idx);
            if ssb.burst_active() > self.gaps.duration {
                return Err(format!(
                    "gap ({}) too short for cell {idx}'s SSB burst ({})",
                    self.gaps.duration,
                    ssb.burst_active()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_is_valid() {
        ScenarioConfig::two_cell_edge().validate().unwrap();
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = ScenarioConfig::two_cell_edge();
        c.initial_serving = 5;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::two_cell_edge();
        c.cells.clear();
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::two_cell_edge();
        c.fault.drop_assist_probability = 1.5;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::two_cell_edge();
        c.cells[0].n_tx_beams = 64;
        c.gaps.duration = SimDuration::from_millis(2);
        assert!(c.validate().is_err(), "gap shorter than burst");
    }

    #[test]
    fn ssb_follows_cell_beam_count() {
        let mut c = ScenarioConfig::two_cell_edge();
        c.cells[1].n_tx_beams = 32;
        assert_eq!(c.ssb(0).n_tx_beams, 16);
        assert_eq!(c.ssb(1).n_tx_beams, 32);
    }
}
