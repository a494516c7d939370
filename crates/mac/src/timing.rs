//! Frame structure and synchronization-signal timing.
//!
//! The base stations sweep their transmit beams with periodic
//! synchronization-signal blocks (SSBs), 5G-NR-FR2 style: a *burst set*
//! every `burst_period` (default 20 ms) carries one SSB per transmit beam.
//! A mobile that dwells on one receive beam for a full burst set sees
//! every transmit beam once; scanning all `N_rx` receive beams therefore
//! costs `N_rx × burst_period` — with 64 rx positions × 20 ms this is the
//! 1.28 s worst-case initial search quoted in §1 of the paper.

use st_des::{SimDuration, SimTime};

/// Transmit-beam index within a cell's sweep.
pub type TxBeamIndex = u16;

/// SSB sweep configuration of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsbConfig {
    /// Number of transmit beams swept per burst set.
    pub n_tx_beams: u16,
    /// Burst-set period (20 ms in NR by default).
    pub burst_period: SimDuration,
    /// Spacing between consecutive SSBs within a burst.
    pub ssb_spacing: SimDuration,
    /// On-air duration of one SSB.
    pub ssb_duration: SimDuration,
}

impl SsbConfig {
    /// NR-FR2-like defaults for a cell with `n_tx_beams` beams:
    /// 20 ms burst sets, 125 µs SSB pitch (4 symbols at 120 kHz SCS
    /// incl. gap), ~35.7 µs on air.
    pub fn nr_fr2(n_tx_beams: u16) -> SsbConfig {
        assert!(n_tx_beams >= 1);
        SsbConfig {
            n_tx_beams,
            burst_period: SimDuration::from_millis(20),
            ssb_spacing: SimDuration::from_micros(125),
            ssb_duration: SimDuration::from_micros(36),
        }
    }

    /// Start time of burst set number `k`.
    pub fn burst_start(&self, k: u64) -> SimTime {
        SimTime::ZERO + self.burst_period * k
    }

    /// The duration of the active part of a burst set.
    pub fn burst_active(&self) -> SimDuration {
        self.ssb_spacing * (self.n_tx_beams as u64 - 1) + self.ssb_duration
    }

    /// Worst-case exhaustive initial-search time for a mobile with
    /// `n_rx_beams` receive beams: one full burst set per receive beam.
    pub fn exhaustive_search_time(&self, n_rx_beams: usize) -> SimDuration {
        self.burst_period * n_rx_beams as u64
    }
}

/// Propagation-delay → timing-advance arithmetic.
///
/// When the mobile detects a neighbor cell's SSB it derives downlink
/// timing; the uplink timing advance commanded in the RAR compensates the
/// round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingAdvance {
    /// Round-trip time in nanoseconds.
    pub rtt_ns: u64,
}

impl TimingAdvance {
    /// From one-way distance.
    pub fn from_distance_m(d_m: f64) -> TimingAdvance {
        let c = 299_792_458.0;
        TimingAdvance {
            rtt_ns: (2.0 * d_m / c * 1e9).round() as u64,
        }
    }

    pub fn one_way(&self) -> SimDuration {
        SimDuration::from_nanos(self.rtt_ns / 2)
    }

    /// Implied one-way distance in metres.
    pub fn distance_m(&self) -> f64 {
        self.rtt_ns as f64 / 2.0 * 299_792_458.0 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_schedule() {
        let c = SsbConfig::nr_fr2(16);
        assert_eq!(c.burst_start(0), SimTime::ZERO);
        assert_eq!(c.burst_start(3).as_millis_f64(), 60.0);
    }

    #[test]
    fn paper_search_bound_is_1280ms() {
        // §1: "initial beam search can take up to 1.28 seconds" —
        // 64 receive positions × 20 ms burst sets.
        let c = SsbConfig::nr_fr2(64);
        assert_eq!(c.exhaustive_search_time(64).as_millis_f64(), 1280.0);
    }

    #[test]
    fn burst_fits_in_period() {
        for n in [1u16, 8, 16, 64] {
            let c = SsbConfig::nr_fr2(n);
            assert!(c.burst_active() < c.burst_period);
        }
    }

    #[test]
    fn timing_advance_round_trip() {
        let ta = TimingAdvance::from_distance_m(150.0);
        // 150 m → ~500 ns one way, ~1 µs RTT.
        assert!((ta.rtt_ns as i64 - 1001).abs() < 2, "{}", ta.rtt_ns);
        assert!((ta.distance_m() - 150.0).abs() < 0.5);
        assert_eq!(ta.one_way().as_nanos(), ta.rtt_ns / 2);
    }
}
