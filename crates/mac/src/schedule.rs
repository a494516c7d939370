//! Measurement scheduling: when may the mobile listen away from the
//! serving cell?
//!
//! A single-RF-chain mm-wave mobile cannot simultaneously receive the
//! serving cell's data beam and measure a neighbor on a different receive
//! beam. The serving cell grants periodic *measurement gaps*; everything
//! the Silent Tracker does towards the neighbor cell (§2: "within the
//! limited measurement schedules available for serving Cell A and the
//! unknown schedules of Cell B") must fit into these gaps. The
//! resource-accounting invariant — serving-link slots and neighbor-track
//! slots never overlap — holds by construction: [`GapSchedule::in_gap`]
//! is the one predicate that splits airtime between the two.

use st_des::{SimDuration, SimTime};

/// Periodic measurement-gap pattern (NR-style: e.g. 6 ms every 40 ms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapSchedule {
    /// Gap repetition period.
    pub period: SimDuration,
    /// Gap length (must be < period).
    pub duration: SimDuration,
    /// Offset of the gap start within the period.
    pub offset: SimDuration,
}

impl GapSchedule {
    /// NR gap pattern 0: 6 ms gaps every 40 ms.
    pub fn nr_pattern0() -> GapSchedule {
        GapSchedule {
            period: SimDuration::from_millis(40),
            duration: SimDuration::from_millis(6),
            offset: SimDuration::ZERO,
        }
    }

    /// A denser pattern for aggressive neighbor tracking at cell edge.
    pub fn dense() -> GapSchedule {
        GapSchedule {
            period: SimDuration::from_millis(20),
            duration: SimDuration::from_millis(6),
            offset: SimDuration::ZERO,
        }
    }

    pub fn validate(&self) -> Result<(), &'static str> {
        if self.duration.as_nanos() == 0 {
            return Err("gap duration must be positive");
        }
        if self.duration >= self.period {
            return Err("gap must be shorter than its period");
        }
        if self.offset + self.duration > self.period {
            return Err("gap must not wrap across the period boundary");
        }
        Ok(())
    }

    /// Is `t` inside a measurement gap?
    pub fn in_gap(&self, t: SimTime) -> bool {
        let phase = t.as_nanos() % self.period.as_nanos();
        let start = self.offset.as_nanos();
        phase >= start && phase < start + self.duration.as_nanos()
    }

    /// Fraction of airtime spent in gaps (the resource cost of tracking).
    pub fn duty_cycle(&self) -> f64 {
        self.duration.as_nanos() as f64 / self.period.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn pattern0_gap_boundaries() {
        let g = GapSchedule::nr_pattern0();
        g.validate().unwrap();
        assert!(g.in_gap(t(0)));
        assert!(g.in_gap(t(5)));
        assert!(!g.in_gap(t(6)));
        assert!(!g.in_gap(t(39)));
        assert!(g.in_gap(t(40)));
    }

    #[test]
    fn duty_cycle() {
        assert!((GapSchedule::nr_pattern0().duty_cycle() - 0.15).abs() < 1e-12);
        assert!((GapSchedule::dense().duty_cycle() - 0.30).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_patterns() {
        let mut g = GapSchedule::nr_pattern0();
        g.duration = SimDuration::from_millis(40);
        assert!(g.validate().is_err());
        let mut g2 = GapSchedule::nr_pattern0();
        g2.offset = SimDuration::from_millis(36);
        assert!(g2.validate().is_err());
        let mut g3 = GapSchedule::nr_pattern0();
        g3.duration = SimDuration::ZERO;
        assert!(g3.validate().is_err());
    }
}
