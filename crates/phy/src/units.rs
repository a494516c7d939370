//! Strongly-typed RF units and conversions.
//!
//! Model parameters are quoted in decibels (losses, gains, thresholds),
//! and the Silent Tracker protocol itself is defined over RSS
//! *differences* in dB (3 dB beam-switch threshold, 10 dB loss
//! threshold). The per-sample phy kernel multiplies linear power ratios
//! and converts to dBm once per RSS output. Newtypes keep dB and linear
//! quantities from mixing.

use std::f64::consts::LN_10;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A relative power ratio in decibels (gain or loss).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Db(pub f64);

/// An absolute power level in dBm (decibels relative to 1 milliwatt).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Dbm(pub f64);

impl Db {
    pub const ZERO: Db = Db(0.0);

    /// Convert a linear power *ratio* to decibels.
    pub fn from_linear(ratio: f64) -> Db {
        debug_assert!(ratio > 0.0, "dB of non-positive ratio");
        Db(10.0 * ratio.log10())
    }

    /// The linear power ratio corresponding to this many decibels, as
    /// one `exp`.
    pub fn linear(self) -> f64 {
        (self.0 * (LN_10 / 10.0)).exp()
    }

    pub fn abs(self) -> Db {
        Db(self.0.abs())
    }

    pub fn max(self, other: Db) -> Db {
        Db(self.0.max(other.0))
    }

    pub fn min(self, other: Db) -> Db {
        Db(self.0.min(other.0))
    }
}

impl Dbm {
    /// Thermal noise power spectral density at T = 290 K, in dBm/Hz.
    pub const THERMAL_NOISE_DENSITY: f64 = -173.975;

    /// Thermal noise floor for a receiver of bandwidth `bw_hz` and noise
    /// figure `nf`: `-174 + 10 log10(BW) + NF` dBm.
    pub fn noise_floor(bw_hz: f64, nf: Db) -> Dbm {
        Dbm(Self::THERMAL_NOISE_DENSITY + 10.0 * bw_hz.log10() + nf.0)
    }

    pub fn max(self, other: Dbm) -> Dbm {
        Dbm(self.0.max(other.0))
    }

    pub fn min(self, other: Dbm) -> Dbm {
        Dbm(self.0.min(other.0))
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl AddAssign for Db {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl SubAssign for Db {
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.0;
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl Mul<f64> for Db {
    type Output = Db;
    fn mul(self, rhs: f64) -> Db {
        Db(self.0 * rhs)
    }
}

impl Div<f64> for Db {
    type Output = Db;
    fn div(self, rhs: f64) -> Db {
        Db(self.0 / rhs)
    }
}

impl Add<Db> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl Sub<Dbm> for Dbm {
    /// The difference of two absolute levels is a relative ratio.
    type Output = Db;
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl AddAssign<Db> for Dbm {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl SubAssign<Db> for Dbm {
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.0;
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

/// Carrier frequency description with derived quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Carrier {
    /// Carrier frequency in Hz.
    pub frequency_hz: f64,
}

impl Carrier {
    /// Speed of light in m/s.
    pub const C: f64 = 299_792_458.0;

    /// The 60 GHz unlicensed band used by the paper's NI testbed.
    pub const MM_WAVE_60GHZ: Carrier = Carrier {
        frequency_hz: 60.0e9,
    };

    /// 5G NR FR2 n257 band (28 GHz), for comparison scenarios.
    pub const MM_WAVE_28GHZ: Carrier = Carrier {
        frequency_hz: 28.0e9,
    };

    pub fn wavelength_m(self) -> f64 {
        Self::C / self.frequency_hz
    }

    /// Free-space path loss at distance `d_m` (Friis), in dB.
    pub fn fspl(self, d_m: f64) -> Db {
        let d = d_m.max(1e-3);
        Db(20.0 * d.log10() + 20.0 * self.frequency_hz.log10() - 147.552_216_76)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn db_linear_round_trip() {
        for v in [-30.0, -3.0, 0.0, 3.0, 10.0, 20.0] {
            let db = Db(v);
            assert!(close(Db::from_linear(db.linear()).0, v, 1e-9));
        }
    }

    #[test]
    fn three_db_is_double_power() {
        assert!(close(Db(3.0103).linear(), 2.0, 1e-3));
    }

    #[test]
    fn dbm_difference_is_db() {
        let a = Dbm(-60.0);
        let b = Dbm(-63.0);
        assert!(close((a - b).0, 3.0, 1e-12));
    }

    #[test]
    fn noise_floor_2ghz_bandwidth() {
        // The NI 60 GHz testbed digitizes ~2 GHz. -174 + 93 + 7 ≈ -74 dBm.
        let nf = Dbm::noise_floor(2.0e9, Db(7.0));
        assert!(close(nf.0, -73.96, 0.05), "{nf}");
    }

    #[test]
    fn fspl_60ghz_at_1m_is_about_68db() {
        let pl = Carrier::MM_WAVE_60GHZ.fspl(1.0);
        assert!(close(pl.0, 68.0, 0.3), "{pl}");
    }

    #[test]
    fn fspl_doubling_distance_adds_6db() {
        let c = Carrier::MM_WAVE_60GHZ;
        let d1 = c.fspl(10.0);
        let d2 = c.fspl(20.0);
        assert!(close((d2 - d1).0, 6.0206, 1e-3));
    }

    #[test]
    fn wavelength_60ghz_is_5mm() {
        assert!(close(Carrier::MM_WAVE_60GHZ.wavelength_m(), 0.004997, 1e-5));
    }

    #[test]
    fn db_arithmetic() {
        assert_eq!((Db(3.0) + Db(4.0)).0, 7.0);
        assert_eq!((Db(3.0) - Db(4.0)).0, -1.0);
        assert_eq!((-Db(3.0)).0, -3.0);
        assert_eq!((Db(3.0) * 2.0).0, 6.0);
        assert_eq!((Db(3.0) / 2.0).0, 1.5);
        let mut x = Dbm(-60.0);
        x += Db(5.0);
        x -= Db(2.0);
        assert_eq!(x.0, -57.0);
    }
}
