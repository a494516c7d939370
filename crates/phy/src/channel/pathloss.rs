//! Large-scale path-loss models for 60 GHz links.

use crate::units::{Carrier, Db};

/// A deterministic distance → loss model.
pub trait PathLossModel {
    fn loss(&self, distance_m: f64) -> Db;
}

/// Free-space (Friis) path loss.
#[derive(Debug, Clone, Copy)]
pub struct FreeSpace {
    pub carrier: Carrier,
}

impl PathLossModel for FreeSpace {
    fn loss(&self, distance_m: f64) -> Db {
        self.carrier.fspl(distance_m)
    }
}

/// Close-in reference model: `PL(d) = FSPL(1 m) + 10·n·log10(d)`.
///
/// Measurement campaigns at 60 GHz report exponents around n ≈ 2.0 for
/// LOS and n ≈ 3.2–3.7 for NLOS; the model is the standard choice for
/// mm-wave system studies and is what we use for the cell-edge scenarios.
#[derive(Debug, Clone, Copy)]
pub struct CloseIn {
    pub carrier: Carrier,
    pub exponent: f64,
}

impl PathLossModel for CloseIn {
    fn loss(&self, distance_m: f64) -> Db {
        let d = distance_m.max(1.0);
        self.carrier.fspl(1.0) + Db(10.0 * self.exponent * d.log10())
    }
}

/// 3GPP TR 38.901 UMi-Street-Canyon LOS path loss (simplified single-slope
/// region below the breakpoint distance, which covers the ≤200 m cells of
/// interest): `PL = 32.4 + 21·log10(d) + 20·log10(f_GHz)`.
#[derive(Debug, Clone, Copy)]
pub struct UmiStreetCanyonLos {
    pub carrier: Carrier,
}

impl PathLossModel for UmiStreetCanyonLos {
    fn loss(&self, distance_m: f64) -> Db {
        let d = distance_m.max(1.0);
        let f_ghz = self.carrier.frequency_hz / 1e9;
        Db(32.4 + 21.0 * d.log10() + 20.0 * f_ghz.log10())
    }
}

/// 3GPP TR 38.901 UMi-Street-Canyon NLOS:
/// `PL = 35.3·log10(d) + 22.4 + 21.3·log10(f_GHz)`, floored at LOS.
#[derive(Debug, Clone, Copy)]
pub struct UmiStreetCanyonNlos {
    pub carrier: Carrier,
}

impl PathLossModel for UmiStreetCanyonNlos {
    fn loss(&self, distance_m: f64) -> Db {
        let d = distance_m.max(1.0);
        let f_ghz = self.carrier.frequency_hz / 1e9;
        let nlos = Db(22.4 + 35.3 * d.log10() + 21.3 * f_ghz.log10());
        let los = UmiStreetCanyonLos {
            carrier: self.carrier,
        }
        .loss(distance_m);
        nlos.max(los)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_space_matches_carrier_fspl() {
        let m = FreeSpace {
            carrier: Carrier::MM_WAVE_60GHZ,
        };
        assert_eq!(m.loss(10.0), Carrier::MM_WAVE_60GHZ.fspl(10.0));
    }

    /// The close-in model at 60 GHz with path-loss exponent `n`.
    fn close_in(n: f64) -> CloseIn {
        CloseIn {
            carrier: Carrier::MM_WAVE_60GHZ,
            exponent: n,
        }
    }

    #[test]
    fn close_in_los_at_10m() {
        // 68 + 10*2*1 = 88 dB at 10 m (the paper's walk distance).
        let pl = close_in(2.0).loss(10.0);
        assert!((pl.0 - 88.0).abs() < 0.3, "{pl}");
    }

    #[test]
    fn close_in_monotone_in_distance() {
        let m = close_in(2.0);
        let mut prev = m.loss(1.0);
        for d in [2.0, 5.0, 10.0, 25.0, 60.0, 150.0] {
            let pl = m.loss(d);
            assert!(pl.0 > prev.0);
            prev = pl;
        }
    }

    #[test]
    fn close_in_clamps_below_reference() {
        let m = close_in(2.0);
        assert_eq!(m.loss(0.2), m.loss(1.0));
    }

    #[test]
    fn nlos_exceeds_los() {
        for d in [5.0, 20.0, 100.0] {
            assert!(close_in(3.3).loss(d).0 >= close_in(2.0).loss(d).0);
            let los = UmiStreetCanyonLos {
                carrier: Carrier::MM_WAVE_60GHZ,
            };
            let nlos = UmiStreetCanyonNlos {
                carrier: Carrier::MM_WAVE_60GHZ,
            };
            assert!(nlos.loss(d).0 >= los.loss(d).0);
        }
    }

    #[test]
    fn umi_los_reasonable_at_60ghz() {
        let m = UmiStreetCanyonLos {
            carrier: Carrier::MM_WAVE_60GHZ,
        };
        // 32.4 + 21 + 20*log10(60) ≈ 32.4 + 21 + 35.56 ≈ 89 dB at 10 m.
        assert!((m.loss(10.0).0 - 88.96).abs() < 0.1);
    }
}
