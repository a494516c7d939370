//! Antenna patterns: analytic sectored beams and uniform linear arrays.
//!
//! Two pattern families are provided:
//!
//! * [`SectoredPattern`] — the 3GPP-style parabolic main lobe with a
//!   side-lobe floor. Cheap, smooth, and parameterised directly by the
//!   half-power beamwidth, which is how the paper quotes its codebooks
//!   (20° narrow, 60° wide).
//! * [`UlaPattern`] — a true N-element uniform linear array steered by a
//!   phase progression, exhibiting the real array factor with nulls,
//!   side lobes, and beam broadening at end-fire. Used to validate that
//!   protocol behaviour does not depend on the idealized pattern.
//!
//! Both implement [`Pattern`], returning gain as a function of the angular
//! offset from boresight.

use crate::geometry::{Degrees, Radians};
use crate::units::Db;

/// Directional gain as a function of azimuth offset from boresight.
pub trait Pattern {
    /// Gain at `offset` from boresight.
    fn gain(&self, offset: Radians) -> Db;

    /// Peak (boresight) gain.
    fn peak_gain(&self) -> Db {
        self.gain(Radians(0.0))
    }

    /// Half-power (-3 dB) beamwidth, found numerically if not analytic.
    fn half_power_beamwidth(&self) -> Radians {
        let peak = self.peak_gain();
        // Scan outward in 0.05° steps until gain drops 3 dB below peak.
        let step = Radians::from_degrees(0.05);
        let mut a = 0.0;
        while a <= std::f64::consts::PI {
            if (peak - self.gain(Radians(a))).0 >= 3.0 {
                return Radians(2.0 * a);
            }
            a += step.0;
        }
        Radians(std::f64::consts::TAU)
    }
}

/// Peak directivity estimate for a beam of the given azimuth × elevation
/// half-power beamwidths, via the Kraus approximation
/// `D ≈ 41253 / (θ_az° · θ_el°)` with an aperture efficiency factor.
pub fn directivity_from_beamwidths(az: Degrees, el: Degrees, efficiency: f64) -> Db {
    debug_assert!(az.0 > 0.0 && el.0 > 0.0);
    let d = 41_253.0 / (az.0 * el.0) * efficiency;
    Db(10.0 * d.max(1.0).log10())
}

/// 3GPP TR 38.901-style sectored beam: parabolic main lobe, flat side-lobe
/// floor. `gain(θ) = G_peak - min(12 (θ/θ_3dB)², A_sl)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SectoredPattern {
    pub peak: Db,
    pub beamwidth: Radians,
    /// Side-lobe attenuation below peak, dB (positive).
    pub sidelobe_level: Db,
}

impl SectoredPattern {
    /// Build from an azimuth beamwidth, assuming a fixed elevation
    /// beamwidth (the device arrays in the paper steer only in azimuth).
    pub fn from_beamwidth(az: Degrees, el: Degrees) -> SectoredPattern {
        SectoredPattern {
            peak: directivity_from_beamwidths(az, el, 0.7),
            beamwidth: az.radians(),
            sidelobe_level: Db(20.0),
        }
    }

    /// An omnidirectional (in azimuth) pattern with the given fixed gain.
    pub fn omni(gain: Db) -> SectoredPattern {
        SectoredPattern {
            peak: gain,
            beamwidth: Radians(std::f64::consts::TAU),
            sidelobe_level: Db(0.0),
        }
    }

    pub fn is_omni(&self) -> bool {
        self.sidelobe_level.0 == 0.0
    }
}

impl Pattern for SectoredPattern {
    fn gain(&self, offset: Radians) -> Db {
        if self.is_omni() {
            return self.peak;
        }
        let theta = offset.wrapped().0.abs();
        let rolloff = 12.0 * (theta / self.beamwidth.0).powi(2);
        let att = rolloff.min(self.sidelobe_level.0);
        self.peak - Db(att)
    }

    fn half_power_beamwidth(&self) -> Radians {
        if self.is_omni() {
            Radians(std::f64::consts::TAU)
        } else {
            // 12 (θ/bw)² = 3  ⇒  θ = bw/2 at each side ⇒ full width = bw.
            self.beamwidth
        }
    }
}

/// Uniform linear array of isotropic elements with half-wavelength spacing,
/// steered to a scan angle by a linear phase progression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UlaPattern {
    pub elements: usize,
    /// Element spacing in wavelengths (0.5 is standard).
    pub spacing_wl: f64,
    /// Scan angle off broadside that the phase taper points to.
    pub scan: Radians,
    /// Per-element gain, dB.
    pub element_gain: Db,
}

impl UlaPattern {
    pub fn broadside(elements: usize) -> UlaPattern {
        UlaPattern {
            elements,
            spacing_wl: 0.5,
            scan: Radians(0.0),
            element_gain: Db(0.0),
        }
    }

    pub fn steered(elements: usize, scan: Radians) -> UlaPattern {
        UlaPattern {
            elements,
            spacing_wl: 0.5,
            scan,
            element_gain: Db(0.0),
        }
    }

    /// Normalized array factor power |AF|²/N² at physical angle `theta`
    /// (measured from broadside), linear scale in [0, 1].
    fn array_factor(&self, theta: f64) -> f64 {
        let n = self.elements as f64;
        // ψ = kd (sinθ − sinθ₀)
        let psi = std::f64::consts::TAU * self.spacing_wl * (theta.sin() - self.scan.0.sin());
        let half = psi / 2.0;
        if half.sin().abs() < 1e-9 {
            return 1.0;
        }
        let af = (n * half).sin() / (n * half.sin());
        af * af
    }

    /// Gain at `offset` from the steered boresight relative to the peak,
    /// as a linear power ratio in [1e-9, 1] (−90 dB floor in the nulls).
    pub(crate) fn relative_power(&self, offset: Radians) -> f64 {
        // `offset` is relative to the steered boresight; recover the
        // physical angle from broadside.
        let theta = (self.scan.0 + offset.wrapped().0)
            .clamp(-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2);
        self.array_factor(theta).max(1e-9)
    }
}

impl Pattern for UlaPattern {
    fn gain(&self, offset: Radians) -> Db {
        let af = self.relative_power(offset);
        // Peak array gain of an N-element ULA is N (in power).
        let peak = 10.0 * (self.elements as f64).log10();
        self.element_gain + Db(peak + 10.0 * af.log10())
    }

    fn peak_gain(&self) -> Db {
        self.element_gain + Db(10.0 * (self.elements as f64).log10())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directivity_narrow_beats_wide() {
        let narrow = directivity_from_beamwidths(Degrees(20.0), Degrees(60.0), 0.7);
        let wide = directivity_from_beamwidths(Degrees(60.0), Degrees(60.0), 0.7);
        assert!(narrow.0 > wide.0);
        // 41253*0.7/(20*60) = 24.06 → 13.8 dBi
        assert!((narrow.0 - 13.8).abs() < 0.2, "{narrow}");
        assert!((wide.0 - 9.04).abs() < 0.2, "{wide}");
    }

    #[test]
    fn sectored_peak_at_boresight() {
        let p = SectoredPattern::from_beamwidth(Degrees(20.0), Degrees(60.0));
        assert_eq!(p.gain(Radians(0.0)), p.peak);
        assert!(p.gain(Radians::from_degrees(5.0)).0 < p.peak.0);
    }

    #[test]
    fn sectored_3db_point_at_half_beamwidth() {
        let p = SectoredPattern::from_beamwidth(Degrees(20.0), Degrees(60.0));
        let g = p.gain(Radians::from_degrees(10.0));
        assert!(((p.peak - g).0 - 3.0).abs() < 0.01, "{:?}", p.peak - g);
        let bw = p.half_power_beamwidth();
        assert!((bw.degrees().0 - 20.0).abs() < 0.2);
    }

    #[test]
    fn sectored_sidelobe_floor() {
        let p = SectoredPattern::from_beamwidth(Degrees(20.0), Degrees(60.0));
        let back = p.gain(Radians::from_degrees(180.0));
        assert!(((p.peak - back).0 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn sectored_symmetric() {
        let p = SectoredPattern::from_beamwidth(Degrees(60.0), Degrees(60.0));
        for d in [5.0, 17.0, 45.0, 120.0] {
            let a = p.gain(Radians::from_degrees(d));
            let b = p.gain(Radians::from_degrees(-d));
            assert!((a.0 - b.0).abs() < 1e-9);
        }
    }

    #[test]
    fn omni_is_flat() {
        let p = SectoredPattern::omni(Db(2.0));
        for d in [0.0, 90.0, 180.0, -135.0] {
            assert_eq!(p.gain(Radians::from_degrees(d)), Db(2.0));
        }
        assert!(p.is_omni());
    }

    #[test]
    fn ula_peak_gain_is_10logn() {
        let u = UlaPattern::broadside(16);
        assert!((u.peak_gain().0 - 12.04).abs() < 0.01);
        assert!((u.gain(Radians(0.0)).0 - 12.04).abs() < 0.01);
    }

    #[test]
    fn ula_has_nulls_and_sidelobes() {
        let u = UlaPattern::broadside(16);
        // First null of a 16-element broadside ULA is at asin(2/16) ≈ 7.18°.
        let null = Radians((2.0 / 16.0f64).asin());
        assert!(u.gain(null).0 < u.peak_gain().0 - 25.0);
        // First sidelobe ≈ -13.3 dB below peak, near 1.5·(2/N).
        let sl = Radians((3.0 / 16.0f64).asin());
        let rel = u.peak_gain().0 - u.gain(sl).0;
        assert!((rel - 13.3).abs() < 1.5, "sidelobe rel {rel}");
    }

    #[test]
    fn ula_beamwidth_narrows_with_elements() {
        let bw8 = UlaPattern::broadside(8).half_power_beamwidth();
        let bw32 = UlaPattern::broadside(32).half_power_beamwidth();
        assert!(bw32.0 < bw8.0);
        // Rule of thumb: ~102°/N → 12.7° for N=8.
        assert!((bw8.degrees().0 - 12.8).abs() < 1.0, "{:?}", bw8.degrees());
    }

    #[test]
    fn ula_steering_moves_peak() {
        let scan = Radians::from_degrees(30.0);
        let u = UlaPattern::steered(16, scan);
        // At offset 0 (i.e. physical 30°) gain is the peak.
        assert!((u.gain(Radians(0.0)).0 - u.peak_gain().0).abs() < 0.01);
        // Away from boresight gain drops.
        assert!(u.gain(Radians::from_degrees(10.0)).0 < u.peak_gain().0 - 3.0);
    }
}
