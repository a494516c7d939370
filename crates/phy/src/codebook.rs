//! Beam codebooks: finite sets of steerable beams covering the azimuth.
//!
//! The paper evaluates three mobile-side codebooks — narrow (20°), wide
//! (60°) and a single omni beam — and the protocol's core action is
//! "switch to one of the *directionally adjacent* receive beams", so the
//! codebook exposes adjacency explicitly.

use crate::antenna::{Pattern, SectoredPattern, UlaPattern};
use crate::geometry::{Degrees, Radians};
use crate::units::Db;

/// Index of a beam within a codebook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BeamId(pub u16);

impl BeamId {
    pub const OMNI: BeamId = BeamId(0);
}

impl std::fmt::Display for BeamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// One entry of a codebook: a boresight direction (in the device-local
/// frame) plus the pattern shape, with the pattern's linear peak and
/// side-lobe floor evaluated once for the link budget's sweeps.
#[derive(Debug, Clone)]
pub struct Beam {
    pub id: BeamId,
    /// Boresight in the device-local frame.
    pub boresight: Radians,
    pattern: PatternKind,
    /// Peak gain as a linear power ratio.
    peak_linear: f64,
    /// A sectored beam's side-lobe floor as a linear power ratio.
    floor_linear: f64,
}

#[derive(Debug, Clone)]
enum PatternKind {
    Sectored(SectoredPattern),
    Ula(UlaPattern),
}

impl Beam {
    fn new(id: BeamId, boresight: Radians, pattern: PatternKind) -> Beam {
        let (peak, floor) = match &pattern {
            PatternKind::Sectored(p) => (p.peak, p.peak - p.sidelobe_level),
            PatternKind::Ula(p) => (p.peak_gain(), p.peak_gain()),
        };
        Beam {
            id,
            boresight,
            pattern,
            peak_linear: peak.linear(),
            floor_linear: floor.linear(),
        }
    }

    /// [`gain_towards`](Beam::gain_towards) as a linear power ratio,
    /// equal to it in exact arithmetic: the cached peak times a main-lobe
    /// `exp` for a sectored beam (the cached floor past the side-lobe
    /// level, the peak for an omni beam), the peak times the normalized
    /// array factor for a ULA beam.
    pub fn linear_gain_towards(&self, aoa: Radians) -> f64 {
        let offset = (aoa - self.boresight).wrapped();
        match &self.pattern {
            PatternKind::Sectored(p) if p.is_omni() => self.peak_linear,
            PatternKind::Sectored(p) => {
                let rolloff = 12.0 * (offset.0.abs() / p.beamwidth.0).powi(2);
                if rolloff >= p.sidelobe_level.0 {
                    self.floor_linear
                } else {
                    self.peak_linear * Db(-rolloff).linear()
                }
            }
            PatternKind::Ula(p) => self.peak_linear * p.relative_power(offset),
        }
    }

    /// Gain towards a signal arriving at local angle `aoa`.
    pub fn gain_towards(&self, aoa: Radians) -> Db {
        let offset = (aoa - self.boresight).wrapped();
        match &self.pattern {
            PatternKind::Sectored(p) => p.gain(offset),
            PatternKind::Ula(p) => p.gain(offset),
        }
    }

    pub fn peak_gain(&self) -> Db {
        match &self.pattern {
            PatternKind::Sectored(p) => p.peak_gain(),
            PatternKind::Ula(p) => p.peak_gain(),
        }
    }

    pub fn half_power_beamwidth(&self) -> Radians {
        match &self.pattern {
            PatternKind::Sectored(p) => p.half_power_beamwidth(),
            PatternKind::Ula(p) => p.half_power_beamwidth(),
        }
    }
}

/// The beamwidth classes evaluated in Fig. 2a of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BeamwidthClass {
    /// 20° codebook ("Narrow" in Fig. 2a).
    Narrow,
    /// 60° codebook ("Wide" in Fig. 2a).
    Wide,
    /// Single quasi-omni beam ("Omni" in Fig. 2a).
    Omni,
}

impl BeamwidthClass {
    pub fn beamwidth(self) -> Option<Degrees> {
        match self {
            BeamwidthClass::Narrow => Some(Degrees(20.0)),
            BeamwidthClass::Wide => Some(Degrees(60.0)),
            BeamwidthClass::Omni => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            BeamwidthClass::Narrow => "Narrow",
            BeamwidthClass::Wide => "Wide",
            BeamwidthClass::Omni => "Omni",
        }
    }
}

/// The (at most two) directionally adjacent beams of a codebook entry,
/// stored inline so adjacency queries never allocate. Dereferences to a
/// `[BeamId]` slice and iterates by value, so it drops into the places a
/// `Vec<BeamId>` used to go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjacentBeams {
    beams: [BeamId; 2],
    len: u8,
}

impl AdjacentBeams {
    pub const EMPTY: AdjacentBeams = AdjacentBeams {
        beams: [BeamId(0); 2],
        len: 0,
    };

    fn one(b: BeamId) -> AdjacentBeams {
        AdjacentBeams {
            beams: [b, b],
            len: 1,
        }
    }

    fn two(a: BeamId, b: BeamId) -> AdjacentBeams {
        AdjacentBeams {
            beams: [a, b],
            len: 2,
        }
    }

    pub fn as_slice(&self) -> &[BeamId] {
        &self.beams[..self.len as usize]
    }
}

impl std::ops::Deref for AdjacentBeams {
    type Target = [BeamId];

    fn deref(&self) -> &[BeamId] {
        self.as_slice()
    }
}

impl IntoIterator for AdjacentBeams {
    type Item = BeamId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BeamId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.beams.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a AdjacentBeams {
    type Item = &'a BeamId;
    type IntoIter = std::slice::Iter<'a, BeamId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A finite set of beams covering the full azimuth, with adjacency.
#[derive(Debug, Clone)]
pub struct Codebook {
    beams: Vec<Beam>,
}

impl Codebook {
    /// Uniform sectored codebook: `n` beams with boresights every 360°/n,
    /// each of beamwidth 360°/n, so the -3 dB contours tile the circle.
    pub fn uniform_sectored(n: usize, elevation_bw: Degrees) -> Codebook {
        assert!(n >= 1, "codebook needs at least one beam");
        if n == 1 {
            return Codebook::omni(Db(2.0));
        }
        let bw = Degrees(360.0 / n as f64);
        let pattern = SectoredPattern::from_beamwidth(bw, elevation_bw);
        let beams = (0..n)
            .map(|i| {
                Beam::new(
                    BeamId(i as u16),
                    Radians::from_degrees(-180.0 + (i as f64 + 0.5) * bw.0),
                    PatternKind::Sectored(pattern),
                )
            })
            .collect();
        Codebook { beams }
    }

    /// Codebook for one of the paper's beamwidth classes.
    pub fn for_class(class: BeamwidthClass) -> Codebook {
        match class {
            BeamwidthClass::Narrow => Codebook::uniform_sectored(18, Degrees(60.0)),
            BeamwidthClass::Wide => Codebook::uniform_sectored(6, Degrees(60.0)),
            BeamwidthClass::Omni => Codebook::omni(Db(2.0)),
        }
    }

    /// Single quasi-omni beam.
    pub fn omni(gain: Db) -> Codebook {
        Codebook {
            beams: vec![Beam::new(
                BeamId::OMNI,
                Radians(0.0),
                PatternKind::Sectored(SectoredPattern::omni(gain)),
            )],
        }
    }

    /// Codebook built from ULA steering vectors: beams scan ±`scan_limit`
    /// off broadside in equal sine-space steps (front hemisphere only, as
    /// with a real phone array panel).
    pub fn ula(elements: usize, n_beams: usize, scan_limit: Radians) -> Codebook {
        assert!(n_beams >= 1);
        let beams = (0..n_beams)
            .map(|i| {
                let frac = if n_beams == 1 {
                    0.0
                } else {
                    -1.0 + 2.0 * i as f64 / (n_beams - 1) as f64
                };
                let scan = Radians((frac * scan_limit.0.sin()).asin());
                Beam::new(
                    BeamId(i as u16),
                    scan,
                    PatternKind::Ula(UlaPattern::steered(elements, scan)),
                )
            })
            .collect();
        Codebook { beams }
    }

    /// Codebook of a device with several ULA panels facing different
    /// directions (a real mm-wave phone carries ~3 antenna modules so
    /// that together they cover the full azimuth). Each panel contributes
    /// `beams_per_panel` beams scanning ±60° around the panel normal;
    /// panel normals are spread uniformly over the circle. Beam ids run
    /// panel-major, so directionally adjacent beams keep adjacent ids
    /// across panel seams and the standard [`Codebook::adjacent`]
    /// wrap-around stays geometrically correct.
    pub fn multi_panel_ula(panels: usize, elements: usize, beams_per_panel: usize) -> Codebook {
        assert!(panels >= 1 && beams_per_panel >= 1);
        let scan_limit = Radians::from_degrees(60.0);
        let mut entries: Vec<(f64, UlaPattern, Radians)> = Vec::new();
        for p in 0..panels {
            let normal = Radians(
                -std::f64::consts::PI + (p as f64 + 0.5) * std::f64::consts::TAU / panels as f64,
            );
            for i in 0..beams_per_panel {
                let frac = if beams_per_panel == 1 {
                    0.0
                } else {
                    -1.0 + 2.0 * i as f64 / (beams_per_panel - 1) as f64
                };
                let scan = Radians((frac * scan_limit.0.sin()).asin());
                let boresight = (normal + scan).wrapped();
                entries.push((boresight.0, UlaPattern::steered(elements, scan), boresight));
            }
        }
        // Sort by boresight angle so that consecutive ids are
        // directionally adjacent around the circle.
        entries.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let beams = entries
            .into_iter()
            .enumerate()
            .map(|(i, (_, pattern, boresight))| {
                Beam::new(BeamId(i as u16), boresight, PatternKind::Ula(pattern))
            })
            .collect();
        Codebook { beams }
    }

    pub fn len(&self) -> usize {
        self.beams.len()
    }

    pub fn is_empty(&self) -> bool {
        self.beams.is_empty()
    }

    pub fn beam(&self, id: BeamId) -> &Beam {
        &self.beams[id.0 as usize]
    }

    pub fn beams(&self) -> impl Iterator<Item = &Beam> {
        self.beams.iter()
    }

    pub fn ids(&self) -> impl Iterator<Item = BeamId> + '_ {
        self.beams.iter().map(|b| b.id)
    }

    /// The directionally adjacent beams of `id` (its neighbors on the
    /// azimuth circle). For a full-circle codebook this wraps; for a single
    /// beam it is empty. Returned inline ([`AdjacentBeams`] is `Copy`,
    /// at most two entries) — this sits on the per-probe hot path of the
    /// tracker and the executors, which must not allocate. `id` must be a
    /// beam of this codebook, so one comparison wraps each side.
    pub fn adjacent(&self, id: BeamId) -> AdjacentBeams {
        let n = self.beams.len();
        let i = usize::from(id.0);
        debug_assert!(i < n, "beam {id} outside a {n}-beam codebook");
        if n <= 1 {
            return AdjacentBeams::EMPTY;
        }
        if n == 2 {
            return AdjacentBeams::one(BeamId(1 - id.0));
        }
        let prev = if i == 0 { n - 1 } else { i - 1 };
        let next = if i + 1 == n { 0 } else { i + 1 };
        AdjacentBeams::two(BeamId(prev as u16), BeamId(next as u16))
    }

    /// The beam with maximum gain towards local angle `aoa` — the ground
    /// truth best beam (used by the oracle baseline and by tests).
    pub fn best_beam_towards(&self, aoa: Radians) -> BeamId {
        self.beams
            .iter()
            .max_by(|a, b| {
                a.gain_towards(aoa)
                    .0
                    .partial_cmp(&b.gain_towards(aoa).0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // Deterministic tie-break on id.
                    .then(b.id.0.cmp(&a.id.0).reverse())
            })
            .map(|b| b.id)
            .expect("non-empty codebook")
    }

    /// Gain of beam `id` towards local angle `aoa`.
    pub fn gain(&self, id: BeamId, aoa: Radians) -> Db {
        self.beam(id).gain_towards(aoa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_parameters() {
        assert_eq!(Codebook::for_class(BeamwidthClass::Narrow).len(), 18);
        assert_eq!(Codebook::for_class(BeamwidthClass::Wide).len(), 6);
        assert_eq!(Codebook::for_class(BeamwidthClass::Omni).len(), 1);
        assert_eq!(BeamwidthClass::Narrow.beamwidth(), Some(Degrees(20.0)));
        assert_eq!(BeamwidthClass::Omni.beamwidth(), None);
        assert_eq!(BeamwidthClass::Wide.label(), "Wide");
    }

    #[test]
    fn uniform_boresights_are_spread() {
        let cb = Codebook::uniform_sectored(6, Degrees(60.0));
        let mut angles: Vec<f64> = cb.beams().map(|b| b.boresight.degrees().0).collect();
        angles.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in angles.windows(2) {
            assert!((w[1] - w[0] - 60.0).abs() < 1e-9);
        }
    }

    #[test]
    fn full_coverage_no_deep_gaps() {
        // Every azimuth must be within 3 dB of some beam's peak: the
        // codebooks tile the circle at their half-power contours.
        for class in [BeamwidthClass::Narrow, BeamwidthClass::Wide] {
            let cb = Codebook::for_class(class);
            let peak = cb.beam(BeamId(0)).peak_gain();
            for deg in -180..180 {
                let aoa = Radians::from_degrees(deg as f64 + 0.5);
                let best = cb.best_beam_towards(aoa);
                let g = cb.gain(best, aoa);
                assert!(
                    (peak - g).0 <= 3.01,
                    "{class:?} gap at {deg}°: {:?} below peak",
                    peak - g
                );
            }
        }
    }

    #[test]
    fn adjacency_wraps_and_is_symmetric() {
        let cb = Codebook::uniform_sectored(18, Degrees(60.0));
        let adj0 = cb.adjacent(BeamId(0));
        assert!(adj0.contains(&BeamId(17)) && adj0.contains(&BeamId(1)));
        for id in cb.ids() {
            for a in cb.adjacent(id) {
                assert!(cb.adjacent(a).contains(&id), "asymmetric {id}↔{a}");
            }
        }
    }

    #[test]
    fn adjacency_degenerate_sizes() {
        assert!(Codebook::omni(Db(0.0)).adjacent(BeamId(0)).is_empty());
        let two = Codebook::uniform_sectored(2, Degrees(60.0));
        assert_eq!(two.adjacent(BeamId(0)).as_slice(), &[BeamId(1)]);
        assert_eq!(two.adjacent(BeamId(1)).as_slice(), &[BeamId(0)]);
    }

    #[test]
    fn best_beam_is_the_aligned_one() {
        let cb = Codebook::for_class(BeamwidthClass::Narrow);
        for id in cb.ids() {
            let bore = cb.beam(id).boresight;
            assert_eq!(cb.best_beam_towards(bore), id);
        }
    }

    #[test]
    fn narrow_peak_gain_exceeds_wide() {
        let n = Codebook::for_class(BeamwidthClass::Narrow);
        let w = Codebook::for_class(BeamwidthClass::Wide);
        let o = Codebook::for_class(BeamwidthClass::Omni);
        assert!(n.beam(BeamId(0)).peak_gain().0 > w.beam(BeamId(0)).peak_gain().0);
        assert!(w.beam(BeamId(0)).peak_gain().0 > o.beam(BeamId(0)).peak_gain().0);
    }

    #[test]
    fn ula_codebook_spans_scan_range() {
        let cb = Codebook::ula(16, 9, Radians::from_degrees(60.0));
        assert_eq!(cb.len(), 9);
        let first = cb.beam(BeamId(0)).boresight.degrees().0;
        let last = cb.beam(BeamId(8)).boresight.degrees().0;
        assert!((first + 60.0).abs() < 1e-6, "{first}");
        assert!((last - 60.0).abs() < 1e-6, "{last}");
        // Centre beam is broadside.
        assert!((cb.beam(BeamId(4)).boresight.0).abs() < 1e-9);
    }

    #[test]
    fn multi_panel_covers_full_azimuth() {
        let cb = Codebook::multi_panel_ula(3, 8, 6);
        assert_eq!(cb.len(), 18);
        // Every azimuth is served by some beam within 6 dB of that beam's
        // peak (panel seams are the worst case: the outermost beams are
        // scanned 60° off broadside and widen).
        for deg in -180..180 {
            let aoa = Radians::from_degrees(deg as f64 + 0.5);
            let best = cb.best_beam_towards(aoa);
            let loss = cb.beam(best).peak_gain() - cb.gain(best, aoa);
            assert!(loss.0 <= 8.0, "gap at {deg}°: {loss}");
        }
    }

    #[test]
    fn multi_panel_ids_are_angle_sorted() {
        let cb = Codebook::multi_panel_ula(3, 8, 6);
        let angles: Vec<f64> = cb.beams().map(|b| b.boresight.0).collect();
        for w in angles.windows(2) {
            assert!(w[0] <= w[1], "ids not sorted by boresight");
        }
        // Adjacency therefore remains geometric across panel seams.
        for id in cb.ids() {
            for adj in cb.adjacent(id) {
                let sep = cb.beam(id).boresight.separation(cb.beam(adj).boresight);
                assert!(sep.degrees().0 < 65.0, "{id}->{adj} separation {sep:?}");
            }
        }
    }

    #[test]
    fn omni_gain_is_angle_independent() {
        let cb = Codebook::omni(Db(2.0));
        for d in [-180.0, -31.0, 0.0, 99.0] {
            assert_eq!(cb.gain(BeamId::OMNI, Radians::from_degrees(d)), Db(2.0));
        }
    }
}
