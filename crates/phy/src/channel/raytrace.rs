//! First-order image-method ray tracer for a 2-D environment.
//!
//! mm-wave links are quasi-optical: besides the LOS ray there are a few
//! strong specular reflections off walls, and those reflections are what a
//! beam-searching mobile discovers when the direct path is blocked. The
//! tracer computes, for a (tx, rx) position pair, the set of propagation
//! rays — direct plus one bounce off each wall — with per-ray length,
//! angle of departure (AoD), angle of arrival (AoA), and excess loss
//! (reflection loss, and obstruction loss if another wall cuts the ray).
//!
//! Each ray costs one `atan2` and one `sqrt`. The image `tx'` of the
//! transmitter in a wall of bearing φ unfolds a reflection into the
//! straight segment `tx' → rx` of bearing α: the ray arrives from α + π
//! and, mirrored back across the wall, departs along 2φ − α. The direct
//! ray arrives from its departure bearing + π.

use crate::geometry::{Radians, Segment, Vec2};
use crate::units::Db;

/// One propagation path between transmitter and receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Total unfolded path length in metres.
    pub length_m: f64,
    /// Departure bearing at the transmitter (global frame).
    pub aod: Radians,
    /// Arrival bearing at the receiver (global frame): direction the
    /// energy *comes from*, i.e. pointing from rx towards the last
    /// interaction point (or the tx for the LOS ray).
    pub aoa: Radians,
    /// Linear power factor of the excess loss beyond distance-dependent
    /// path loss (reflection and penetration losses): 1 for an
    /// unobstructed direct ray, smaller otherwise.
    pub excess: f64,
    /// Whether this is the direct (line-of-sight) ray.
    pub is_los: bool,
    /// The interaction point for a reflected ray (where the ray bounces
    /// off its wall); `None` for the direct ray. Dynamic-environment
    /// occlusion needs it to test each leg of the folded path separately.
    pub via: Option<Vec2>,
}

/// A wall: a segment plus its electromagnetic properties. The tracer's
/// per-wall constants (twice the bearing, the linear loss factors) are
/// evaluated once here, so the fields are read through accessors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    segment: Segment,
    reflection_loss: Db,
    penetration_loss: Db,
    /// 2φ for the segment's bearing φ, wrapped into (−π, π].
    twice_bearing: Radians,
    /// `reflection_loss` as a linear power factor.
    reflection_factor: f64,
    /// `penetration_loss` as a linear power factor.
    penetration_factor: f64,
}

impl Wall {
    pub fn new(a: Vec2, b: Vec2, reflection_loss: Db, penetration_loss: Db) -> Wall {
        Wall {
            segment: Segment::new(a, b),
            reflection_loss,
            penetration_loss,
            twice_bearing: ((b - a).angle() * 2.0).wrapped(),
            reflection_factor: (-reflection_loss).linear(),
            penetration_factor: (-penetration_loss).linear(),
        }
    }

    pub fn concrete(a: Vec2, b: Vec2) -> Wall {
        Wall::new(a, b, Db(6.0), Db(30.0))
    }

    pub fn drywall(a: Vec2, b: Vec2) -> Wall {
        Wall::new(a, b, Db(10.0), Db(6.0))
    }

    pub fn glass(a: Vec2, b: Vec2) -> Wall {
        Wall::new(a, b, Db(8.0), Db(8.0))
    }

    pub fn segment(&self) -> Segment {
        self.segment
    }

    /// Loss applied to a ray specularly reflected off this wall.
    pub fn reflection_loss(&self) -> Db {
        self.reflection_loss
    }

    /// Loss applied to a ray penetrating this wall. 60 GHz penetration
    /// losses are large (concrete ≈ 30+ dB, drywall ≈ 6 dB).
    pub fn penetration_loss(&self) -> Db {
        self.penetration_loss
    }
}

/// The static propagation environment.
#[derive(Debug, Clone, Default)]
pub struct Environment {
    pub walls: Vec<Wall>,
}

impl Environment {
    /// Empty environment: free space, LOS only.
    pub fn open() -> Environment {
        Environment { walls: Vec::new() }
    }

    /// A street canyon: two parallel walls along the x-axis at y = ±w/2,
    /// the canonical outdoor mm-wave cell-edge geometry (BS on one wall,
    /// mobile walking down the street).
    pub fn street_canyon(length_m: f64, width_m: f64) -> Environment {
        let hw = width_m / 2.0;
        Environment {
            walls: vec![
                Wall::concrete(
                    Vec2::new(-length_m / 2.0, hw),
                    Vec2::new(length_m / 2.0, hw),
                ),
                Wall::concrete(
                    Vec2::new(-length_m / 2.0, -hw),
                    Vec2::new(length_m / 2.0, -hw),
                ),
            ],
        }
    }

    /// Linear penetration factor of the straight segment p→q crossing
    /// walls (excluding wall `skip`, identified by index).
    fn penetration_between(&self, p: Vec2, q: Vec2, skip: Option<usize>) -> f64 {
        let mut factor = 1.0;
        for (i, w) in self.walls.iter().enumerate() {
            if Some(i) != skip && w.segment.intersect(p, q).is_some() {
                factor *= w.penetration_factor;
            }
        }
        factor
    }

    /// Trace all first-order rays from `tx` to `rx`.
    ///
    /// Returns at least the LOS ray (with any penetration loss from walls
    /// crossing it) plus one specular reflection per wall where the image
    /// construction yields a valid reflection point.
    pub fn trace(&self, tx: Vec2, rx: Vec2) -> Vec<Ray> {
        let mut rays = Vec::with_capacity(1 + self.walls.len());
        self.trace_into(tx, rx, &mut rays);
        rays
    }

    /// Zero-allocation [`trace`](Environment::trace): clears `rays` and
    /// fills it in place, reusing its capacity. This is the hot-path entry
    /// point — a measurement instant traces each link once into a scratch
    /// buffer that lives as long as the link.
    pub fn trace_into(&self, tx: Vec2, rx: Vec2, rays: &mut Vec<Ray>) {
        rays.clear();

        // Direct ray.
        let direct = rx - tx;
        let aod = direct.angle();
        rays.push(Ray {
            length_m: direct.norm_sq().sqrt(),
            aod,
            aoa: (aod + Radians::PI).wrapped(),
            excess: self.penetration_between(tx, rx, None),
            is_los: true,
            via: None,
        });

        // One specular bounce per wall (image method).
        for (i, wall) in self.walls.iter().enumerate() {
            let image = wall.segment.mirror(tx);
            // The reflection point is where image→rx crosses the wall.
            let Some((_, refl_point)) = wall.segment.intersect(image, rx) else {
                continue;
            };
            // Degenerate: tx or rx on the wall itself (a leg under 1 µm).
            if (refl_point - tx).norm_sq() < 1e-12 || (rx - refl_point).norm_sq() < 1e-12 {
                continue;
            }
            // Obstruction by *other* walls on both legs, plus this wall's
            // reflection loss.
            let excess = wall.reflection_factor
                * self.penetration_between(tx, refl_point, Some(i))
                * self.penetration_between(refl_point, rx, Some(i));
            let unfolded = rx - image;
            let alpha = unfolded.angle();
            rays.push(Ray {
                length_m: unfolded.norm_sq().sqrt(),
                aod: (wall.twice_bearing - alpha).wrapped(),
                aoa: (alpha + Radians::PI).wrapped(),
                excess,
                is_los: false,
                via: Some(refl_point),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn open_space_single_los_ray() {
        let env = Environment::open();
        let rays = env.trace(Vec2::ZERO, Vec2::new(10.0, 0.0));
        assert_eq!(rays.len(), 1);
        let r = rays[0];
        assert!(r.is_los);
        assert!(close(r.length_m, 10.0, 1e-12));
        assert!(close(r.aod.degrees().0, 0.0, 1e-9));
        assert!(close(r.aoa.degrees().0, 180.0, 1e-9));
        assert_eq!(r.excess, 1.0);
    }

    #[test]
    fn canyon_has_wall_reflections() {
        let env = Environment::street_canyon(100.0, 20.0);
        let rays = env.trace(Vec2::new(-10.0, 0.0), Vec2::new(10.0, 0.0));
        // LOS + 2 reflections (one per wall).
        assert_eq!(rays.len(), 3);
        let refl: Vec<&Ray> = rays.iter().filter(|r| !r.is_los).collect();
        assert_eq!(refl.len(), 2);
        for r in refl {
            // Reflected path: two legs of sqrt(10² + 10²).
            assert!(close(r.length_m, 2.0 * (200.0f64).sqrt(), 1e-9));
            assert_eq!(r.excess, Db(-6.0).linear());
            // Departure angle ±45°.
            assert!(close(r.aod.degrees().0.abs(), 45.0, 1e-9));
            assert!(close(r.aoa.degrees().0.abs(), 135.0, 1e-9));
        }
    }

    #[test]
    fn reflection_angles_obey_snell() {
        // Specular reflection: angle in == angle out about the wall normal,
        // equivalent to the unfolded image path being straight.
        let env = Environment::street_canyon(200.0, 30.0);
        let tx = Vec2::new(-20.0, -5.0);
        let rx = Vec2::new(25.0, 3.0);
        for r in env.trace(tx, rx).iter().filter(|r| !r.is_los) {
            // Unfolded length ≥ direct distance (triangle inequality).
            assert!(r.length_m >= tx.distance(rx) - 1e-9);
        }
    }

    #[test]
    fn wall_between_endpoints_penetrates_los() {
        let wall = Wall::concrete(Vec2::new(0.0, -5.0), Vec2::new(0.0, 5.0));
        let env = Environment { walls: vec![wall] };
        let rays = env.trace(Vec2::new(-3.0, 0.0), Vec2::new(3.0, 0.0));
        let los = rays.iter().find(|r| r.is_los).unwrap();
        assert_eq!(los.excess, Db(-30.0).linear());
    }

    #[test]
    fn no_reflection_when_geometry_invalid() {
        // Wall far to the side: image→rx never crosses the finite segment.
        let wall = Wall::concrete(Vec2::new(100.0, 100.0), Vec2::new(101.0, 100.0));
        let env = Environment { walls: vec![wall] };
        let rays = env.trace(Vec2::ZERO, Vec2::new(10.0, 0.0));
        assert_eq!(rays.len(), 1);
        assert!(rays[0].is_los);
    }

    #[test]
    fn material_presets_differ() {
        let c = Wall::concrete(Vec2::ZERO, Vec2::new(1.0, 0.0));
        let d = Wall::drywall(Vec2::ZERO, Vec2::new(1.0, 0.0));
        let g = Wall::glass(Vec2::ZERO, Vec2::new(1.0, 0.0));
        assert!(c.penetration_loss().0 > g.penetration_loss().0);
        assert!(g.penetration_loss().0 >= d.penetration_loss().0);
        assert!(c.reflection_loss().0 < d.reflection_loss().0);
    }
}
