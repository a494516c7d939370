//! 2-D geometry: points, vectors, angles, poses.
//!
//! The cell-edge scenarios in the paper are planar (walker, turntable,
//! street), so the whole stack works in 2-D azimuth. Elevation is folded
//! into the antenna pattern as a fixed elevation beamwidth.

use std::f64::consts::{PI, TAU};
use std::ops::{Add, Mul, Neg, Sub};

/// A point or displacement in the horizontal plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    pub x: f64,
    pub y: f64,
}

impl Vec2 {
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    pub fn new(x: f64, y: f64) -> Vec2 {
        Vec2 { x, y }
    }

    /// Unit vector pointing along `angle` (radians, CCW from +x).
    pub fn from_angle(angle: Radians) -> Vec2 {
        Vec2::new(angle.0.cos(), angle.0.sin())
    }

    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the 3-D cross product; positive when `other` is CCW
    /// from `self`.
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Bearing of this displacement vector, CCW from +x.
    pub fn angle(self) -> Radians {
        Radians(self.y.atan2(self.x))
    }

    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n < 1e-12 {
            Vec2::ZERO
        } else {
            self * (1.0 / n)
        }
    }

    /// Rotate CCW by `angle`.
    pub fn rotated(self, angle: Radians) -> Vec2 {
        let (s, c) = angle.0.sin_cos();
        Vec2::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }

    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

/// An angle in radians. Not automatically normalized; use [`Radians::wrapped`]
/// when a canonical (-π, π] representation is needed.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Radians(pub f64);

/// An angle in degrees, used at API boundaries (codebook beamwidths are
/// quoted in degrees in the paper: 20°, 60°).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Degrees(pub f64);

impl Radians {
    pub const PI: Radians = Radians(PI);

    pub fn from_degrees(deg: f64) -> Radians {
        Radians(deg.to_radians())
    }

    pub fn degrees(self) -> Degrees {
        Degrees(self.0.to_degrees())
    }

    /// Wrap into (-π, π].
    ///
    /// IEEE `fmod` is exact and returns `x` itself when `|x| < TAU`, so
    /// that range skips the `%` (a libm call) without changing a bit; NaN
    /// and ±inf still take it.
    pub fn wrapped(self) -> Radians {
        let mut a = if self.0.abs() < TAU {
            self.0
        } else {
            self.0 % TAU
        };
        if a <= -PI {
            a += TAU;
        } else if a > PI {
            a -= TAU;
        }
        Radians(a)
    }

    /// Smallest absolute angular separation to `other`, in [0, π].
    pub fn separation(self, other: Radians) -> Radians {
        Radians((self - other).wrapped().0.abs())
    }
}

impl Degrees {
    pub fn radians(self) -> Radians {
        Radians::from_degrees(self.0)
    }
}

impl Add for Radians {
    type Output = Radians;
    fn add(self, rhs: Radians) -> Radians {
        Radians(self.0 + rhs.0)
    }
}

impl Sub for Radians {
    type Output = Radians;
    fn sub(self, rhs: Radians) -> Radians {
        Radians(self.0 - rhs.0)
    }
}

impl Mul<f64> for Radians {
    type Output = Radians;
    fn mul(self, rhs: f64) -> Radians {
        Radians(self.0 * rhs)
    }
}

impl Neg for Radians {
    type Output = Radians;
    fn neg(self) -> Radians {
        Radians(-self.0)
    }
}

/// Position plus facing direction of a device in the plane.
///
/// `heading` is the direction the device (and hence its antenna array
/// boresight reference) points; receive-beam boresights are defined
/// relative to it, so rotating the device rotates every beam — that is
/// exactly the effect the paper's 120 °/s rotation scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose {
    pub position: Vec2,
    pub heading: Radians,
}

impl Pose {
    pub fn new(position: Vec2, heading: Radians) -> Pose {
        Pose { position, heading }
    }

    /// Angle of arrival of a signal from `source`, in the device's local
    /// frame (0 = device boresight).
    pub fn local_bearing_to(self, source: Vec2) -> Radians {
        ((source - self.position).angle() - self.heading).wrapped()
    }

    /// Convert a device-local beam boresight to a global bearing.
    pub fn to_global(self, local: Radians) -> Radians {
        (local + self.heading).wrapped()
    }
}

/// A wall segment for the image-method ray tracer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub a: Vec2,
    pub b: Vec2,
}

impl Segment {
    pub fn new(a: Vec2, b: Vec2) -> Segment {
        Segment { a, b }
    }

    pub fn length(self) -> f64 {
        self.a.distance(self.b)
    }

    /// Intersection parameter of `self` with the segment `p→q`, if the two
    /// segments properly intersect. Returns `(t_self, point)` with
    /// `t_self ∈ [0,1]` along `self`.
    pub fn intersect(self, p: Vec2, q: Vec2) -> Option<(f64, Vec2)> {
        let r = self.b - self.a;
        let s = q - p;
        let denom = r.cross(s);
        if denom.abs() < 1e-12 {
            return None; // parallel
        }
        let t = (p - self.a).cross(s) / denom;
        let u = (p - self.a).cross(r) / denom;
        if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&u) {
            Some((t, self.a + r * t))
        } else {
            None
        }
    }

    /// Mirror a point across the (infinite) line through this segment:
    /// the projection r·(ap·r)/(r·r) needs no square root. A segment
    /// shorter than 1e-12 m has no line, so the point is mirrored
    /// through `a`.
    pub fn mirror(self, p: Vec2) -> Vec2 {
        let r = self.b - self.a;
        let ap = p - self.a;
        let rr = r.norm_sq();
        let perp = if rr < 1e-24 {
            ap
        } else {
            ap - r * (ap.dot(r) / rr)
        };
        p - perp * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn vec_basics() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_sq(), 25.0);
        assert_eq!(v.distance(Vec2::ZERO), 5.0);
        assert!(close(v.normalized().norm(), 1.0, 1e-12));
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }

    #[test]
    fn vec_angle_round_trip() {
        for deg in [-170.0, -90.0, 0.0, 45.0, 90.0, 179.0] {
            let a = Radians::from_degrees(deg);
            let v = Vec2::from_angle(a);
            assert!(close(v.angle().0, a.0, 1e-12), "{deg}");
        }
    }

    #[test]
    fn rotation_quarter_turn() {
        let v = Vec2::new(1.0, 0.0).rotated(Radians(PI / 2.0));
        assert!(close(v.x, 0.0, 1e-12) && close(v.y, 1.0, 1e-12));
    }

    #[test]
    fn wrap_into_range() {
        assert!(close(Radians(3.0 * PI).wrapped().0, PI, 1e-12));
        assert!(close(Radians(-3.0 * PI).wrapped().0, PI, 1e-12));
        assert!(close(Radians(TAU + 0.1).wrapped().0, 0.1, 1e-12));
        assert!(close(Radians(0.0).wrapped().0, 0.0, 1e-12));
    }

    #[test]
    fn separation_is_symmetric_and_small() {
        let a = Radians::from_degrees(170.0);
        let b = Radians::from_degrees(-170.0);
        assert!(close(a.separation(b).degrees().0, 20.0, 1e-9));
        assert!(close(b.separation(a).degrees().0, 20.0, 1e-9));
    }

    #[test]
    fn pose_local_bearing() {
        // Device at origin facing +y; source on +x axis is at -90° local.
        let pose = Pose::new(Vec2::ZERO, Radians(PI / 2.0));
        let local = pose.local_bearing_to(Vec2::new(5.0, 0.0));
        assert!(close(local.degrees().0, -90.0, 1e-9));
        // Round-trip back to global.
        assert!(close(pose.to_global(local).degrees().0, 0.0, 1e-9));
    }

    #[test]
    fn segment_intersection() {
        let wall = Segment::new(Vec2::new(0.0, -1.0), Vec2::new(0.0, 1.0));
        let hit = wall.intersect(Vec2::new(-1.0, 0.0), Vec2::new(1.0, 0.0));
        let (t, p) = hit.unwrap();
        assert!(close(t, 0.5, 1e-12));
        assert!(close(p.x, 0.0, 1e-12) && close(p.y, 0.0, 1e-12));
        // Parallel: no intersection.
        assert!(wall
            .intersect(Vec2::new(1.0, -1.0), Vec2::new(1.0, 1.0))
            .is_none());
        // Out of range: no intersection.
        assert!(wall
            .intersect(Vec2::new(-1.0, 5.0), Vec2::new(1.0, 5.0))
            .is_none());
    }

    #[test]
    fn mirror_across_vertical_wall() {
        let wall = Segment::new(Vec2::new(2.0, -1.0), Vec2::new(2.0, 1.0));
        let m = wall.mirror(Vec2::new(0.0, 0.5));
        assert!(close(m.x, 4.0, 1e-12) && close(m.y, 0.5, 1e-12));
    }

    #[test]
    fn degrees_radians_round_trip() {
        let d = Degrees(57.0);
        assert!(close(d.radians().degrees().0, 57.0, 1e-12));
    }
}
