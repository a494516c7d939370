//! The mobility-model abstraction.
//!
//! A model is a *deterministic function of time* rather than a stateful
//! stepper: the discrete-event simulator samples poses at event times
//! (which are irregular — SSB instants, measurement gaps), and a pure
//! `pose_at(t)` makes those samples exact and replayable regardless of the
//! sampling schedule. A randomized model takes its randomness once, at
//! construction, from a seeded RNG.

use st_phy::geometry::{Pose, Radians, Vec2};

/// A deterministic trajectory of a device through time.
pub trait MobilityModel {
    /// Pose at absolute scenario time `t_s` seconds.
    fn pose_at(&self, t_s: f64) -> Pose;

    /// Instantaneous speed at `t_s`, m/s (numerical default).
    fn speed_at(&self, t_s: f64) -> f64 {
        let dt = 1e-3;
        let a = self.pose_at(t_s).position;
        let b = self.pose_at(t_s + dt).position;
        a.distance(b) / dt
    }

    /// Instantaneous angular rate of the heading at `t_s`, rad/s
    /// (numerical default).
    fn angular_rate_at(&self, t_s: f64) -> f64 {
        let dt = 1e-3;
        let a = self.pose_at(t_s).heading;
        let b = self.pose_at(t_s + dt).heading;
        (b - a).wrapped().0 / dt
    }
}

/// A device that never moves. The degenerate baseline for tests and the
/// model for the (fixed) base stations.
#[derive(Debug, Clone, Copy)]
pub struct Stationary {
    pub pose: Pose,
}

impl Stationary {
    pub fn at(position: Vec2, heading: Radians) -> Stationary {
        Stationary {
            pose: Pose::new(position, heading),
        }
    }
}

impl MobilityModel for Stationary {
    fn pose_at(&self, _t_s: f64) -> Pose {
        self.pose
    }

    fn speed_at(&self, _t_s: f64) -> f64 {
        0.0
    }

    fn angular_rate_at(&self, _t_s: f64) -> f64 {
        0.0
    }
}

/// Boxed model, for heterogeneous scenario configuration.
pub type BoxedModel = Box<dyn MobilityModel + Send + Sync>;

impl MobilityModel for BoxedModel {
    fn pose_at(&self, t_s: f64) -> Pose {
        (**self).pose_at(t_s)
    }

    fn speed_at(&self, t_s: f64) -> f64 {
        (**self).speed_at(t_s)
    }

    fn angular_rate_at(&self, t_s: f64) -> f64 {
        (**self).angular_rate_at(t_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_never_moves() {
        let s = Stationary::at(Vec2::new(3.0, 4.0), Radians(1.0));
        for t in [0.0, 1.0, 100.0] {
            assert_eq!(s.pose_at(t).position, Vec2::new(3.0, 4.0));
            assert_eq!(s.pose_at(t).heading, Radians(1.0));
        }
        assert_eq!(s.speed_at(5.0), 0.0);
        assert_eq!(s.angular_rate_at(5.0), 0.0);
    }

    #[test]
    fn boxed_model_delegates() {
        let b: BoxedModel = Box::new(Stationary::at(Vec2::ZERO, Radians(0.5)));
        assert_eq!(b.pose_at(1.0).heading, Radians(0.5));
        assert_eq!(b.speed_at(1.0), 0.0);
    }
}
