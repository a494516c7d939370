//! # st-env — dynamic propagation environments
//!
//! The stochastic [`st_phy::stochastic::BlockageProcess`] models mm-wave
//! blockage as a geometry-free on/off Markov chain: a bus crossing the
//! street and a random fade are indistinguishable, and every link's
//! blockage is independent of every other's. This crate replaces that
//! duty cycle — when a scenario opts in — with *deterministic moving
//! obstacles* that occlude rays geometrically:
//!
//! * [`Blocker`] — a moving line-segment obstacle (pedestrian, car, bus)
//!   whose trajectory is any [`st_mobility::MobilityModel`]; its depth
//!   along the ray parameterizes how opaque its shadow is.
//! * [`diffraction`] — single knife-edge diffraction: a ray cut by a
//!   blocker loses a sharp but *finite* amount of power, set by how deep
//!   the crossing point sits behind the blocker's nearest edge (and
//!   capped by through-body absorption).
//! * [`DynamicEnvironment`] — wraps the static [`st_phy::Environment`]
//!   (walls) with a blocker set and a coarse time-indexed spatial cull,
//!   and applies a per-instant occlusion pass over an already-traced
//!   [`st_phy::channel::PathSet`] with zero steady-state allocation.
//! * [`scenarios`] — an urban scenario library (crowd crossings, bus
//!   routes, mixed street traffic) built declaratively from a seed.
//!
//! Because occlusion is a pure function of (time, geometry) — no RNG is
//! consumed — adding blockers never perturbs the stochastic draws of a
//! seeded run, and fleet aggregates stay bit-identical across shard and
//! worker counts. Correlation across UEs comes for free: one bus shadows
//! every link it crosses.
//!
//! ```
//! use st_env::{Blocker, DynamicEnvironment, OcclusionScratch};
//! use st_mobility::Stationary;
//! use st_phy::channel::{ChannelConfig, Environment, LinkChannel, PathSet};
//! use st_phy::geometry::{Radians, Vec2};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A stationary pedestrian standing right on the LOS path.
//! let body = Blocker::pedestrian(Box::new(Stationary::at(
//!     Vec2::new(5.0, 0.0),
//!     Radians(1.2),
//! )));
//! let dynamics = DynamicEnvironment::new(
//!     Environment::open(),
//!     vec![body],
//!     st_phy::units::Carrier::MM_WAVE_60GHZ,
//!     10.0,
//! );
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut ch = LinkChannel::new(&mut rng, ChannelConfig::deterministic());
//! let mut set = PathSet::new();
//! let (tx, rx) = (Vec2::ZERO, Vec2::new(10.0, 0.0));
//! ch.trace_into(&mut rng, dynamics.statics(), tx, rx, &mut set);
//! let clear = set.samples()[0].gain();
//!
//! let mut scratch = OcclusionScratch::new();
//! dynamics.occlude(0.0, tx, rx, &mut set, &mut scratch);
//! assert!(set.samples()[0].gain().0 < clear.0 - 3.0, "body casts a shadow");
//! ```

pub mod blocker;
pub mod diffraction;
pub mod dynamic;
pub mod scenarios;

pub use blocker::{Blocker, Orientation};
pub use diffraction::{knife_edge_excess_db, leg_occlusion};
pub use dynamic::{DynamicEnvironment, OcclusionScratch};
pub use scenarios::{bus_route, crowd_crossing, BlockerPopulation};
