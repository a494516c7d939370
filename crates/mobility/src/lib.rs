//! # st-mobility — device mobility models
//!
//! The three mobility scenarios of the paper's evaluation, plus their
//! composition:
//!
//! * [`walk::HumanWalk`] — 1.4 m/s walk with gait sway and device yaw
//!   wobble (Fig. 2a / 2c "Walk").
//! * [`rotation::DeviceRotation`] — ω = 120 °/s spin (Fig. 2c "Rotation").
//! * [`vehicular::Vehicular`] — 20 mph drive-past (Fig. 2c "Vehicular").
//! * [`composite`] — superimposed models (e.g. walking *while* turning
//!   the device — the combined stress case the paper leaves implicit).
//!
//! Models are pure functions of time (see [`model::MobilityModel`]); any
//! randomness (a walker's gait phase, say) is drawn by the caller from a
//! seeded RNG and passed in at construction, so scenario runs are
//! exactly reproducible.

pub mod composite;
pub mod model;
pub mod rotation;
pub mod vehicular;
pub mod walk;

pub use composite::{Composite, Periodic, TurnAt};
pub use model::{BoxedModel, MobilityModel, Stationary};
pub use rotation::DeviceRotation;
pub use vehicular::{mph_to_mps, Vehicular};
pub use walk::HumanWalk;
