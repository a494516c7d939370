//! # st-des — deterministic discrete-event simulation engine
//!
//! The execution substrate for the Silent Tracker reproduction. Every
//! scenario (human walk, device rotation, vehicular drive-past) runs as a
//! discrete-event simulation over integer-nanosecond time:
//!
//! * [`time`] — `SimTime` / `SimDuration`, exact u64 nanoseconds.
//! * [`queue`] — the pending-event set: one binary heap keyed by
//!   (time, sequence), so simultaneous events pop FIFO and runs are
//!   bit-reproducible.
//! * [`sim`] — the [`sim::Executive`] run loop with deadline, halt and
//!   event-budget control.
//! * [`rng`] — named deterministic RNG streams (NS-3-style), so adding a
//!   stochastic component never perturbs existing draws.
//! * [`trace`] — bounded in-memory milestone trace for tests and examples.

pub mod queue;
pub mod rng;
pub mod sim;
pub mod time;
pub mod trace;

pub use queue::EventQueue;
pub use rng::RngStreams;
pub use sim::{Control, Executive, StopReason};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEntry, TraceLevel};
