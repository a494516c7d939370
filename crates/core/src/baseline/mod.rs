//! Comparison protocols for the evaluation.
//!
//! * [`reactive::ReactiveHandover`] — the hard-handover strawman: no
//!   neighbor activity until the serving link fails, then a cold full
//!   search and context-free access (what the paper's §2 argues is not
//!   viable at mm-wave).
//!
//! The omni "baseline" of Fig. 2a needs no protocol of its own — it is
//! [`SilentTracker`](crate::tracker::SilentTracker) run with the
//! single-beam omni codebook.

pub mod reactive;

pub use reactive::ReactiveHandover;
