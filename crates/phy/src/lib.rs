//! # st-phy — 60 GHz mm-wave physical layer
//!
//! The PHY substrate of the Silent Tracker reproduction. The paper's
//! prototype ran on the NI 60 GHz mmWave Transceiver System; this crate is
//! the synthetic stand-in (see DESIGN.md §1): it produces the in-band RSS
//! observations that drive every protocol transition, with the qualitative
//! dynamics of a real 60 GHz link — beam-misalignment rolloff, wall
//! reflections, correlated shadowing, Rician fading and pedestrian
//! blockage.
//!
//! Layering (bottom up):
//!
//! * [`units`] — dB / dBm / linear / carrier arithmetic.
//! * [`geometry`] — planar points, angles, poses, wall segments.
//! * [`stochastic`] — Gaussian/exponential sampling, Ornstein–Uhlenbeck
//!   shadowing, Rician fading, blockage processes.
//! * [`antenna`] — sectored and uniform-linear-array patterns.
//! * [`codebook`] — finite beam sets with adjacency (narrow 20° / wide
//!   60° / omni, matching Fig. 2a of the paper).
//! * [`channel`] — path loss, image-method ray tracing, and the composite
//!   [`channel::LinkChannel`].
//! * [`link`] — the link budget producing RSS / SNR / detection.

pub mod antenna;
pub mod channel;
pub mod codebook;
pub mod geometry;
pub mod link;
pub mod stochastic;
pub mod units;

pub use antenna::{Pattern, SectoredPattern, UlaPattern};
pub use channel::{ChannelConfig, Environment, LinkChannel, PathSample, Wall};
pub use codebook::{Beam, BeamId, BeamwidthClass, Codebook};
pub use geometry::{Degrees, Pose, Radians, Vec2};
pub use link::{acquirable, detectable, packet_success_probability, rss, snr, RadioConfig};
pub use units::{Carrier, Db, Dbm};
