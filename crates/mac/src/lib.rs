//! # st-mac — mm-wave MAC substrate
//!
//! Frame-level machinery beneath the Silent Tracker protocol:
//!
//! * [`timing`] — SSB beam-sweep burst sets (NR-FR2-style 20 ms periods;
//!   64 beams × 20 ms reproduces the paper's 1.28 s worst-case initial
//!   search) and timing-advance arithmetic.
//! * [`pdu`] — strict binary wire formats for the six control PDUs a
//!   run sends, with CRC-16 integrity checking (a trace file embeds the
//!   PDUs the protocol received, and a corrupted frame read back from it
//!   is rejected deterministically).
//! * [`rach`] — PRACH occasions bound to SSB beams and the sans-IO 4-step
//!   random-access state machine (UE side), including the soft-handover
//!   context token in Msg3.
//! * [`responder`] — the base-station side: RAR scheduling, duplicate
//!   preamble handling, admission control, and the backhaul context
//!   fetch that distinguishes soft from hard admission.
//! * [`schedule`] — measurement-gap schedules partitioning airtime
//!   between the serving link and (silent) neighbor tracking.

pub mod pdu;
pub mod rach;
pub mod responder;
pub mod schedule;
pub mod timing;

pub use pdu::{CellId, DecodeError, Pdu, UeId};
pub use rach::{PrachConfig, RachAction, RachConfig, RachError, RachProcedure, RachState};
pub use responder::{Msg4Plan, RachResponder, RarPlan, ResponderConfig};
pub use schedule::GapSchedule;
pub use timing::{SsbConfig, TimingAdvance, TxBeamIndex};
