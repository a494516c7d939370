//! Wire formats for the control-plane PDUs.
//!
//! Every message a run exchanges over the air (the CABM beam-switch
//! request and command, the four RACH messages) has an explicit binary
//! encoding:
//!
//! ```text
//! +------+-------------+-----------+------------+
//! | type | len (u16 BE)|  payload  | ck (u16 BE)|
//! +------+-------------+-----------+------------+
//! ```
//!
//! with a CRC-16/CCITT checksum over type, length and payload. The codec is
//! deliberately strict — truncation, bad checksums, unknown types and
//! trailing bytes are all errors — because frames are read back from
//! untrusted bytes: a trace file embeds every PDU the protocol received
//! from its serving cell, and the CRC rejects a corrupted one
//! deterministically. No code corrupts frames in flight.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Identifier of a cell (base station sector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u16);

/// Identifier of a mobile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UeId(pub u32);

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell{}", self.0)
    }
}

impl std::fmt::Display for UeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ue{}", self.0)
    }
}

/// Control-plane message bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pdu {
    /// Mobile → serving BS: mobile-side receive-beam adjustment no longer
    /// suffices, please switch your transmit beam (BeamSurfer step ii).
    BeamSwitchRequest {
        cell: CellId,
        ue: UeId,
        /// The transmit beam the mobile measured best, from sweep history.
        suggested_tx_beam: u16,
    },
    /// Serving BS → mobile: transmit beam switched.
    BeamSwitchCommand { cell: CellId, tx_beam: u16 },
    /// Mobile → target BS (Msg1): RACH preamble on a PRACH occasion
    /// associated with the detected SSB beam.
    RachPreamble {
        preamble: u8,
        /// SSB transmit-beam index the occasion is associated with; tells
        /// the BS which beam to answer on.
        ssb_beam: u16,
    },
    /// Target BS → mobile (Msg2): random-access response.
    RachResponse {
        preamble: u8,
        timing_advance_ns: u32,
        temp_ue: UeId,
    },
    /// Mobile → target BS (Msg3): connection/handover request. A nonzero
    /// `context_token` requests *soft* handover re-using an existing
    /// session context.
    ConnectionRequest { ue: UeId, context_token: u64 },
    /// Target BS → mobile (Msg4): contention resolution & admission.
    ContentionResolution { ue: UeId, accepted: bool },
}

/// Decoding failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    Truncated,
    BadChecksum,
    UnknownType(u8),
    BadLength,
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated PDU"),
            DecodeError::BadChecksum => write!(f, "checksum mismatch"),
            DecodeError::UnknownType(t) => write!(f, "unknown PDU type {t:#04x}"),
            DecodeError::BadLength => write!(f, "payload length mismatch"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after PDU"),
        }
    }
}

impl std::error::Error for DecodeError {}

const T_BEAM_SWITCH_REQ: u8 = 0x02;
const T_BEAM_SWITCH_CMD: u8 = 0x03;
const T_RACH_PREAMBLE: u8 = 0x10;
const T_RACH_RESPONSE: u8 = 0x11;
const T_CONN_REQUEST: u8 = 0x12;
const T_CONTENTION_RES: u8 = 0x13;

/// CRC-16/CCITT-FALSE. (Fletcher-16 was rejected: it cannot distinguish
/// 0x00 from 0xFF bytes, so a whole-byte corruption could slip through.)
fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &x in data {
        crc ^= (x as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

impl Pdu {
    fn type_byte(&self) -> u8 {
        match self {
            Pdu::BeamSwitchRequest { .. } => T_BEAM_SWITCH_REQ,
            Pdu::BeamSwitchCommand { .. } => T_BEAM_SWITCH_CMD,
            Pdu::RachPreamble { .. } => T_RACH_PREAMBLE,
            Pdu::RachResponse { .. } => T_RACH_RESPONSE,
            Pdu::ConnectionRequest { .. } => T_CONN_REQUEST,
            Pdu::ContentionResolution { .. } => T_CONTENTION_RES,
        }
    }

    /// Encode to the wire format.
    pub fn encode(&self) -> Bytes {
        let mut payload = BytesMut::with_capacity(16);
        match *self {
            Pdu::BeamSwitchRequest {
                cell,
                ue,
                suggested_tx_beam,
            } => {
                payload.put_u16(cell.0);
                payload.put_u32(ue.0);
                payload.put_u16(suggested_tx_beam);
            }
            Pdu::BeamSwitchCommand { cell, tx_beam } => {
                payload.put_u16(cell.0);
                payload.put_u16(tx_beam);
            }
            Pdu::RachPreamble { preamble, ssb_beam } => {
                payload.put_u8(preamble);
                payload.put_u16(ssb_beam);
            }
            Pdu::RachResponse {
                preamble,
                timing_advance_ns,
                temp_ue,
            } => {
                payload.put_u8(preamble);
                payload.put_u32(timing_advance_ns);
                payload.put_u32(temp_ue.0);
            }
            Pdu::ConnectionRequest { ue, context_token } => {
                payload.put_u32(ue.0);
                payload.put_u64(context_token);
            }
            Pdu::ContentionResolution { ue, accepted } => {
                payload.put_u32(ue.0);
                payload.put_u8(accepted as u8);
            }
        }
        let mut out = BytesMut::with_capacity(payload.len() + 5);
        out.put_u8(self.type_byte());
        out.put_u16(payload.len() as u16);
        out.extend_from_slice(&payload);
        let ck = crc16(&out);
        out.put_u16(ck);
        out.freeze()
    }

    /// Decode one PDU from `buf`, which must contain exactly one PDU.
    pub fn decode(buf: &[u8]) -> Result<Pdu, DecodeError> {
        if buf.len() < 5 {
            return Err(DecodeError::Truncated);
        }
        let (body, ck_bytes) = buf.split_at(buf.len() - 2);
        let expect = u16::from_be_bytes([ck_bytes[0], ck_bytes[1]]);
        if crc16(body) != expect {
            return Err(DecodeError::BadChecksum);
        }
        let mut b = body;
        let ty = b.get_u8();
        let len = b.get_u16() as usize;
        if b.remaining() != len {
            return Err(if b.remaining() < len {
                DecodeError::Truncated
            } else {
                DecodeError::TrailingBytes
            });
        }
        let need = |n: usize, b: &&[u8]| {
            if b.remaining() < n {
                Err(DecodeError::BadLength)
            } else {
                Ok(())
            }
        };
        let pdu = match ty {
            T_BEAM_SWITCH_REQ => {
                need(8, &b)?;
                Pdu::BeamSwitchRequest {
                    cell: CellId(b.get_u16()),
                    ue: UeId(b.get_u32()),
                    suggested_tx_beam: b.get_u16(),
                }
            }
            T_BEAM_SWITCH_CMD => {
                need(4, &b)?;
                Pdu::BeamSwitchCommand {
                    cell: CellId(b.get_u16()),
                    tx_beam: b.get_u16(),
                }
            }
            T_RACH_PREAMBLE => {
                need(3, &b)?;
                Pdu::RachPreamble {
                    preamble: b.get_u8(),
                    ssb_beam: b.get_u16(),
                }
            }
            T_RACH_RESPONSE => {
                need(9, &b)?;
                Pdu::RachResponse {
                    preamble: b.get_u8(),
                    timing_advance_ns: b.get_u32(),
                    temp_ue: UeId(b.get_u32()),
                }
            }
            T_CONN_REQUEST => {
                need(12, &b)?;
                Pdu::ConnectionRequest {
                    ue: UeId(b.get_u32()),
                    context_token: b.get_u64(),
                }
            }
            T_CONTENTION_RES => {
                need(5, &b)?;
                Pdu::ContentionResolution {
                    ue: UeId(b.get_u32()),
                    accepted: b.get_u8() != 0,
                }
            }
            other => return Err(DecodeError::UnknownType(other)),
        };
        if b.has_remaining() {
            return Err(DecodeError::BadLength);
        }
        Ok(pdu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_samples() -> Vec<Pdu> {
        vec![
            Pdu::BeamSwitchRequest {
                cell: CellId(1),
                ue: UeId(77),
                suggested_tx_beam: 9,
            },
            Pdu::BeamSwitchCommand {
                cell: CellId(1),
                tx_beam: 10,
            },
            Pdu::RachPreamble {
                preamble: 42,
                ssb_beam: 7,
            },
            Pdu::RachResponse {
                preamble: 42,
                timing_advance_ns: 667,
                temp_ue: UeId(1001),
            },
            Pdu::ConnectionRequest {
                ue: UeId(1001),
                context_token: 0xDEAD_BEEF_CAFE_F00D,
            },
            Pdu::ContentionResolution {
                ue: UeId(1001),
                accepted: true,
            },
        ]
    }

    #[test]
    fn round_trip_every_variant() {
        for pdu in all_samples() {
            let wire = pdu.encode();
            let back = Pdu::decode(&wire).unwrap();
            assert_eq!(pdu, back);
        }
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        for pdu in all_samples() {
            let wire = pdu.encode();
            for i in 0..wire.len() {
                let mut bad = wire.to_vec();
                bad[i] ^= 0xFF;
                let r = Pdu::decode(&bad);
                assert!(r.is_err(), "corruption at {i} of {pdu:?} accepted: {r:?}");
            }
        }
    }

    #[test]
    fn truncation_fails() {
        let wire = Pdu::ContentionResolution {
            ue: UeId(5),
            accepted: true,
        }
        .encode();
        for cut in 0..wire.len() {
            assert!(Pdu::decode(&wire[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_type_reported() {
        // Frames with an unknown type and a valid checksum, among them
        // the keep-alive and backhaul types no run ever sent (0x01, 0x20,
        // 0x21).
        for ty in [0x01, 0x20, 0x21, 0x7F] {
            let mut frame = vec![ty, 0x00, 0x00];
            let ck = crc16(&frame);
            frame.extend_from_slice(&ck.to_be_bytes());
            assert_eq!(Pdu::decode(&frame), Err(DecodeError::UnknownType(ty)));
        }
    }

    #[test]
    fn length_mismatch_detected() {
        // BeamSwitchCommand frame whose declared length is larger than
        // the body.
        let good = Pdu::BeamSwitchCommand {
            cell: CellId(1),
            tx_beam: 2,
        }
        .encode();
        let mut bad = good.to_vec();
        bad[2] = bad[2].wrapping_add(1); // bump declared length
                                         // Re-fix checksum so the length check (not the checksum) trips.
        let body_end = bad.len() - 2;
        let ck = crc16(&bad[..body_end]);
        bad[body_end..].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            Pdu::decode(&bad),
            Err(DecodeError::Truncated) | Err(DecodeError::BadLength)
        ));
    }

    #[test]
    fn checksum_is_position_sensitive() {
        assert_ne!(crc16(&[1, 2]), crc16(&[2, 1]));
    }

    #[test]
    fn display_impls() {
        assert_eq!(format!("{}", CellId(2)), "cell2");
        assert_eq!(format!("{}", UeId(9)), "ue9");
        assert!(format!("{}", DecodeError::UnknownType(9)).contains("0x09"));
    }
}
