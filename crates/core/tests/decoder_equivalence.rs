//! The windowed event decoder returns exactly what the byte-by-byte
//! decoder it replaced returned.
//!
//! `ProtocolEvent::decode_from` reads each record through a 25-byte
//! window and checks every field's end against the input's length
//! afterwards. The decoder before it read through the `wire::get_*`
//! cursor readers, one checked byte at a time; it is kept here as
//! [`reference_decode_from`], verbatim but for what both decoders
//! changed since: the finite-RSS check, and the tick-run record (tag 8)
//! that no trace writes, now a corrupt tag. On over a million inputs
//! (every prefix, lengths 0–64 around the window edge, of records of
//! every tag with embedded PDUs, ten- and eleven-byte varints and random
//! bytes, decoded from anchors up to `u64::MAX`) both must agree: on
//! `Ok`, equal events (compared by their encodings) and consumed
//! lengths; on `Err`, the same error. That includes the order of the
//! checks: a record cut inside its payload whose delta overflows the
//! clock is `Corrupt("event time overflow")`, not `Truncated`, and a
//! record cut inside its RSS is `Truncated` even where the window's
//! zero padding reads as NaN.

use proptest::test_runner::TestRng;
use silent_tracker::wire::{self, WireError};
use silent_tracker::ProtocolEvent;
use st_des::SimTime;
use st_mac::pdu::{CellId, Pdu, UeId};
use st_phy::codebook::BeamId;
use st_phy::units::Dbm;

/// The event decoder before the decoding window, verbatim apart from
/// its name, the finite-RSS check ([`get_rss`]) and the tick-run tag
/// it no longer accepts.
fn reference_decode_from(buf: &mut &[u8], prev: SimTime) -> Result<ProtocolEvent, WireError> {
    let tag = wire::get_u8(buf)?;
    if tag > 7 {
        return Err(WireError::Corrupt("event tag"));
    }
    // Every event's first field is its time delta.
    let at = prev
        .checked_add(wire::get_dur(buf)?)
        .ok_or(WireError::Corrupt("event time overflow"))?;
    Ok(match tag {
        0 => ProtocolEvent::ServingRss {
            at,
            rss: get_rss(buf)?,
        },
        1 => ProtocolEvent::ServingProbe {
            at,
            rx_beam: BeamId(wire::get_u16(buf)?),
            rss: get_rss(buf)?,
        },
        2 => ProtocolEvent::NeighborSsb {
            at,
            cell: CellId(wire::get_u16(buf)?),
            tx_beam: wire::get_u16(buf)?,
            rx_beam: BeamId(wire::get_u16(buf)?),
            rss: get_rss(buf)?,
        },
        3 => ProtocolEvent::DwellComplete { at },
        4 => {
            let n = wire::get_varu64(buf)? as usize;
            if buf.len() < n {
                return Err(WireError::Truncated);
            }
            let pdu = Pdu::decode(&buf[..n]).map_err(|_| WireError::Corrupt("embedded pdu"))?;
            *buf = &buf[n..];
            ProtocolEvent::FromServing { at, pdu }
        }
        5 => ProtocolEvent::ServingLinkLost { at },
        6 => ProtocolEvent::RachFailed { at },
        _ => ProtocolEvent::Tick { at },
    })
}

/// An RSS field, `Corrupt` unless finite.
fn get_rss(buf: &mut &[u8]) -> Result<Dbm, WireError> {
    let rss = wire::get_f64(buf)?;
    if rss.is_finite() {
        Ok(Dbm(rss))
    } else {
        Err(WireError::Corrupt("non-finite rss"))
    }
}

fn encoded(ev: &ProtocolEvent) -> Vec<u8> {
    let mut bytes = Vec::new();
    ev.encode_from(SimTime::ZERO, &mut bytes);
    bytes
}

/// Decode `input` from `prev` with both decoders and require the same
/// outcome.
fn agree(input: &[u8], prev: SimTime) {
    let (mut got_rest, mut want_rest) = (input, input);
    let got = ProtocolEvent::decode_from(&mut got_rest, prev);
    let want = reference_decode_from(&mut want_rest, prev);
    let same = match (&got, &want) {
        (Ok(g), Ok(w)) => encoded(g) == encoded(w) && got_rest.len() == want_rest.len(),
        (Err(g), Err(w)) => g == w,
        _ => false,
    };
    assert!(
        same,
        "decoders disagree on {input:02x?} from {prev:?}: \
         window {got:?} ({} left), reference {want:?} ({} left)",
        got_rest.len(),
        want_rest.len()
    );
}

fn bytes(rng: &mut TestRng, n: usize, out: &mut Vec<u8>) {
    out.extend((0..n).map(|_| rng.next_u64() as u8));
}

/// A varint of any shape: canonical at a random magnitude, ten bytes
/// with a random last byte (above 1 overflows), or eleven bytes.
fn varint(rng: &mut TestRng, out: &mut Vec<u8>) {
    match rng.below(8) {
        0 => {
            out.extend((0..9).map(|_| 0x80 | rng.next_u64() as u8));
            out.push(rng.next_u64() as u8);
        }
        1 => {
            out.extend((0..10).map(|_| 0x80 | rng.next_u64() as u8));
            out.push(rng.next_u64() as u8 & 0x7f);
        }
        _ => {
            let bits = 1 + rng.below(64) as u32;
            wire::put_varu64(out, rng.next_u64() >> (64 - bits));
        }
    }
}

/// A control PDU of any kind.
fn pdu(rng: &mut TestRng) -> Pdu {
    let (cell, ue, r) = (
        CellId(rng.next_u64() as u16),
        UeId(rng.next_u64() as u32),
        rng.next_u64(),
    );
    match rng.below(6) {
        0 => Pdu::BeamSwitchRequest {
            cell,
            ue,
            suggested_tx_beam: r as u16,
        },
        1 => Pdu::BeamSwitchCommand {
            cell,
            tx_beam: r as u16,
        },
        2 => Pdu::RachPreamble {
            preamble: r as u8,
            ssb_beam: (r >> 8) as u16,
        },
        3 => Pdu::RachResponse {
            preamble: r as u8,
            timing_advance_ns: (r >> 8) as u32,
            temp_ue: ue,
        },
        4 => Pdu::ConnectionRequest {
            ue,
            context_token: r,
        },
        _ => Pdu::ContentionResolution {
            ue,
            accepted: r & 1 == 1,
        },
    }
}

/// One record: a tag (one in nine the retired tick-run tag 8, now and
/// then any byte), a delta and the tag's payload, with random field
/// bytes, so NaNs, beams outside any codebook and corrupt PDU frames
/// all occur.
fn record(rng: &mut TestRng, out: &mut Vec<u8>) {
    let tag = if rng.below(16) == 0 {
        rng.next_u64() as u8
    } else {
        rng.below(9) as u8
    };
    out.push(tag);
    varint(rng, out);
    match tag {
        0 => bytes(rng, 8, out),
        1 => bytes(rng, 10, out),
        2 => bytes(rng, 14, out),
        4 => {
            let mut frame = pdu(rng).encode().to_vec();
            match rng.below(4) {
                0 => frame.truncate(rng.below(frame.len() as u64) as usize),
                1 => {
                    let bit = rng.below(8 * frame.len() as u64) as usize;
                    frame[bit / 8] ^= 1 << (bit % 8);
                }
                _ => {}
            }
            if rng.below(8) == 0 {
                varint(rng, out);
            } else {
                wire::put_varu64(out, frame.len() as u64);
            }
            out.extend_from_slice(&frame);
        }
        _ => {}
    }
}

/// An anchor to decode from: small, anywhere, or within 2^24 ns of the
/// clock's end, where most deltas overflow.
fn anchor(rng: &mut TestRng) -> SimTime {
    SimTime::from_nanos(match rng.below(3) {
        0 => rng.below(1 << 20),
        1 => rng.next_u64(),
        _ => u64::MAX - rng.below(1 << 24),
    })
}

#[test]
fn window_decoder_matches_the_byte_reader_on_a_million_inputs() {
    const INPUTS: u64 = 1_000_000;
    const MAX_LEN: usize = 64;
    let mut rng = TestRng::deterministic();
    let mut input = Vec::with_capacity(2 * MAX_LEN);
    let mut checked = 0u64;
    while checked < INPUTS {
        // A record, then whatever follows it in a stream: another
        // record or random bytes.
        input.clear();
        record(&mut rng, &mut input);
        if rng.below(2) == 0 {
            record(&mut rng, &mut input);
        } else {
            let n = rng.below(MAX_LEN as u64) as usize;
            bytes(&mut rng, n, &mut input);
        }
        input.truncate(MAX_LEN);
        let prevs = [SimTime::ZERO, anchor(&mut rng)];
        for len in 0..=input.len() {
            for &prev in &prevs {
                agree(&input[..len], prev);
            }
        }
        // A single-bit flip anywhere in the record.
        let bit = rng.below(8 * input.len() as u64) as usize;
        input[bit / 8] ^= 1 << (bit % 8);
        agree(&input, prevs[1]);
        checked += 2 * input.len() as u64 + 3;
    }
}
