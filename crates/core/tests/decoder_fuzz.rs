//! The protocol crate's two untrusted-input decoders are total.
//!
//! A trace file read from disk carries event records and interruption
//! marks: the refold (`st_net::replay_run`) reads the records through
//! `ProtocolEvent::decode_from`, and the trace container, which
//! `replay_eval` and `autopsy` load, reads each mark through
//! `InterruptionMarks::decode`. A trace also stores each segment's final
//! protocol state, but only as bytes that the refold compares with its
//! own encoding: nothing decodes a state. On random bytes, and on every
//! truncation and every single-bit flip of a valid event encoding, each
//! call must return `Ok` or `Err` — never panic — and a corrupt length
//! prefix must not reserve memory the remaining bytes cannot fill: no
//! single allocation during a decode may exceed `ALLOC_PER_BYTE` bytes
//! per input byte, with no fixed margin on top: no decoder makes an
//! allocation whose size does not follow the input, and one that did
//! would fail on the short inputs every truncation reaches.
//!
//! A tracking global allocator (this test binary only) records the
//! largest allocation the measuring thread makes while armed. A
//! `GlobalAlloc` impl is unsafe by definition, hence the one relaxation
//! of the workspace's `unsafe_code = "deny"`; it only forwards to
//! `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use silent_tracker::{wire, InterruptionMarks, ProtocolEvent};
use st_des::{SimDuration, SimTime};
use st_mac::pdu::{CellId, Pdu, UeId};
use st_phy::codebook::BeamId;
use st_phy::units::Dbm;

struct Tracking;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            LARGEST.with(|c| c.set(c.get().max(layout.size())));
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.with(Cell::get) {
            LARGEST.with(|c| c.set(c.get().max(new_size)));
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Bytes a decode may allocate per input byte: a decoded entry is at
/// most this large in memory and at least one byte on the wire.
const ALLOC_PER_BYTE: usize = 64;

/// Run `decode` on `input`: it must not panic, and its largest single
/// allocation must stay within the per-byte budget. Returns whether it
/// decoded.
fn total<T, E>(what: &str, input: &[u8], decode: impl FnOnce(&mut &[u8]) -> Result<T, E>) -> bool {
    LARGEST.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let mut cursor = input;
    let outcome = catch_unwind(AssertUnwindSafe(|| decode(&mut cursor).is_ok()));
    ARMED.with(|a| a.set(false));
    let largest = LARGEST.with(Cell::get);
    let ok = outcome.unwrap_or_else(|_| panic!("{what} panicked on {input:02x?}"));
    assert!(
        largest <= ALLOC_PER_BYTE * input.len(),
        "{what} allocated {largest} bytes for a {}-byte input {input:02x?}",
        input.len()
    );
    ok
}

fn decode_event(input: &[u8]) -> bool {
    total("ProtocolEvent::decode_from", input, |buf| {
        ProtocolEvent::decode_from(buf, SimTime::from_nanos(5))
    })
}

fn decode_marks(input: &[u8]) -> bool {
    total(
        "InterruptionMarks::decode",
        input,
        InterruptionMarks::decode,
    )
}

/// Every truncation and every single-bit flip of `bytes`.
fn corruptions(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let truncations = (0..bytes.len()).map(|n| bytes[..n].to_vec());
    let flips = (0..bytes.len() * 8).map(|bit| {
        let mut v = bytes.to_vec();
        v[bit / 8] ^= 1 << (bit % 8);
        v
    });
    truncations.chain(flips)
}

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// One event of any kind, fields anywhere in their ranges.
fn event() -> impl Strategy<Value = ProtocolEvent> {
    prop_oneof![
        (0u64..2000, -90.0..-40.0f64).prop_map(|(ms, rss)| ProtocolEvent::ServingRss {
            at: at(ms),
            rss: Dbm(rss),
        }),
        (0u64..2000, 0u16..18, -90.0..-40.0f64).prop_map(|(ms, b, rss)| {
            ProtocolEvent::ServingProbe {
                at: at(ms),
                rx_beam: BeamId(b),
                rss: Dbm(rss),
            }
        }),
        (0u64..2000, 0u16..3, 0u16..8, 0u16..18, -95.0..-45.0f64).prop_map(
            |(ms, cell, tx, rx, rss)| ProtocolEvent::NeighborSsb {
                at: at(ms),
                cell: CellId(cell),
                tx_beam: tx,
                rx_beam: BeamId(rx),
                rss: Dbm(rss),
            }
        ),
        (0u64..2000).prop_map(|ms| ProtocolEvent::DwellComplete { at: at(ms) }),
        (0u64..2000, any::<u8>(), 0u32..5000).prop_map(|(ms, preamble, ta)| {
            ProtocolEvent::FromServing {
                at: at(ms),
                pdu: Pdu::RachResponse {
                    preamble,
                    timing_advance_ns: ta,
                    temp_ue: UeId(7),
                },
            }
        }),
        (0u64..2000, 0u16..8).prop_map(|(ms, tx)| ProtocolEvent::FromServing {
            at: at(ms),
            pdu: Pdu::BeamSwitchCommand {
                cell: CellId(0),
                tx_beam: tx,
            },
        }),
        (0u64..2000).prop_map(|ms| ProtocolEvent::ServingLinkLost { at: at(ms) }),
        (0u64..2000).prop_map(|ms| ProtocolEvent::RachFailed { at: at(ms) }),
        (0u64..2000).prop_map(|ms| ProtocolEvent::Tick { at: at(ms) }),
    ]
}

#[test]
fn a_delta_past_the_clock_is_corrupt_not_a_panic() {
    // Tag 7 (tick) with a ten-byte varint delta of u64::MAX, after a
    // 5 ns anchor: the sum overflows the nanosecond clock.
    let crafted = [
        0x07, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
    ];
    let got = ProtocolEvent::decode_from(&mut &crafted[..], SimTime::from_nanos(5));
    assert_eq!(
        got,
        Err(silent_tracker::WireError::Corrupt("event time overflow"))
    );
    // The same delta from the zero anchor is a valid (if absurd) instant.
    assert!(ProtocolEvent::decode_from(&mut &crafted[..], SimTime::ZERO).is_ok());

    // Tag 8, the tick run no trace records, whose last tick would lie
    // past the clock: the tag alone is corrupt.
    let mut bytes = vec![8];
    wire::put_varu64(&mut bytes, 5);
    wire::put_varu64(&mut bytes, u64::MAX / 2);
    wire::put_varu64(&mut bytes, 3);
    assert_eq!(
        ProtocolEvent::decode_from(&mut &bytes[..], SimTime::ZERO),
        Err(silent_tracker::WireError::Corrupt("event tag"))
    );
}

/// CRC-16/CCITT-FALSE, the checksum that closes a `st_mac` PDU frame.
fn crc16(data: &[u8]) -> u16 {
    let mut crc = 0xffffu16;
    for &x in data {
        crc ^= u16::from(x) << 8;
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

/// A serving-cell record that embeds a CRC-valid frame of a PDU type no
/// run sends (the keep-alive 0x01 and the backhaul context transfer
/// 0x20 / 0x21, in their old layouts) is corrupt.
#[test]
fn an_embedded_pdu_no_run_sends_is_corrupt() {
    // A frame as `Pdu::encode` writes it: type, length, payload, CRC.
    let frame = |ty: u8, payload: &[u8]| {
        let mut f = vec![ty];
        f.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        f.extend_from_slice(payload);
        let ck = crc16(&f);
        f.extend_from_slice(&ck.to_be_bytes());
        f
    };
    let command = Pdu::BeamSwitchCommand {
        cell: CellId(0),
        tx_beam: 3,
    };
    assert_eq!(
        frame(0x03, &[0, 0, 0, 3]),
        command.encode().to_vec(),
        "the layout"
    );
    for (ty, payload) in [(0x01, &[0u8; 6][..]), (0x20, &[0; 14]), (0x21, &[0; 4])] {
        let frame = frame(ty, payload);
        let mut bytes = vec![4, 1];
        wire::put_varu64(&mut bytes, frame.len() as u64);
        bytes.extend_from_slice(&frame);
        assert_eq!(
            ProtocolEvent::decode_from(&mut &bytes[..], SimTime::ZERO),
            Err(silent_tracker::WireError::Corrupt("embedded pdu")),
            "type {ty:#04x}"
        );
    }
}

#[test]
fn a_non_finite_rss_is_corrupt_and_a_cut_one_truncated() {
    for rss in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(Dbm) {
        let records = [
            ProtocolEvent::ServingRss { at: at(1), rss },
            ProtocolEvent::ServingProbe {
                at: at(1),
                rx_beam: BeamId(3),
                rss,
            },
            ProtocolEvent::NeighborSsb {
                at: at(1),
                cell: CellId(1),
                tx_beam: 2,
                rx_beam: BeamId(5),
                rss,
            },
        ];
        for ev in records {
            let mut bytes = Vec::new();
            ev.encode_from(SimTime::ZERO, &mut bytes);
            assert_eq!(
                ProtocolEvent::decode_from(&mut &bytes[..], SimTime::ZERO),
                Err(silent_tracker::WireError::Corrupt("non-finite rss")),
                "{ev:?}"
            );
            // Every cut is truncated, including those inside the RSS,
            // whose zero-padded window can read as NaN.
            for len in 0..bytes.len() {
                assert_eq!(
                    ProtocolEvent::decode_from(&mut &bytes[..len], SimTime::ZERO),
                    Err(silent_tracker::WireError::Truncated),
                    "{ev:?} cut to {len} bytes"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic_either_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        decode_event(&bytes);
        decode_marks(&bytes);
    }

    #[test]
    fn corrupted_events_never_panic(ev in event()) {
        let mut bytes = Vec::new();
        ev.encode_from(SimTime::ZERO, &mut bytes);
        prop_assert!(decode_event(&bytes), "a valid event decodes");
        for corrupt in corruptions(&bytes) {
            decode_event(&corrupt);
        }
    }
}
