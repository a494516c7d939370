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
use silent_tracker::{InterruptionMarks, ProtocolEvent};
use st_des::{SimDuration, SimTime};
use st_mac::pdu::{CellId, Pdu};
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
        (0u64..2000, 0u32..5000).prop_map(|(ms, seq)| ProtocolEvent::FromServing {
            at: at(ms),
            pdu: Pdu::KeepAlive {
                cell: CellId(0),
                seq,
            },
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
        (0u64..2000, 1u64..5000, 1u64..300).prop_map(|(ms, us, count)| {
            ProtocolEvent::TickRun {
                start: at(ms),
                period: SimDuration::from_micros(us),
                count,
            }
        }),
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

    // A tick run whose last tick lies past the clock.
    let run = ProtocolEvent::TickRun {
        start: SimTime::from_nanos(5),
        period: SimDuration::from_nanos(u64::MAX / 2),
        count: 3,
    };
    let mut bytes = Vec::new();
    wire_tick_run(&run, &mut bytes);
    assert_eq!(
        ProtocolEvent::decode_from(&mut &bytes[..], SimTime::ZERO),
        Err(silent_tracker::WireError::Corrupt("tick run overflow"))
    );
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

/// The encoding of a tick run, written field by field: `encode` itself
/// refuses a run that ends past the clock.
fn wire_tick_run(run: &ProtocolEvent, buf: &mut Vec<u8>) {
    let ProtocolEvent::TickRun {
        start,
        period,
        count,
    } = *run
    else {
        unreachable!("a tick run")
    };
    buf.push(8);
    silent_tracker::wire::put_dur(buf, start.since(SimTime::ZERO));
    silent_tracker::wire::put_dur(buf, period);
    silent_tracker::wire::put_varu64(buf, count);
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
