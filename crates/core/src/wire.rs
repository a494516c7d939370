//! Deterministic binary codec primitives for protocol-state and trace
//! serialization.
//!
//! The protocol fold is compared byte-for-byte between a live run and a
//! trace replay, so every encoder here is canonical: one value, one byte
//! sequence. Integers use LEB128 varints (timestamps are nanosecond
//! deltas, so most fit in one or two bytes), floats are IEEE-754 bit
//! patterns (exact round-trip, no text formatting), and `Option`s are a
//! one-byte tag. Writers are generic over [`bytes::BufMut`]; readers
//! consume a `&[u8]` cursor and return [`WireError`] instead of
//! panicking on truncated input.
//!
//! # The decoding window
//!
//! Trace replay decodes millions of event records per run, so the event
//! decoder ([`crate::ProtocolEvent::decode_from`]) does not read through
//! the cursor readers below, which check and advance the slice once per
//! byte. It reads a record from a window: the next 25 bytes of the input
//! as one fixed-size array, indexed directly, with each field's end
//! compared against the input's real length afterwards. The last bytes
//! of an input, fewer than a window, are copied into a zero-padded
//! window first. A zero byte ends a varint, so a read past the real end
//! stops at the first padding byte, and the end check then reports
//! [`WireError::Truncated`], exactly as the cursor readers would.
//!
//! Why 25 bytes: the longest fixed-layout record is a neighbor SSB, a
//! tag, a time delta of at most ten bytes and a 14-byte payload (cell,
//! transmit beam and receive beam, then the RSS). Every field of every
//! record therefore lies inside one window; only the body of an embedded
//! PDU, whose length is a prefix, is read from the input slice itself.
//! A tick run is never recorded (replay synthesises it), so it has no
//! record to fit.

use bytes::BufMut;
use st_des::{SimDuration, SimTime};

/// Decoding failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended mid-value.
    Truncated,
    /// The bytes decoded to an impossible value (bad tag, illegal state).
    Corrupt(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::Corrupt(what) => write!(f, "corrupt input: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ----- writers --------------------------------------------------------------

/// LEB128 unsigned varint.
pub fn put_varu64<B: BufMut>(buf: &mut B, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// IEEE-754 bit pattern — exact round-trip, byte-identical across runs.
pub fn put_f64<B: BufMut>(buf: &mut B, v: f64) {
    buf.put_u64(v.to_bits());
}

pub fn put_bool<B: BufMut>(buf: &mut B, v: bool) {
    buf.put_u8(u8::from(v));
}

pub fn put_opt_f64<B: BufMut>(buf: &mut B, v: Option<f64>) {
    match v {
        None => buf.put_u8(0),
        Some(x) => {
            buf.put_u8(1);
            put_f64(buf, x);
        }
    }
}

pub fn put_time<B: BufMut>(buf: &mut B, t: SimTime) {
    put_varu64(buf, t.as_nanos());
}

pub fn put_opt_time<B: BufMut>(buf: &mut B, t: Option<SimTime>) {
    match t {
        None => buf.put_u8(0),
        Some(t) => {
            buf.put_u8(1);
            put_time(buf, t);
        }
    }
}

pub fn put_dur<B: BufMut>(buf: &mut B, d: SimDuration) {
    put_varu64(buf, d.as_nanos());
}

// ----- readers --------------------------------------------------------------

#[inline]
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    let (&first, rest) = buf.split_first().ok_or(WireError::Truncated)?;
    *buf = rest;
    Ok(first)
}

#[inline]
pub fn get_u16(buf: &mut &[u8]) -> Result<u16, WireError> {
    if buf.len() < 2 {
        return Err(WireError::Truncated);
    }
    let v = u16::from_be_bytes([buf[0], buf[1]]);
    *buf = &buf[2..];
    Ok(v)
}

#[inline]
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    if buf.len() < 8 {
        return Err(WireError::Truncated);
    }
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&buf[..8]);
    *buf = &buf[8..];
    Ok(u64::from_be_bytes(bytes))
}

#[inline]
pub fn get_varu64(buf: &mut &[u8]) -> Result<u64, WireError> {
    // Fast path: one-byte varints (the common case for counters and
    // small deltas) return without entering the loop; replay decodes
    // millions of these.
    let b = *buf;
    let (&first, rest) = b.split_first().ok_or(WireError::Truncated)?;
    if first < 0x80 {
        *buf = rest;
        return Ok(u64::from(first));
    }
    let mut v = u64::from(first & 0x7f);
    let mut shift = 7u32;
    let mut rest = rest;
    loop {
        let (&byte, tail) = rest.split_first().ok_or(WireError::Truncated)?;
        rest = tail;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(WireError::Corrupt("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            *buf = rest;
            return Ok(v);
        }
        shift += 7;
    }
}

/// [`get_varu64`] for a field stored as `u32`: a value past `u32::MAX`
/// is `Corrupt`, never truncated to its low bits.
pub fn get_varu32(buf: &mut &[u8]) -> Result<u32, WireError> {
    u32::try_from(get_varu64(buf)?).map_err(|_| WireError::Corrupt("varint overflows u32"))
}

#[inline]
pub fn get_f64(buf: &mut &[u8]) -> Result<f64, WireError> {
    Ok(f64::from_bits(get_u64(buf)?))
}

pub fn get_bool(buf: &mut &[u8]) -> Result<bool, WireError> {
    match get_u8(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::Corrupt("bool tag")),
    }
}

#[inline]
pub fn get_time(buf: &mut &[u8]) -> Result<SimTime, WireError> {
    Ok(SimTime::from_nanos(get_varu64(buf)?))
}

pub fn get_opt_time(buf: &mut &[u8]) -> Result<Option<SimTime>, WireError> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(get_time(buf)?)),
        _ => Err(WireError::Corrupt("option tag")),
    }
}

pub fn get_dur(buf: &mut &[u8]) -> Result<SimDuration, WireError> {
    Ok(SimDuration::from_nanos(get_varu64(buf)?))
}

/// FNV-1a 64-bit running hash — the digest the record/replay comparison
/// uses over encoded action streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// Hashing an encoder's bytes as they are put: `x.encode(&mut fnv)`
/// gives the digest of `x`'s encoding with no buffer in between.
impl BufMut for Fnv64 {
    fn put_slice(&mut self, data: &[u8]) {
        self.write(data);
    }
}

// ----- window readers -------------------------------------------------------

/// Bytes in a decoding [`Window`]: the longest fixed-layout event
/// record (a neighbor SSB: a tag, a ten-byte delta and a 14-byte
/// payload).
pub(crate) const WINDOW: usize = 25;

/// The next [`WINDOW`] bytes of an input, zero-padded past its end (see
/// the module docs). Readers take a field's start offset, and the caller
/// checks every field's end against the input's length.
pub(crate) type Window = [u8; WINDOW];

/// LEB128 varint starting at `at`: the value and the offset just past
/// it. Only a tenth byte above 1 is an error, as in [`get_varu64`]; a
/// zero padding byte ends the varint, so a read that runs past the
/// input ends past its length.
#[inline(always)]
pub(crate) fn win_varu64(w: &Window, at: usize) -> Result<(u64, usize), WireError> {
    let first = w[at];
    if first < 0x80 {
        return Ok((u64::from(first), at + 1));
    }
    let mut v = u64::from(first & 0x7f);
    for k in 1..10 {
        let byte = w[at + k];
        if k == 9 && byte > 1 {
            break;
        }
        v |= u64::from(byte & 0x7f) << (7 * k);
        if byte < 0x80 {
            return Ok((v, at + k + 1));
        }
    }
    Err(WireError::Corrupt("varint overflows u64"))
}

/// Big-endian `u16` at `at`.
#[inline(always)]
pub(crate) fn win_u16(w: &Window, at: usize) -> u16 {
    u16::from_be_bytes([w[at], w[at + 1]])
}

/// IEEE-754 `f64` bit pattern, big-endian, at `at`.
#[inline(always)]
pub(crate) fn win_f64(w: &Window, at: usize) -> f64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&w[at..at + 8]);
    f64::from_bits(u64::from_be_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_across_magnitudes() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varu64(&mut buf, v);
        }
        let mut cur = &buf[..];
        for &v in &values {
            assert_eq!(get_varu64(&mut cur), Ok(v));
        }
        assert!(cur.is_empty());
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut cur: &[u8] = &[0x80];
        assert_eq!(get_varu64(&mut cur), Err(WireError::Truncated));
        let mut cur: &[u8] = &[1, 2, 3];
        assert_eq!(get_f64(&mut cur), Err(WireError::Truncated));
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        let mut buf = Vec::new();
        for v in [-71.32498, 0.0, -0.0, f64::MIN_POSITIVE, 1e300] {
            buf.clear();
            put_f64(&mut buf, v);
            let mut cur = &buf[..];
            assert_eq!(get_f64(&mut cur).unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn time_and_option_tags() {
        let mut buf = Vec::new();
        put_opt_time(&mut buf, None);
        put_opt_time(&mut buf, Some(SimTime::from_nanos(12_345)));
        put_bool(&mut buf, true);
        let mut cur = &buf[..];
        assert_eq!(get_opt_time(&mut cur), Ok(None));
        assert_eq!(
            get_opt_time(&mut cur),
            Ok(Some(SimTime::from_nanos(12_345)))
        );
        assert_eq!(get_bool(&mut cur), Ok(true));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
