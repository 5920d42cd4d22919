//! # sirius-codec
//!
//! A minimal, dependency-free binary codec for persisting trained Sirius
//! models (acoustic models, language models, CRF taggers). One of the
//! paper's three design objectives is *deployability* — "Sirius should be
//! deployable and fully functional on real systems" — and a deployable
//! assistant must ship trained models rather than retrain at startup.
//!
//! The format is little-endian, length-prefixed, and guarded by per-section
//! tags so decoding mismatched data fails fast instead of misinterpreting
//! bytes.
//!
//! # Example
//!
//! ```
//! use sirius_codec::{Decoder, Encoder};
//!
//! let mut enc = Encoder::new();
//! enc.u32(7).str("hello").f32_slice(&[1.0, 2.5]);
//! let bytes = enc.into_bytes();
//!
//! let mut dec = Decoder::new(&bytes);
//! assert_eq!(dec.u32()?, 7);
//! assert_eq!(dec.str()?, "hello");
//! assert_eq!(dec.f32_vec()?, vec![1.0, 2.5]);
//! dec.finish()?;
//! # Ok::<(), sirius_codec::DecodeError>(())
//! ```

#![warn(missing_docs)]

use std::fmt;

/// Error produced when decoding malformed or truncated bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong.
    pub message: String,
    /// Byte offset at which decoding failed.
    pub offset: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Converts a container length to its `u32` wire form.
///
/// Every length-prefixed write routes through this check. Before it
/// existed, `s.len() as u32` silently truncated lengths ≥ 2³² — the prefix
/// would then disagree with the bytes that follow and every subsequent
/// field in the stream would be misread. A length the format cannot
/// represent is a programming error at the encode site, so it panics with
/// the offending length rather than corrupting the frame stream.
///
/// # Panics
///
/// If `len` exceeds `u32::MAX`, the documented encode contract.
fn wire_len(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| {
        panic!("sirius-codec: container length {len} exceeds the u32 length prefix")
    })
}

/// Append-only binary encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a section tag (asserted on decode), for format safety.
    pub fn tag(&mut self, tag: &str) -> &mut Self {
        self.str(tag)
    }

    /// Writes a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(u8::from(v))
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian `f32`.
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian `f64`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a length-prefixed UTF-8 string.
    ///
    /// # Panics
    ///
    /// If the string is longer than `u32::MAX` bytes (the length prefix
    /// cannot represent it; see [`wire_len`]).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(wire_len(s.len()));
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Writes a length-prefixed raw byte blob (e.g. a nested encoding).
    ///
    /// # Panics
    ///
    /// If the blob is longer than `u32::MAX` bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u32(wire_len(b.len()));
        self.buf.extend_from_slice(b);
        self
    }

    /// Writes a length-prefixed `f32` slice.
    ///
    /// # Panics
    ///
    /// If the slice holds more than `u32::MAX` elements.
    pub fn f32_slice(&mut self, xs: &[f32]) -> &mut Self {
        self.u32(wire_len(xs.len()));
        put_words(&mut self.buf, xs, f32::to_le_bytes);
        self
    }

    /// Writes a length-prefixed `u32` slice.
    ///
    /// # Panics
    ///
    /// If the slice holds more than `u32::MAX` elements.
    pub fn u32_slice(&mut self, xs: &[u32]) -> &mut Self {
        self.u32(wire_len(xs.len()));
        put_words(&mut self.buf, xs, u32::to_le_bytes);
        self
    }

    /// Writes a length-prefixed list of strings.
    ///
    /// # Panics
    ///
    /// If the list holds more than `u32::MAX` strings (or any string
    /// overflows its own prefix).
    pub fn str_slice<S: AsRef<str>>(&mut self, xs: &[S]) -> &mut Self {
        self.u32(wire_len(xs.len()));
        for x in xs {
            self.str(x.as_ref());
        }
        self
    }
}

/// Appends `xs` as one run of 4-byte words: the buffer grows once, then
/// each word is copied into place.
fn put_words<T: Copy>(buf: &mut Vec<u8>, xs: &[T], to_le: impl Fn(T) -> [u8; 4]) {
    let start = buf.len();
    buf.resize(start + 4 * xs.len(), 0);
    for (dst, &x) in buf[start..].chunks_exact_mut(4).zip(xs) {
        dst.copy_from_slice(&to_le(x));
    }
}

/// Decodes a run of 4-byte words into an exactly sized `Vec`.
fn words<T>(bytes: &[u8], from_le: impl Fn([u8; 4]) -> T) -> Vec<T> {
    bytes
        .chunks_exact(4)
        .map(|b| from_le(b.try_into().expect("chunks are 4 bytes")))
        .collect()
}

/// Sequential binary decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn err(&self, message: impl Into<String>) -> DecodeError {
        DecodeError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(self.err(format!(
                "needed {n} bytes, only {} remain",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads and verifies a section tag.
    ///
    /// # Errors
    ///
    /// Fails if the stored tag differs from `expected`.
    pub fn tag(&mut self, expected: &str) -> Result<(), DecodeError> {
        let got = self.str()?;
        if got != expected {
            return Err(self.err(format!("expected section {expected:?}, found {got:?}")));
        }
        Ok(())
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`.
    ///
    /// # Errors
    ///
    /// Fails on any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.err(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an `f32`.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| self.err(format!("invalid utf-8: {e}")))
    }

    /// Reads a length-prefixed raw byte blob.
    pub fn bytes_vec(&mut self) -> Result<Vec<u8>, DecodeError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed `f32` vector.
    pub fn f32_vec(&mut self) -> Result<Vec<f32>, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(4) > self.buf.len() - self.pos {
            return Err(self.err(format!("f32 vector length {n} exceeds remaining bytes")));
        }
        Ok(words(self.take(4 * n)?, f32::from_le_bytes))
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(4) > self.buf.len() - self.pos {
            return Err(self.err(format!("u32 vector length {n} exceeds remaining bytes")));
        }
        Ok(words(self.take(4 * n)?, u32::from_le_bytes))
    }

    /// Reads a length-prefixed list of strings.
    pub fn str_vec(&mut self) -> Result<Vec<String>, DecodeError> {
        let n = self.u32()? as usize;
        // Allocation preflight, like `f32_vec`/`u32_vec`: each string costs
        // at least its own 4-byte length prefix, so a count the remaining
        // bytes cannot possibly back is rejected before `collect` reserves
        // `n` `String` slots. Without this, a 9-byte hostile frame claiming
        // 2^32 − 1 zero-length strings allocated ~96 GiB of `Vec<String>`
        // capacity before the bytes ran out.
        if n.saturating_mul(4) > self.buf.len() - self.pos {
            return Err(self.err(format!("string list length {n} exceeds remaining bytes")));
        }
        (0..n).map(|_| self.str()).collect()
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the input was fully consumed.
    ///
    /// # Errors
    ///
    /// Fails if trailing bytes remain.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(self.err(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic SplitMix64 generator so the property loops below are
    /// reproducible without an external fuzzing framework.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    #[test]
    fn scalar_round_trips() {
        let mut e = Encoder::new();
        e.u8(9)
            .bool(true)
            .u32(123_456)
            .u64(u64::MAX)
            .f32(-1.5)
            .f64(std::f64::consts::PI);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 9);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 123_456);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.f32().unwrap(), -1.5);
        assert_eq!(d.f64().unwrap(), std::f64::consts::PI);
        d.finish().unwrap();
    }

    #[test]
    fn byte_blobs_round_trip() {
        let mut e = Encoder::new();
        e.bytes(&[1, 2, 3]).bytes(&[]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.bytes_vec().unwrap(), vec![1, 2, 3]);
        assert!(d.bytes_vec().unwrap().is_empty());
        d.finish().unwrap();
    }

    #[test]
    fn tags_catch_section_mismatch() {
        let mut e = Encoder::new();
        e.tag("gmm").u32(4);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let err = d.tag("dnn").unwrap_err();
        assert!(err.message.contains("expected section"));
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Encoder::new();
        e.f32_slice(&[1.0, 2.0, 3.0]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..bytes.len() - 2]);
        assert!(d.f32_vec().is_err());
    }

    #[test]
    fn bogus_length_is_rejected() {
        // A vector claiming 2^31 elements must not allocate.
        let mut e = Encoder::new();
        e.u32(0x8000_0000);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(d.f32_vec().is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut d = Decoder::new(&[7]);
        assert!(d.bool().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Encoder::new();
        e.u32(1);
        let mut extra = e.into_bytes();
        extra.push(0);
        let mut d = Decoder::new(&extra);
        let _ = d.u32().unwrap();
        assert!(d.finish().is_err());
    }

    #[test]
    fn strings_round_trip() {
        let mut rng = Mix(0x5eed_0001);
        for case in 0..256 {
            let len = rng.below(81) as usize;
            let s: String = (0..len)
                .map(|_| char::from_u32((rng.below(0xd7ff) as u32).max(1)).unwrap_or('?'))
                .collect();
            let mut e = Encoder::new();
            e.str(&s);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            assert_eq!(d.str().unwrap(), s, "case {case}");
            assert!(d.finish().is_ok(), "case {case}");
        }
    }

    #[test]
    fn f32_vectors_round_trip() {
        let mut rng = Mix(0x5eed_0002);
        for case in 0..256 {
            let len = rng.below(200) as usize;
            let xs: Vec<f32> = (0..len)
                .map(|_| (rng.next() as f64 / u64::MAX as f64 * 2e6 - 1e6) as f32)
                .collect();
            let mut e = Encoder::new();
            e.f32_slice(&xs);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            assert_eq!(d.f32_vec().unwrap(), xs, "case {case}");
        }
    }

    #[test]
    fn string_lists_round_trip() {
        let mut rng = Mix(0x5eed_0003);
        for case in 0..256 {
            let n = rng.below(30) as usize;
            let xs: Vec<String> = (0..n)
                .map(|_| {
                    let len = rng.below(13) as usize;
                    (0..len)
                        .map(|_| (b'a' + rng.below(26) as u8) as char)
                        .collect()
                })
                .collect();
            let mut e = Encoder::new();
            e.str_slice(&xs);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            assert_eq!(d.str_vec().unwrap(), xs, "case {case}");
        }
    }

    #[test]
    fn wire_len_is_exact_up_to_the_prefix_maximum() {
        assert_eq!(wire_len(0), 0);
        assert_eq!(wire_len(1), 1);
        assert_eq!(wire_len(u32::MAX as usize), u32::MAX);
    }

    /// Regression: lengths ≥ 2^32 used to be written as `len as u32`,
    /// silently truncating (a 2^32 + 3 byte blob wrote prefix 3) and
    /// desynchronising every field after it. Every length-prefixed write —
    /// `str`/`bytes`/`f32_slice`/`u32_slice`/`str_slice` — now routes
    /// through `wire_len`, which panics with the offending length instead.
    #[test]
    #[should_panic(expected = "exceeds the u32 length prefix")]
    #[cfg(target_pointer_width = "64")]
    fn oversize_length_panics_instead_of_truncating() {
        wire_len(u32::MAX as usize + 3);
    }

    /// Regression: `str_vec` lacked the length-vs-remaining preflight that
    /// `f32_vec`/`u32_vec` have, so a tiny hostile frame claiming 2^31
    /// zero-length strings reserved gigabytes of `Vec<String>` capacity
    /// before decoding failed. The guard must reject the count up front —
    /// instantly and without allocating.
    #[test]
    fn hostile_string_list_count_is_rejected_before_allocating() {
        for claimed in [0x8000_0000u32, u32::MAX] {
            let mut e = Encoder::new();
            e.u32(claimed);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            let err = d.str_vec().unwrap_err();
            assert!(
                err.message.contains("exceeds remaining bytes"),
                "claimed {claimed}: {err}"
            );
        }
        // A plausible count with insufficient backing bytes is also
        // rejected by the preflight, not by running off the buffer midway.
        let mut e = Encoder::new();
        e.u32(10).u32(0); // claims 10 strings, supplies one empty one
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(d.str_vec().is_err());
    }

    #[test]
    fn random_bytes_never_panic() {
        let mut rng = Mix(0x5eed_0004);
        for _ in 0..512 {
            let len = rng.below(120) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            let mut d = Decoder::new(&bytes);
            let _ = d.str();
            let _ = d.f32_vec();
            let _ = d.str_vec();
            let _ = d.bytes_vec();
            let _ = d.u64();
            let _ = d.finish();
        }
    }
}
