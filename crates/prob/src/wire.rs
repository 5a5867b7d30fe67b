//! Word-oriented binary codec for engine checkpoints.
//!
//! The streaming-session subsystem (`mac-sim`) serialises full engine state —
//! RNG streams, incremental threshold kernels, protocol state — so that a
//! resumed run is *bit-identical* to an unbroken one. The vendored `serde`
//! in this workspace is a no-op stub, so checkpoints are encoded by hand
//! into a flat stream of `u64` words:
//!
//! * `u64` values are stored verbatim;
//! * `f64` values are stored via [`f64::to_bits`] — the round trip is exact,
//!   including signed zeros, subnormals and NaN payloads, which is what the
//!   bit-identity contract requires (a decimal round trip would not be);
//! * strings are stored as a length word followed by little-endian packed
//!   bytes (used for the panic messages a fleet's shard health records);
//! * the whole word stream converts to/from little-endian bytes for storage.
//!
//! Decoding is checked: a truncated or malformed stream yields a
//! [`WireError`] instead of a panic, so corrupt checkpoints fail loudly.
//!
//! # Example
//! ```
//! use mac_prob::wire::{Decoder, Encoder};
//! let mut enc = Encoder::new();
//! enc.put_u64(42);
//! enc.put_f64(0.1);
//! enc.put_str("periodic:2:1:0");
//! let words = enc.finish();
//! let mut dec = Decoder::new(&words);
//! assert_eq!(dec.take_u64().unwrap(), 42);
//! assert_eq!(dec.take_f64().unwrap(), 0.1);
//! assert_eq!(dec.take_str().unwrap(), "periodic:2:1:0");
//! assert!(dec.finish().is_ok());
//! ```

use std::fmt;

/// Error raised by [`Decoder`] on a truncated or malformed word stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended before the expected field.
    Truncated,
    /// A field was present but held an invalid value.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "checkpoint stream truncated"),
            WireError::Malformed(what) => write!(f, "malformed checkpoint field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends checkpoint fields to a growing `u64` word stream.
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    words: Vec<u64>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of words written so far.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Appends a raw word.
    pub fn put_u64(&mut self, v: u64) {
        self.words.push(v);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.words.push(v.to_bits());
    }

    /// Appends a `u32` (widened to one word).
    pub fn put_u32(&mut self, v: u32) {
        self.words.push(u64::from(v));
    }

    /// Appends a boolean as 0 or 1.
    pub fn put_bool(&mut self, v: bool) {
        self.words.push(u64::from(v));
    }

    /// Appends a `usize` (widened to one word).
    pub fn put_usize(&mut self, v: usize) {
        self.words.push(v as u64);
    }

    /// Appends a string: one length word, then bytes packed 8 per word
    /// little-endian.
    pub fn put_str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.words.push(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            self.words.push(u64::from_le_bytes(b));
        }
    }

    /// Appends a slice of raw words prefixed by its length.
    pub fn put_words(&mut self, ws: &[u64]) {
        self.words.push(ws.len() as u64);
        self.words.extend_from_slice(ws);
    }

    /// Consumes the encoder and returns the word stream.
    pub fn finish(self) -> Vec<u64> {
        self.words
    }
}

/// Reads checkpoint fields back out of a `u64` word stream.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `words`, positioned at the start.
    pub fn new(words: &'a [u64]) -> Self {
        Self { words, pos: 0 }
    }

    /// Number of words not yet consumed.
    pub fn remaining(&self) -> usize {
        self.words.len() - self.pos
    }

    /// Reads one raw word.
    ///
    /// # Errors
    /// [`WireError::Truncated`] if the stream is exhausted.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        let w = *self.words.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(w)
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    /// [`WireError::Truncated`] if the stream is exhausted.
    pub fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a `u32`, rejecting out-of-range words.
    ///
    /// # Errors
    /// Truncated stream, or a word that does not fit in `u32`.
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.take_u64()?).map_err(|_| WireError::Malformed("u32 out of range"))
    }

    /// Reads a boolean, rejecting words other than 0 and 1.
    ///
    /// # Errors
    /// Truncated stream, or a word other than 0/1.
    pub fn take_bool(&mut self) -> Result<bool, WireError> {
        match self.take_u64()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("boolean not 0 or 1")),
        }
    }

    /// Reads a `usize`, rejecting words beyond the platform's range.
    ///
    /// # Errors
    /// Truncated stream, or a word that does not fit in `usize`.
    pub fn take_usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.take_u64()?).map_err(|_| WireError::Malformed("usize out of range"))
    }

    /// Reads a string written by [`Encoder::put_str`].
    ///
    /// # Errors
    /// Truncated stream, an implausible length, or invalid UTF-8.
    pub fn take_str(&mut self) -> Result<String, WireError> {
        let len = self.take_usize()?;
        let n_words = len.div_ceil(8);
        if n_words > self.remaining() {
            return Err(WireError::Truncated);
        }
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..n_words {
            bytes.extend_from_slice(&self.take_u64()?.to_le_bytes());
        }
        bytes.truncate(len);
        String::from_utf8(bytes).map_err(|_| WireError::Malformed("string not UTF-8"))
    }

    /// Reads a length-prefixed word slice written by [`Encoder::put_words`].
    ///
    /// # Errors
    /// Truncated stream or an implausible length.
    pub fn take_words(&mut self) -> Result<&'a [u64], WireError> {
        let len = self.take_usize()?;
        if len > self.remaining() {
            return Err(WireError::Truncated);
        }
        let ws = &self.words[self.pos..self.pos + len];
        self.pos += len;
        Ok(ws)
    }

    /// Asserts that the stream has been fully consumed.
    ///
    /// # Errors
    /// [`WireError::Malformed`] if trailing words remain.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing words after checkpoint"))
        }
    }
}

/// SplitMix64-folded digest of a word stream, used as the integrity
/// checksum appended to checkpoint frames.
///
/// The digest chains the SplitMix64 finalizer over the words:
/// `h ← mix(h ⊕ wᵢ)` with `h₀ = γ ⊕ len`. Because `mix` is a bijection on
/// `u64`, changing any **single** word (for a fixed prefix state) changes
/// the chained value bijectively at that step and at every later step —
/// so corrupting any one word of the stream is *guaranteed* to change the
/// digest, not merely overwhelmingly likely. Multi-word corruptions are
/// caught with probability `1 − 2⁻⁶⁴` per independent trial. Folding the
/// length into the seed distinguishes streams that are prefixes of each
/// other.
pub fn digest_words(words: &[u64]) -> u64 {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = GAMMA ^ (words.len() as u64);
    for &w in words {
        let mut z = (h ^ w).wrapping_add(GAMMA);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

/// Converts a word stream to little-endian bytes (for file storage).
pub fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes
}

/// Converts little-endian bytes back to a word stream.
///
/// # Errors
/// [`WireError::Malformed`] if the byte length is not a multiple of 8.
pub fn bytes_to_words(bytes: &[u8]) -> Result<Vec<u64>, WireError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(WireError::Malformed("byte length not a multiple of 8"));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|chunk| {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            u64::from_le_bytes(b)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_kind() {
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX);
        enc.put_f64(-0.0);
        enc.put_f64(f64::NAN);
        enc.put_f64(2.5e-308 / 1e10); // subnormal
        enc.put_u32(u32::MAX);
        enc.put_bool(true);
        enc.put_bool(false);
        enc.put_usize(12345);
        enc.put_str("");
        enc.put_str("reactive:31:near-success");
        enc.put_words(&[1, 2, 3]);
        let words = enc.finish();

        let mut dec = Decoder::new(&words);
        assert_eq!(dec.take_u64().unwrap(), u64::MAX);
        let nz = dec.take_f64().unwrap();
        assert_eq!(nz.to_bits(), (-0.0f64).to_bits());
        assert!(dec.take_f64().unwrap().is_nan());
        let sub = dec.take_f64().unwrap();
        assert!(sub > 0.0 && !sub.is_normal());
        assert_eq!(dec.take_u32().unwrap(), u32::MAX);
        assert!(dec.take_bool().unwrap());
        assert!(!dec.take_bool().unwrap());
        assert_eq!(dec.take_usize().unwrap(), 12345);
        assert_eq!(dec.take_str().unwrap(), "");
        assert_eq!(dec.take_str().unwrap(), "reactive:31:near-success");
        assert_eq!(dec.take_words().unwrap(), &[1, 2, 3]);
        assert!(dec.finish().is_ok());
    }

    #[test]
    fn truncated_streams_error_instead_of_panicking() {
        assert_eq!(Decoder::new(&[]).take_u64(), Err(WireError::Truncated));
        // String whose length word promises more data than exists.
        assert_eq!(Decoder::new(&[64]).take_str(), Err(WireError::Truncated));
        assert_eq!(Decoder::new(&[9]).take_words(), Err(WireError::Truncated));
    }

    #[test]
    fn malformed_fields_are_rejected() {
        assert!(matches!(
            Decoder::new(&[2]).take_bool(),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            Decoder::new(&[u64::MAX]).take_u32(),
            Err(WireError::Malformed(_))
        ));
        // A stream with unread trailing words fails `finish`.
        let mut dec = Decoder::new(&[1, 2]);
        let _ = dec.take_u64().unwrap();
        assert!(matches!(dec.finish(), Err(WireError::Malformed(_))));
        // Invalid UTF-8 inside a string payload.
        let mut enc = Encoder::new();
        enc.put_u64(2);
        enc.put_u64(u64::from_le_bytes([0xFF, 0xFE, 0, 0, 0, 0, 0, 0]));
        let words = enc.finish();
        assert!(matches!(
            Decoder::new(&words).take_str(),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn byte_conversion_round_trips_and_checks_length() {
        let words = vec![0, 1, u64::MAX, 0x0123_4567_89AB_CDEF];
        let bytes = words_to_bytes(&words);
        assert_eq!(bytes.len(), 32);
        assert_eq!(bytes_to_words(&bytes).unwrap(), words);
        assert!(bytes_to_words(&bytes[..31]).is_err());
    }

    #[test]
    fn digest_detects_every_single_word_corruption() {
        let words: Vec<u64> = (0..64)
            .map(|i| 0x0123_4567_89AB_CDEFu64.rotate_left(i))
            .collect();
        let reference = digest_words(&words);
        // Any single-word change — any position, any flipped bit — must
        // change the digest (the guarantee the checkpoint frame relies on).
        for pos in 0..words.len() {
            for bit in 0..64 {
                let mut corrupted = words.clone();
                corrupted[pos] ^= 1u64 << bit;
                assert_ne!(
                    digest_words(&corrupted),
                    reference,
                    "digest collision at word {pos}, bit {bit}"
                );
            }
        }
    }

    #[test]
    fn digest_distinguishes_prefixes_and_is_deterministic() {
        let words = vec![5u64, 6, 7, 8];
        assert_eq!(digest_words(&words), digest_words(&words.clone()));
        assert_ne!(digest_words(&words), digest_words(&words[..3]));
        assert_ne!(digest_words(&[]), digest_words(&[0]));
        // Appending the digest itself must not fix the chain (a frame is
        // [payload..., digest(payload)]; verifying recomputes over payload).
        let mut framed = words.clone();
        framed.push(digest_words(&words));
        assert_ne!(digest_words(&framed), digest_words(&words));
    }

    #[test]
    fn string_packing_is_word_aligned() {
        // 8-byte and 9-byte strings exercise the chunk boundary.
        for s in ["12345678", "123456789", "1234567"] {
            let mut enc = Encoder::new();
            enc.put_str(s);
            let words = enc.finish();
            assert_eq!(words.len(), 1 + s.len().div_ceil(8));
            let mut dec = Decoder::new(&words);
            assert_eq!(dec.take_str().unwrap(), s);
            assert!(dec.finish().is_ok());
        }
    }
}
