//! LZSS dictionary compression with a 4 KiB sliding window.
//!
//! This is the workhorse compressor for mobile-agent code: XML-ish and
//! bytecode payloads in the paper's 1–8 KB range are highly repetitive, and a
//! small-window LZSS captures most of that redundancy while the decoder stays
//! tiny — in the spirit of the paper's "simple text compression algorithms
//! \[requiring\] only \[a\] small amount of CPU time" on the handheld.
//!
//! Bit-stream format (MSB-first, see [`crate::bitio`]):
//! * flag bit `1` → literal: 8 bits of raw byte;
//! * flag bit `0` → match: 12-bit distance (1-based, 1..=4096) followed by a
//!   4-bit length field encoding lengths `MIN_MATCH..=MIN_MATCH+15`.
//!
//! The uncompressed length is carried by the [`crate::compress`] container,
//! so the decoder knows exactly when to stop and trailing pad bits are
//! harmless.

use crate::bitio::{BitReader, BitWriter};

/// Window size (must match the 12-bit distance field).
pub const WINDOW: usize = 4096;
/// Shortest match worth encoding (a match costs 17 bits ≈ 2.1 bytes).
pub const MIN_MATCH: usize = 3;
/// Longest encodable match.
pub const MAX_MATCH: usize = MIN_MATCH + 15;

/// Error from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LzssError {
    /// Bit stream ended before producing the promised output length.
    Truncated,
    /// A match referred back past the start of the output.
    BadDistance {
        /// Output length at the time of the bad reference.
        at: usize,
        /// The offending distance.
        distance: usize,
    },
}

impl std::fmt::Display for LzssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzssError::Truncated => write!(f, "truncated LZSS stream"),
            LzssError::BadDistance { at, distance } => {
                write!(f, "LZSS match distance {distance} exceeds output length {at}")
            }
        }
    }
}

impl std::error::Error for LzssError {}

/// Compress `data`. Returns the raw LZSS bit stream (no header; pair it with
/// the original length, as [`crate::compress`] does).
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    // Hash chains over 3-byte prefixes for O(1) candidate lookup.
    const HASH_SIZE: usize = 1 << 13;
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; data.len()];

    #[inline]
    fn hash3(data: &[u8], i: usize) -> usize {
        let h = (data[i] as usize) << 10 ^ (data[i + 1] as usize) << 5 ^ data[i + 2] as usize;
        h & ((1 << 13) - 1)
    }

    let mut i = 0;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash3(data, i);
            let mut cand = head[h];
            let mut chain_budget = 64; // bounded search keeps encoding O(n)
            while cand != usize::MAX && chain_budget > 0 {
                if i - cand > WINDOW {
                    break;
                }
                let limit = (data.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < limit && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l == limit {
                        break;
                    }
                }
                cand = prev[cand];
                chain_budget -= 1;
            }
        }
        if best_len >= MIN_MATCH {
            w.write_bit(false);
            w.write_bits((best_dist - 1) as u32, 12);
            w.write_bits((best_len - MIN_MATCH) as u32, 4);
            // Insert all covered positions into the hash chains.
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= data.len() {
                    let h = hash3(data, i);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        } else {
            w.write_bit(true);
            w.write_bits(data[i] as u32, 8);
            if i + MIN_MATCH <= data.len() {
                let h = hash3(data, i);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }
    w.finish()
}

/// Decompress an LZSS stream into exactly `original_len` bytes.
///
/// `original_len` may come from an untrusted header, so the preallocation is
/// capped at what `data` can actually produce: every 17-bit match token
/// yields at most [`MAX_MATCH`] bytes. A stream that promises more runs out
/// of bits and fails with [`LzssError::Truncated`].
pub fn decode(data: &[u8], original_len: usize) -> Result<Vec<u8>, LzssError> {
    let mut r = BitReader::new(data);
    let producible = (data.len().saturating_mul(8) / 17 + 1).saturating_mul(MAX_MATCH);
    let mut out = Vec::with_capacity(original_len.min(producible));
    while out.len() < original_len {
        let is_literal = r.read_bit().map_err(|_| LzssError::Truncated)?;
        if is_literal {
            let byte = r.read_bits(8).map_err(|_| LzssError::Truncated)? as u8;
            out.push(byte);
        } else {
            let dist = r.read_bits(12).map_err(|_| LzssError::Truncated)? as usize + 1;
            let len = r.read_bits(4).map_err(|_| LzssError::Truncated)? as usize + MIN_MATCH;
            if dist > out.len() {
                return Err(LzssError::BadDistance { at: out.len(), distance: dist });
            }
            let start = out.len() - dist;
            for k in 0..len {
                if out.len() == original_len {
                    break;
                }
                let byte = out[start + k];
                out.push(byte);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let enc = encode(data);
        let dec = decode(&enc, data.len()).unwrap();
        assert_eq!(dec, data, "roundtrip mismatch for {} bytes", data.len());
        enc
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_text_compresses() {
        let data = b"the quick brown fox; the quick brown fox; the quick brown fox".repeat(8);
        let enc = roundtrip(&data);
        assert!(
            enc.len() < data.len() / 2,
            "expected >2x compression, got {} -> {}",
            data.len(),
            enc.len()
        );
    }

    #[test]
    fn xml_like_payload_compresses() {
        let data = r#"<pi><param name="from">acct-001</param><param name="to">acct-002</param><param name="amount">120.00</param></pi>"#.repeat(10);
        let enc = roundtrip(data.as_bytes());
        assert!(enc.len() < data.len() / 2);
    }

    #[test]
    fn incompressible_data_expands_modestly() {
        // Pseudo-random bytes: each literal costs 9 bits, so expansion ≤ 12.5% + 1.
        let mut data = Vec::with_capacity(2048);
        let mut x: u32 = 0x1234_5678;
        for _ in 0..2048 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            data.push((x >> 24) as u8);
        }
        let enc = roundtrip(&data);
        assert!(enc.len() <= data.len() * 9 / 8 + 2);
    }

    #[test]
    fn overlapping_match_lacunae() {
        // "aaaa..." forces overlapping copies (dist 1, len > dist).
        let data = vec![b'a'; 1000];
        // Each match covers at most MAX_MATCH=18 bytes at 17 bits, so ~120 bytes.
        let enc = roundtrip(&data);
        assert!(enc.len() < 140);
    }

    #[test]
    fn long_input_beyond_window() {
        let mut data = Vec::new();
        for i in 0..30_000u32 {
            data.extend_from_slice(format!("line-{} ", i % 97).as_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_errors() {
        let enc = encode(b"hello world, hello world, hello world");
        let cut = &enc[..enc.len() / 2];
        assert!(matches!(decode(cut, 38), Err(LzssError::Truncated)));
    }

    #[test]
    fn bad_distance_errors() {
        // Hand-craft: one match token with dist 5 at output position 0.
        let mut w = BitWriter::new();
        w.write_bit(false);
        w.write_bits(4, 12); // dist 5
        w.write_bits(0, 4); // len MIN_MATCH
        let bytes = w.finish();
        assert!(matches!(
            decode(&bytes, 3),
            Err(LzssError::BadDistance { at: 0, distance: 5 })
        ));
    }

    #[test]
    fn decode_stops_exactly_at_original_len() {
        let data = b"abcabcabcabcabcabc";
        let enc = encode(data);
        let dec = decode(&enc, data.len()).unwrap();
        assert_eq!(dec.len(), data.len());
    }
}
