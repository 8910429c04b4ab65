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

/// Token widths: a flag bit plus the literal byte, or a flag bit plus the
/// 12-bit distance and 4-bit length fields.
const LITERAL_BITS: u8 = 9;
const MATCH_BITS: u8 = 17;

/// Compress `data`. Returns the raw LZSS bit stream (no header; pair it with
/// the original length, as [`crate::compress`] does).
pub fn encode(data: &[u8]) -> Vec<u8> {
    // Links to positions below 4 GiB - `WINDOW` fit in 32 bits.
    if data.len() < u32::MAX as usize - WINDOW {
        encode_with::<u32>(data)
    } else {
        encode_with::<u64>(data)
    }
}

/// A stored position: the position plus `WINDOW + 1`, so zero means none
/// and a link `l` is a position inside the window of the cursor `i` exactly
/// when `l > i`. [`encode`] picks the narrowest type that holds its links.
trait Link: Copy + Default {
    fn of(pos: usize) -> Self;
    fn raw(self) -> usize;
}

impl Link for u32 {
    #[inline]
    fn of(pos: usize) -> u32 {
        (pos + WINDOW + 1) as u32
    }
    #[inline]
    fn raw(self) -> usize {
        self as usize
    }
}

impl Link for u64 {
    #[inline]
    fn of(pos: usize) -> u64 {
        (pos + WINDOW + 1) as u64
    }
    #[inline]
    fn raw(self) -> usize {
        self as usize
    }
}

/// The first three bytes of `bytes`, big-endian.
#[inline]
fn trigram(bytes: &[u8]) -> u32 {
    u32::from(bytes[0]) << 16 | u32::from(bytes[1]) << 8 | u32::from(bytes[2])
}

/// How many leading bytes `a` and `b` share; both have the same length.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut l = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(y.try_into().expect("8 bytes"));
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + a[l..].iter().zip(&b[l..]).take_while(|(x, y)| x == y).count()
}

fn encode_with<L: Link>(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    // Hash chains over 3-byte prefixes for O(1) candidate lookup. A chain is
    // only followed while it stays inside the window, so its links live in a
    // window-sized ring indexed by position: the slot of a position `WINDOW`
    // or more behind the cursor may be reused, but is never read again.
    const HASH_BITS: u32 = 13;
    let mut head = [L::default(); 1 << HASH_BITS];
    let mut prev = [L::default(); WINDOW];
    #[inline]
    fn hash3(t: u32) -> usize {
        let h = (t >> 16) << 10 ^ (t >> 8 & 0xff) << 5 ^ (t & 0xff);
        h as usize & ((1 << HASH_BITS) - 1)
    }

    // The dead-end filter: the last position whose whole trigram has each
    // key. Every position sharing the cursor's trigram shares its key, so
    // when that last position is out of the window, so is every match of
    // `MIN_MATCH` or more, and the chain walk could only end in a literal.
    // Many trigrams share a 13-bit chain hash but few share this key. The
    // table has 2^(bit length of the input) slots, clamped to 2^8..2^16, so
    // a long input rarely passes on a foreign trigram and a short one keeps
    // its table in cache.
    let key_bits = (usize::BITS - data.len().leading_zeros()).clamp(8, 16);
    let mut last = vec![L::default(); 1 << key_bits];
    let mask = (1 << key_bits) - 1;
    let key = |t: u32| (t.wrapping_mul(0x9e37_79b1) >> 16) as usize & mask;

    let mut i = 0;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let trigram_here = data.get(i..i + MIN_MATCH).map(trigram);
        if let Some(t) = trigram_here.filter(|&t| last[key(t)].raw() > i) {
            let mut link = head[hash3(t)];
            let mut chain_budget = 64; // bounded search keeps encoding O(n)
            let limit = (data.len() - i).min(MAX_MATCH);
            let ahead = &data[i..i + limit];
            while link.raw() > i && chain_budget > 0 {
                let cand = link.raw() - (WINDOW + 1);
                // A candidate can only beat `best_len` if it also matches
                // the byte at that offset, so check that one first.
                if data[cand + best_len] == ahead[best_len] {
                    let l = common_prefix(&data[cand..cand + limit], ahead);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l == limit {
                            break;
                        }
                    }
                }
                link = prev[cand % WINDOW];
                chain_budget -= 1;
            }
        }
        let advance = if best_len >= MIN_MATCH {
            let fields = ((best_dist - 1) << 4 | (best_len - MIN_MATCH)) as u32;
            w.write_bits(fields, MATCH_BITS);
            best_len
        } else {
            w.write_bits(1 << 8 | u32::from(data[i]), LITERAL_BITS);
            1
        };
        // Insert every covered position into the hash chains and the filter.
        let end = (i + advance).min((data.len() + 1).saturating_sub(MIN_MATCH));
        for (pos, tri) in (i..end).zip(data[i..].windows(MIN_MATCH)) {
            let t = trigram(tri);
            let h = hash3(t);
            prev[pos % WINDOW] = head[h];
            head[h] = L::of(pos);
            last[key(t)] = L::of(pos);
        }
        i += advance;
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
        // Read the whole token at once: its flag bit says how wide it is.
        let is_literal = r.peek_bits(1) == 1;
        let width = if is_literal { LITERAL_BITS } else { MATCH_BITS };
        let token = r.read_bits(width).map_err(|_| LzssError::Truncated)? as usize;
        if is_literal {
            out.push(token as u8);
            continue;
        }
        let dist = (token >> 4) + 1;
        let len = (token & 0xf) + MIN_MATCH;
        if dist > out.len() {
            return Err(LzssError::BadDistance { at: out.len(), distance: dist });
        }
        let start = out.len() - dist;
        let len = len.min(original_len - out.len());
        if dist >= len {
            out.extend_from_within(start..start + len);
        } else {
            // Overlapping copy: later bytes repeat ones this match writes.
            for k in start..start + len {
                out.push(out[k]);
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
    fn wide_links_encode_the_same_bytes() {
        // `encode` keeps 64-bit links for inputs of 4 GiB or more; on any
        // other input they must pick the same matches as 32-bit ones.
        let mut x: u32 = 0x2545_f491;
        let text: Vec<u8> = (0..20_000)
            .map(|i| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                if i % 5000 < 300 { b"abcabd"[i % 6] } else { b'A' + (x >> 27) as u8 }
            })
            .collect();
        assert_eq!(encode_with::<u64>(&text), encode_with::<u32>(&text));
        let data = vec![b'a'; 9000];
        assert_eq!(encode_with::<u64>(&data), encode_with::<u32>(&data));
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
        w.write_bits(0, 1);
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
