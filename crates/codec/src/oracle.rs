//! Differential oracle: the bit-at-a-time codec that the word-level bit I/O,
//! the table-driven Huffman decoder and the single-pass `compress` replaced.
//!
//! Everything here moves one bit per call and decodes Huffman codes with a
//! `(length, code)` hash lookup per input bit, exactly as the original coder
//! did. It is slow and obviously faithful to the stream format, which makes
//! it the reference the production coder must match byte for byte: the same
//! containers out of `compress`, and the same `Ok` bytes or the same error
//! out of `decompress`, on valid and hostile input alike.

use std::collections::HashMap;

use crate::compress::{sniff_algorithm, Algorithm, CodecError, MAGIC};
use crate::huffman::{canonical_codes, code_lengths, HuffmanError, MAX_CODE_LEN};
use crate::lzss::{LzssError, MAX_MATCH, MIN_MATCH, WINDOW};
use crate::{rle, varint};

/// One bit per call, MSB-first, zero-padded to a whole byte.
#[derive(Default)]
pub struct BitWriter {
    out: Vec<u8>,
    current: u8,
    used: u8,
}

impl BitWriter {
    pub fn write_bit(&mut self, bit: bool) {
        self.current = (self.current << 1) | bit as u8;
        self.used += 1;
        if self.used == 8 {
            self.out.push(self.current);
            self.current = 0;
            self.used = 0;
        }
    }

    pub fn write_bits(&mut self, value: u32, count: u8) {
        for i in (0..count).rev() {
            self.write_bit((value >> i) & 1 == 1);
        }
    }

    pub fn finish(mut self) -> Vec<u8> {
        if self.used > 0 {
            self.current <<= 8 - self.used;
            self.out.push(self.current);
        }
        self.out
    }
}

/// One bit per call, MSB-first; `None` past the end.
pub struct BitReader<'a> {
    input: &'a [u8],
    byte_pos: usize,
    bit_pos: u8,
}

impl<'a> BitReader<'a> {
    pub fn new(input: &'a [u8]) -> Self {
        BitReader { input, byte_pos: 0, bit_pos: 0 }
    }

    pub fn read_bit(&mut self) -> Option<bool> {
        let byte = *self.input.get(self.byte_pos)?;
        let bit = (byte >> (7 - self.bit_pos)) & 1 == 1;
        self.bit_pos += 1;
        if self.bit_pos == 8 {
            self.bit_pos = 0;
            self.byte_pos += 1;
        }
        Some(bit)
    }

    pub fn read_bits(&mut self, count: u8) -> Option<u32> {
        let mut value = 0u32;
        for _ in 0..count {
            value = (value << 1) | self.read_bit()? as u32;
        }
        Some(value)
    }
}

pub fn lzss_encode(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::default();
    const HASH_SIZE: usize = 1 << 13;
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; data.len()];
    let hash3 = |i: usize| {
        let h = (data[i] as usize) << 10 ^ (data[i + 1] as usize) << 5 ^ data[i + 2] as usize;
        h & (HASH_SIZE - 1)
    };
    let mut i = 0;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let mut cand = head[hash3(i)];
            let mut chain_budget = 64;
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
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= data.len() {
                    let h = hash3(i);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        } else {
            w.write_bit(true);
            w.write_bits(data[i] as u32, 8);
            if i + MIN_MATCH <= data.len() {
                let h = hash3(i);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }
    w.finish()
}

pub fn lzss_decode(data: &[u8], original_len: usize) -> Result<Vec<u8>, LzssError> {
    let mut r = BitReader::new(data);
    let mut out = Vec::new();
    while out.len() < original_len {
        let is_literal = r.read_bit().ok_or(LzssError::Truncated)?;
        if is_literal {
            out.push(r.read_bits(8).ok_or(LzssError::Truncated)? as u8);
        } else {
            let dist = r.read_bits(12).ok_or(LzssError::Truncated)? as usize + 1;
            let len = r.read_bits(4).ok_or(LzssError::Truncated)? as usize + MIN_MATCH;
            if dist > out.len() {
                return Err(LzssError::BadDistance { at: out.len(), distance: dist });
            }
            let start = out.len() - dist;
            for k in 0..len {
                if out.len() == original_len {
                    break;
                }
                out.push(out[start + k]);
            }
        }
    }
    Ok(out)
}

pub fn huffman_encode(data: &[u8]) -> Vec<u8> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut freqs = [0u64; 256];
    for &b in data {
        freqs[b as usize] += 1;
    }
    let lengths = code_lengths(&freqs);
    let codes = canonical_codes(&lengths).expect("own table is valid");
    let mut w = BitWriter::default();
    for &l in lengths.iter() {
        w.write_bits(l as u32, 4);
    }
    for &b in data {
        let (code, len) = codes[b as usize];
        w.write_bits(code, len);
    }
    w.finish()
}

pub fn huffman_decode(data: &[u8], original_len: usize) -> Result<Vec<u8>, HuffmanError> {
    if original_len == 0 {
        return Ok(Vec::new());
    }
    let mut r = BitReader::new(data);
    let mut lengths = [0u8; 256];
    for l in lengths.iter_mut() {
        *l = r.read_bits(4).ok_or(HuffmanError::Truncated)? as u8;
    }
    let codes = canonical_codes(&lengths)?;
    let table: HashMap<(u8, u32), u8> = codes
        .iter()
        .enumerate()
        .filter(|(_, &(_, len))| len > 0)
        .map(|(sym, &(code, len))| ((len, code), sym as u8))
        .collect();
    if table.is_empty() {
        return Err(HuffmanError::InvalidTable);
    }
    let mut out = Vec::new();
    while out.len() < original_len {
        let mut code = 0u32;
        let mut len = 0u8;
        loop {
            code = (code << 1) | r.read_bit().ok_or(HuffmanError::Truncated)? as u32;
            len += 1;
            if len > MAX_CODE_LEN {
                return Err(HuffmanError::InvalidTable);
            }
            if let Some(&sym) = table.get(&(len, code)) {
                out.push(sym);
                break;
            }
        }
    }
    Ok(out)
}

fn encode_with(data: &[u8], alg: Algorithm) -> Vec<u8> {
    match alg {
        Algorithm::Store => data.to_vec(),
        Algorithm::Rle => rle::encode(data),
        Algorithm::Lzss => lzss_encode(data),
        Algorithm::Huffman => huffman_encode(data),
        Algorithm::LzssHuffman => huffman_encode(&lzss_encode(data)),
        Algorithm::Auto => unreachable!(),
    }
}

/// The container writer as it was: every candidate encoded from scratch,
/// and LZSS run once more for LzssHuffman's `mid_len`.
pub fn compress(data: &[u8], alg: Algorithm) -> Vec<u8> {
    let (alg, payload) = match alg {
        Algorithm::Auto => {
            let mut best = (Algorithm::Store, data.to_vec());
            for cand in [Algorithm::Rle, Algorithm::Lzss, Algorithm::Huffman, Algorithm::LzssHuffman]
            {
                let enc = encode_with(data, cand);
                if enc.len() < best.1.len() {
                    best = (cand, enc);
                }
            }
            best
        }
        other => {
            let enc = encode_with(data, other);
            if enc.len() >= data.len() && other != Algorithm::Store {
                (Algorithm::Store, data.to_vec())
            } else {
                (other, enc)
            }
        }
    };
    let mut out = MAGIC.to_vec();
    out.push(alg.to_byte());
    varint::write_usize(&mut out, data.len());
    if alg == Algorithm::LzssHuffman {
        varint::write_usize(&mut out, lzss_encode(data).len());
    }
    out.extend_from_slice(&payload);
    out
}

pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let alg = sniff_algorithm(data)?;
    let mut pos = 5;
    let original_len = varint::read_usize(data, &mut pos).map_err(|_| CodecError::Truncated)?;
    let payload = |e: &dyn std::fmt::Display| CodecError::Payload(e.to_string());
    let out = match alg {
        Algorithm::Store => data.get(pos..).map(<[u8]>::to_vec).ok_or(CodecError::Truncated)?,
        Algorithm::Rle => {
            rle::decode(data.get(pos..).ok_or(CodecError::Truncated)?).map_err(|e| payload(&e))?
        }
        Algorithm::Lzss => lzss_decode(data.get(pos..).ok_or(CodecError::Truncated)?, original_len)
            .map_err(|e| payload(&e))?,
        Algorithm::Huffman => {
            huffman_decode(data.get(pos..).ok_or(CodecError::Truncated)?, original_len)
                .map_err(|e| payload(&e))?
        }
        Algorithm::LzssHuffman => {
            let mid_len = varint::read_usize(data, &mut pos).map_err(|_| CodecError::Truncated)?;
            let mid = huffman_decode(data.get(pos..).ok_or(CodecError::Truncated)?, mid_len)
                .map_err(|e| payload(&e))?;
            lzss_decode(&mid, original_len).map_err(|e| payload(&e))?
        }
        Algorithm::Auto => unreachable!(),
    };
    if out.len() != original_len {
        return Err(CodecError::LengthMismatch { expected: original_len, actual: out.len() });
    }
    Ok(out)
}

mod tests {
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    use super::*;
    use crate::compress as fast;
    use crate::{huffman, lzss};

    const ALGORITHMS: [Algorithm; 6] = [
        Algorithm::Store,
        Algorithm::Rle,
        Algorithm::Lzss,
        Algorithm::Huffman,
        Algorithm::LzssHuffman,
        Algorithm::Auto,
    ];

    /// Random bytes, base64-alphabet text (repeated, so LZSS finds matches)
    /// and small XML documents: the shapes the platform compresses. A
    /// four-letter alphabet adds LZSS hash chains that outrun the 64-candidate
    /// budget once the input passes a few kilobytes.
    fn short_inputs(max: usize) -> impl Strategy<Value = Vec<u8>> {
        let base64 = ("[A-Za-z0-9+/]{0,64}", 1usize..6)
            .prop_map(move |(text, reps)| text.repeat(reps).into_bytes());
        let xml = pvec(("[a-z]{1,6}", "[a-z0-9 ]{0,12}", 0usize..3), 0..24).prop_map(|nodes| {
            let mut doc = String::from("<?xml version=\"1.0\"?><pi>");
            for (tag, text, depth) in nodes {
                for _ in 0..depth {
                    doc.push_str("<param>");
                }
                doc.push_str(&format!("<{tag} name=\"{text}\">{text}</{tag}>"));
                for _ in 0..depth {
                    doc.push_str("</param>");
                }
            }
            doc.push_str("</pi>");
            doc.into_bytes()
        });
        prop_oneof![pvec(any::<u8>(), 0..max), pvec(0u8..4, 0..3 * max), base64, xml]
    }

    /// [`short_inputs`] plus 5–70 KB of base64 pad, the `bulk_pi` shape,
    /// with trigrams copied from 4095, 4096 and 4097 bytes back: the edges of
    /// the window, where LZSS's dead-end filter must pass the first two
    /// trigrams to the chain walk and may skip the third.
    fn inputs(max: usize) -> impl Strategy<Value = Vec<u8>> {
        let planted = (5 * 1024..70 * 1024usize, any::<u64>(), pvec((any::<usize>(), 0usize..3), 0..48))
            .prop_map(|(len, seed, plants)| {
                const ALPHABET: &[u8] =
                    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
                let mut state = seed | 1;
                let mut pad: Vec<u8> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        ALPHABET[(state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 58) as usize]
                    })
                    .collect();
                for (at, edge) in plants {
                    let distance = WINDOW - 1 + edge;
                    let to = distance + at % (len - distance - MIN_MATCH);
                    pad.copy_within(to - distance..to - distance + MIN_MATCH, to);
                }
                pad
            });
        prop_oneof![short_inputs(max), planted]
    }

    /// Both decoders on `container`: the same bytes or the same error.
    fn same_decode(container: &[u8]) -> Result<(), String> {
        let got = fast::decompress(container);
        let want = decompress(container);
        if got == want {
            Ok(())
        } else {
            Err(format!("container {container:02x?}: got {got:?}, oracle {want:?}"))
        }
    }

    /// `container` with its length header(s) rewritten: the original length
    /// and, for LzssHuffman, the intermediate length too.
    fn with_lengths(container: &[u8], original: usize, mid: Option<usize>) -> Vec<u8> {
        let mut pos = 5;
        varint::read_usize(container, &mut pos).unwrap();
        let alg = sniff_algorithm(container).unwrap();
        let mut out = container[..5].to_vec();
        varint::write_usize(&mut out, original);
        if alg == Algorithm::LzssHuffman {
            let old_mid = varint::read_usize(container, &mut pos).unwrap();
            varint::write_usize(&mut out, mid.unwrap_or(old_mid));
        }
        out.extend_from_slice(&container[pos..]);
        out
    }

    #[test]
    fn long_hash_chains_match_oracle() {
        let mut x = 0x2545_f491u32;
        let data: Vec<u8> = (0..12_000)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 30) as u8
            })
            .collect();
        assert_eq!(lzss::encode(&data), lzss_encode(&data));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn compress_matches_oracle_for_every_algorithm(data in inputs(3000)) {
            for alg in ALGORITHMS {
                prop_assert_eq!(fast::compress(&data, alg), compress(&data, alg));
            }
        }

    }

    proptest! {
        // Each case decodes a few thousand mutated containers.
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn decompress_matches_oracle_on_hostile_containers(
            data in short_inputs(300),
            pick in 0usize..6,
            flips in pvec(any::<usize>(), 48..49),
        ) {
            let container = fast::compress(&data, ALGORITHMS[pick]);
            same_decode(&container)?;
            for cut in 0..container.len() {
                same_decode(&container[..cut])?;
            }
            // Every bit of the container header and the Huffman table, then
            // a sample of the payload's bits.
            let header_bits = container.len().min(5 + 20 + 128) * 8;
            let sampled = flips.iter().map(|f| f % (container.len() * 8));
            for bit in (0..header_bits).chain(sampled) {
                let mut flipped = container.clone();
                flipped[bit / 8] ^= 0x80 >> (bit % 8);
                same_decode(&flipped)?;
            }
            for extra in [1usize, 2, 17, 4096, 1 << 40] {
                let inflated = data.len().saturating_add(extra);
                same_decode(&with_lengths(&container, inflated, None))?;
                if let Ok(Algorithm::LzssHuffman) = sniff_algorithm(&container) {
                    let mid = lzss::encode(&data).len().saturating_add(extra);
                    same_decode(&with_lengths(&container, data.len(), Some(mid)))?;
                    same_decode(&with_lengths(&container, inflated, Some(mid)))?;
                }
            }
            same_decode(&with_lengths(&container, usize::MAX, Some(usize::MAX)))?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn lzss_and_huffman_match_oracle_on_raw_streams(data in inputs(2000)) {
            let lz = lzss::encode(&data);
            prop_assert_eq!(&lz, &lzss_encode(&data));
            let huff = huffman::encode(&data);
            prop_assert_eq!(&huff, &huffman_encode(&data));
            prop_assert_eq!(huffman::Fitted::new(&data).encoded_len(), huff.len());
            prop_assert_eq!(huffman::Fitted::new(&lz).encoded_len(), huffman::encode(&lz).len());
            for cut in [0, 1, lz.len() / 2, lz.len().saturating_sub(1), lz.len()] {
                let len = data.len() + cut % 7;
                prop_assert_eq!(lzss::decode(&lz[..cut], len), lzss_decode(&lz[..cut], len));
            }
            for cut in [0, 127, 128, huff.len() / 2, huff.len().saturating_sub(1), huff.len()] {
                let cut = cut.min(huff.len());
                let len = data.len() + cut % 5;
                prop_assert_eq!(
                    huffman::decode(&huff[..cut], len),
                    huffman_decode(&huff[..cut], len)
                );
            }
        }

        #[test]
        fn bit_writer_matches_oracle(fields in pvec((any::<u32>(), 0u8..33), 0..200)) {
            let mut fast = crate::bitio::BitWriter::new();
            let mut slow = BitWriter::default();
            for &(value, count) in &fields {
                fast.write_bits(value, count);
                slow.write_bits(value, count);
            }
            let bytes = fast.finish();
            prop_assert_eq!(&bytes, &slow.finish());
            let mut fast = crate::bitio::BitReader::new(&bytes);
            let mut slow = BitReader::new(&bytes);
            for &(_, count) in &fields {
                prop_assert_eq!(fast.read_bits(count).ok(), slow.read_bits(count));
            }
            prop_assert_eq!(fast.read_bits(9).ok(), slow.read_bits(9));
        }
    }
}
