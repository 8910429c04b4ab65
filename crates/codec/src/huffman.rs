//! Canonical static Huffman coding.
//!
//! A two-pass coder: count byte frequencies, build a length-limited (15-bit)
//! Huffman code, emit the 256 code lengths as a compact header, then the
//! coded payload. Canonical codes mean the header only needs the *lengths* —
//! the codes themselves are reconstructed deterministically on both sides.

use crate::bitio::{BitReader, BitWriter};

/// Maximum code length. 15 bits is plenty for 256 symbols and keeps the
/// decoder tables small.
pub const MAX_CODE_LEN: u8 = 15;

/// Error from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HuffmanError {
    /// Stream ended mid-symbol or mid-header.
    Truncated,
    /// The header's code lengths do not describe a valid prefix code.
    InvalidTable,
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::Truncated => write!(f, "truncated Huffman stream"),
            HuffmanError::InvalidTable => write!(f, "invalid Huffman code table"),
        }
    }
}

impl std::error::Error for HuffmanError {}

/// Compute code lengths for the byte frequencies using package-merge-free
/// heap construction, then flatten depths. Zero-frequency symbols get length
/// 0 (absent).
fn code_lengths(freqs: &[u64; 256]) -> [u8; 256] {
    // Build the Huffman tree with a simple two-queue/heap method.
    #[derive(Debug)]
    struct NodeArena {
        // (weight, left, right); leaves have left == right == usize::MAX and
        // carry their symbol in `symbol`.
        weight: Vec<u64>,
        left: Vec<usize>,
        right: Vec<usize>,
        symbol: Vec<usize>,
    }
    let mut arena =
        NodeArena { weight: vec![], left: vec![], right: vec![], symbol: vec![] };
    let mut heap = std::collections::BinaryHeap::new();
    for (sym, &f) in freqs.iter().enumerate() {
        if f > 0 {
            let id = arena.weight.len();
            arena.weight.push(f);
            arena.left.push(usize::MAX);
            arena.right.push(usize::MAX);
            arena.symbol.push(sym);
            heap.push(std::cmp::Reverse((f, id)));
        }
    }
    let mut lengths = [0u8; 256];
    match heap.len() {
        0 => return lengths,
        1 => {
            // A single distinct symbol still needs a 1-bit code.
            let std::cmp::Reverse((_, id)) = heap.pop().unwrap();
            lengths[arena.symbol[id]] = 1;
            return lengths;
        }
        _ => {}
    }
    while heap.len() > 1 {
        let std::cmp::Reverse((w1, n1)) = heap.pop().unwrap();
        let std::cmp::Reverse((w2, n2)) = heap.pop().unwrap();
        let id = arena.weight.len();
        arena.weight.push(w1 + w2);
        arena.left.push(n1);
        arena.right.push(n2);
        arena.symbol.push(usize::MAX);
        heap.push(std::cmp::Reverse((w1 + w2, id)));
    }
    let root = heap.pop().unwrap().0 .1;
    // Walk the tree assigning depths.
    let mut stack = vec![(root, 0u8)];
    let mut max_depth = 0u8;
    while let Some((node, depth)) = stack.pop() {
        if arena.left[node] == usize::MAX {
            lengths[arena.symbol[node]] = depth.max(1);
            max_depth = max_depth.max(depth);
        } else {
            stack.push((arena.left[node], depth + 1));
            stack.push((arena.right[node], depth + 1));
        }
    }
    if max_depth > MAX_CODE_LEN {
        // Length-limit by clamping and re-normalizing with the Kraft sum.
        limit_lengths(&mut lengths);
    }
    lengths
}

/// Clamp code lengths to [`MAX_CODE_LEN`] and repair the Kraft inequality by
/// deepening the shallowest over-budget codes.
fn limit_lengths(lengths: &mut [u8; 256]) {
    for l in lengths.iter_mut() {
        if *l > MAX_CODE_LEN {
            *l = MAX_CODE_LEN;
        }
    }
    // Kraft sum in units of 2^-MAX_CODE_LEN.
    let unit = 1u64 << MAX_CODE_LEN;
    let mut kraft: u64 =
        lengths.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
    // While over budget, lengthen the deepest-but-shortenable code.
    while kraft > unit {
        // Find a symbol with the smallest length > 0 that can grow.
        let (idx, _) = lengths
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 0 && l < MAX_CODE_LEN)
            .min_by_key(|(_, &l)| l)
            .expect("kraft repair impossible");
        kraft -= unit >> lengths[idx];
        lengths[idx] += 1;
        kraft += unit >> lengths[idx];
    }
}

/// Assign canonical codes given lengths. Returns (code, len) per symbol.
fn canonical_codes(lengths: &[u8; 256]) -> Result<[(u32, u8); 256], HuffmanError> {
    let mut codes = [(0u32, 0u8); 256];
    // Count codes per length.
    let mut bl_count = [0u32; MAX_CODE_LEN as usize + 1];
    for &l in lengths.iter() {
        if l as usize > MAX_CODE_LEN as usize {
            return Err(HuffmanError::InvalidTable);
        }
        bl_count[l as usize] += 1;
    }
    bl_count[0] = 0;
    // Kraft check: the code must be exactly full or under-full (under-full is
    // tolerated for the degenerate 1-symbol case).
    let unit = 1u64 << MAX_CODE_LEN;
    let kraft: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
    if kraft > unit {
        return Err(HuffmanError::InvalidTable);
    }
    let mut next_code = [0u32; MAX_CODE_LEN as usize + 2];
    let mut code = 0u32;
    for bits in 1..=MAX_CODE_LEN as usize {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    for (sym, &len) in lengths.iter().enumerate() {
        if len > 0 {
            codes[sym] = (next_code[len as usize], len);
            next_code[len as usize] += 1;
        }
    }
    Ok(codes)
}

/// Encode `data`. Output = header (256 nibble-packed code lengths = 128
/// bytes... compacted with RLE-of-nibbles) + bit payload. Empty input yields
/// an empty vector.
pub fn encode(data: &[u8]) -> Vec<u8> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut freqs = [0u64; 256];
    for &b in data {
        freqs[b as usize] += 1;
    }
    let lengths = code_lengths(&freqs);
    let codes = canonical_codes(&lengths).expect("own table is valid");

    let mut w = BitWriter::new();
    // Header: 256 x 4-bit code lengths.
    for &l in lengths.iter() {
        w.write_bits(l as u32, 4);
    }
    for &b in data {
        let (code, len) = codes[b as usize];
        w.write_bits(code, len);
    }
    w.finish()
}

/// Decode exactly `original_len` bytes from a stream produced by [`encode`].
pub fn decode(data: &[u8], original_len: usize) -> Result<Vec<u8>, HuffmanError> {
    if original_len == 0 {
        return Ok(Vec::new());
    }
    let mut r = BitReader::new(data);
    let mut lengths = [0u8; 256];
    for l in lengths.iter_mut() {
        *l = r.read_bits(4).map_err(|_| HuffmanError::Truncated)? as u8;
    }
    let codes = canonical_codes(&lengths)?;
    // Build a simple decode map: (len, code) -> symbol.
    let mut table = std::collections::HashMap::new();
    let mut any = false;
    for (sym, &(code, len)) in codes.iter().enumerate() {
        if len > 0 {
            table.insert((len, code), sym as u8);
            any = true;
        }
    }
    if !any {
        return Err(HuffmanError::InvalidTable);
    }
    // `original_len` may come from an untrusted header: every symbol costs
    // at least one bit, so the stream cannot produce more bytes than it has
    // bits, and a longer promise fails with `Truncated` once they run out.
    let mut out = Vec::with_capacity(original_len.min(data.len().saturating_mul(8)));
    while out.len() < original_len {
        let mut code = 0u32;
        let mut len = 0u8;
        loop {
            code = (code << 1) | r.read_bit().map_err(|_| HuffmanError::Truncated)? as u32;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let enc = encode(data);
        let dec = decode(&enc, data.len()).unwrap();
        assert_eq!(dec, data);
        enc
    }

    #[test]
    fn empty() {
        assert!(encode(b"").is_empty());
        assert_eq!(decode(b"", 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn single_symbol() {
        let data = vec![b'x'; 500];
        let enc = roundtrip(&data);
        // Header is 128 bytes; payload ~500 bits = 63 bytes.
        assert!(enc.len() < 200);
    }

    #[test]
    fn two_symbols() {
        let data: Vec<u8> =
            std::iter::repeat_n([b'a', b'b'], 100).flatten().collect();
        roundtrip(&data);
    }

    #[test]
    fn english_text_compresses() {
        let data = b"it is a truth universally acknowledged, that a single man in \
                     possession of a good fortune, must be in want of a wife."
            .repeat(20);
        let enc = roundtrip(&data);
        assert!(enc.len() < data.len() * 6 / 10, "{} -> {}", data.len(), enc.len());
    }

    #[test]
    fn all_byte_values_roundtrip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(3000).collect();
        roundtrip(&data);
    }

    #[test]
    fn skewed_distribution() {
        let mut data = vec![0u8; 10_000];
        for (i, b) in data.iter_mut().enumerate() {
            if i % 100 == 0 {
                *b = (i / 100) as u8;
            }
        }
        let enc = roundtrip(&data);
        assert!(enc.len() < data.len() / 4);
    }

    #[test]
    fn truncated_header_errors() {
        assert_eq!(decode(&[0u8; 10], 5).unwrap_err(), HuffmanError::Truncated);
    }

    #[test]
    fn truncated_payload_errors() {
        let data = b"hello hello hello hello";
        let enc = encode(data);
        let cut = &enc[..129]; // header survives, payload cut
        assert!(decode(cut, data.len()).is_err());
    }

    #[test]
    fn all_zero_table_is_invalid() {
        // 128 zero bytes: a complete header with no symbols.
        let enc = vec![0u8; 128];
        assert_eq!(decode(&enc, 1).unwrap_err(), HuffmanError::InvalidTable);
    }

    #[test]
    fn oversubscribed_table_is_invalid() {
        // All 256 symbols with length 1 grossly violates Kraft.
        let mut w = BitWriter::new();
        for _ in 0..256 {
            w.write_bits(1, 4);
        }
        let enc = w.finish();
        assert_eq!(decode(&enc, 1).unwrap_err(), HuffmanError::InvalidTable);
    }

    #[test]
    fn deep_tree_is_length_limited() {
        // Fibonacci-ish frequencies force deep trees; lengths must stay <= 15.
        let mut freqs = [0u64; 256];
        let mut a = 1u64;
        let mut b = 1u64;
        for f in freqs.iter_mut().take(40) {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lengths = code_lengths(&freqs);
        assert!(lengths.iter().all(|&l| l <= MAX_CODE_LEN));
        // And they must form a decodable code.
        canonical_codes(&lengths).unwrap();
    }
}
