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
pub(crate) fn code_lengths(freqs: &[u64; 256]) -> [u8; 256] {
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
pub(crate) fn canonical_codes(lengths: &[u8; 256]) -> Result<[(u32, u8); 256], HuffmanError> {
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

/// Bytes of the code-length header: 256 lengths of 4 bits each.
const HEADER_BYTES: usize = 256 * 4 / 8;

/// The byte frequencies of `data`, counted in four interleaved tables so
/// that consecutive equal bytes do not wait on one counter.
pub(crate) fn histogram(data: &[u8]) -> [u64; 256] {
    let mut lanes = [[0u64; 256]; 4];
    let mut quads = data.chunks_exact(4);
    for quad in &mut quads {
        for (lane, &b) in lanes.iter_mut().zip(quad) {
            lane[b as usize] += 1;
        }
    }
    for &b in quads.remainder() {
        lanes[0][b as usize] += 1;
    }
    std::array::from_fn(|sym| lanes.iter().map(|lane| lane[sym]).sum())
}

/// A lower bound on [`Fitted::encoded_len`] for an input of `len` bytes with
/// byte frequencies `freqs`, found without fitting a code. The lengths
/// [`code_lengths`] gives obey the Kraft inequality, so the payload holds at
/// least the histogram's entropy, `Σ f·log2(len/f)` bits, after the fixed
/// header. The `f64` sum is lowered by a relative 1e-9 and one bit, far more
/// than its rounding error, so the bound never exceeds the true size.
pub(crate) fn encoded_len_bound(freqs: &[u64; 256], len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let total = len as f64;
    let entropy: f64 = freqs
        .iter()
        .filter(|&&f| f > 0)
        .map(|&f| f as f64 * (total / f as f64).log2())
        .sum();
    let bits = (entropy * (1.0 - 1e-9) - 1.0).max(0.0);
    HEADER_BYTES + (bits / 8.0).ceil() as usize
}

/// The Huffman code fitted to one input. It knows the size of its encoding
/// before writing it, so [`crate::compress`] can rank the candidates of
/// `Algorithm::Auto` and encode only the one it keeps.
pub(crate) struct Fitted<'a> {
    data: &'a [u8],
    lengths: [u8; 256],
    /// Payload bits: every symbol's code length, summed over `data`.
    bits: u64,
}

impl<'a> Fitted<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Fitted<'a> {
        Fitted::with_histogram(data, &histogram(data))
    }

    /// The code for `data`, whose [`histogram`] is `freqs`.
    pub(crate) fn with_histogram(data: &'a [u8], freqs: &[u64; 256]) -> Fitted<'a> {
        let lengths = code_lengths(freqs);
        let bits = freqs.iter().zip(&lengths).map(|(&f, &l)| f * u64::from(l)).sum();
        Fitted { data, lengths, bits }
    }

    /// Length of what [`Fitted::encode`] returns.
    pub(crate) fn encoded_len(&self) -> usize {
        if self.data.is_empty() {
            0
        } else {
            HEADER_BYTES + self.bits.div_ceil(8) as usize
        }
    }

    /// The header followed by the coded payload.
    pub(crate) fn encode(&self) -> Vec<u8> {
        if self.data.is_empty() {
            return Vec::new();
        }
        let codes = canonical_codes(&self.lengths).expect("own table is valid");
        let mut w = BitWriter::new();
        for &l in self.lengths.iter() {
            w.write_bits(l as u32, 4);
        }
        for &b in self.data {
            let (code, len) = codes[b as usize];
            w.write_bits(code, len);
        }
        w.finish()
    }
}

/// Encode `data`: a header of 256 4-bit code lengths (128 bytes), then one
/// canonical code per input byte. Empty input yields an empty vector.
pub fn encode(data: &[u8]) -> Vec<u8> {
    Fitted::new(data).encode()
}

/// Width of the primary decode table: a code up to this long decodes with
/// one probe. Longer codes (rare: they belong to the least frequent symbols)
/// finish with a canonical first-code walk. Ten bits keep the table at 2 KiB,
/// cheap to build even for a 1 KB document.
const TABLE_BITS: u8 = 10;

/// Canonical decode tables for one code-length header.
struct DecodeTable {
    /// Indexed by the next [`TABLE_BITS`] bits: `symbol << 4 | length` of the
    /// code that prefixes them, or 0 when no code that short does.
    primary: [u16; 1 << TABLE_BITS],
    /// Per length above [`TABLE_BITS`]: the first canonical code, how many
    /// codes follow it, and where their symbols start in `symbols`.
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    count: [u32; MAX_CODE_LEN as usize + 1],
    first_index: [usize; MAX_CODE_LEN as usize + 1],
    /// Long-code symbols in canonical (length, symbol) order.
    symbols: Vec<u8>,
}

impl DecodeTable {
    fn new(codes: &[(u32, u8); 256]) -> DecodeTable {
        let mut table = DecodeTable {
            primary: [0; 1 << TABLE_BITS],
            first_code: [0; MAX_CODE_LEN as usize + 1],
            count: [0; MAX_CODE_LEN as usize + 1],
            first_index: [0; MAX_CODE_LEN as usize + 1],
            symbols: Vec::new(),
        };
        for (sym, &(code, len)) in codes.iter().enumerate() {
            if len > 0 && len <= TABLE_BITS {
                let shift = TABLE_BITS - len;
                let start = (code << shift) as usize;
                let entry = (sym as u16) << 4 | u16::from(len);
                table.primary[start..start + (1 << shift)].fill(entry);
            }
        }
        // Canonical codes of one length are consecutive in symbol order.
        for len in TABLE_BITS + 1..=MAX_CODE_LEN {
            let l = len as usize;
            table.first_index[l] = table.symbols.len();
            for sym in (0..256).filter(|&sym| codes[sym].1 == len) {
                if table.count[l] == 0 {
                    table.first_code[l] = codes[sym].0;
                }
                table.count[l] += 1;
                table.symbols.push(sym as u8);
            }
        }
        table
    }

    /// The (symbol, length) of the code that prefixes `window`, the next
    /// [`MAX_CODE_LEN`] bits of the stream; `None` when no code does (only
    /// possible with an under-full table).
    #[inline]
    fn lookup(&self, window: u32) -> Option<(u8, u8)> {
        let entry = self.primary[(window >> (MAX_CODE_LEN - TABLE_BITS)) as usize];
        if entry != 0 {
            return Some(((entry >> 4) as u8, (entry & 0xf) as u8));
        }
        (TABLE_BITS + 1..=MAX_CODE_LEN).find_map(|len| {
            let l = len as usize;
            let offset = (window >> (MAX_CODE_LEN - len)).wrapping_sub(self.first_code[l]);
            (offset < self.count[l])
                .then(|| (self.symbols[self.first_index[l] + offset as usize], len))
        })
    }
}

/// Decode exactly `original_len` bytes from a stream produced by [`encode`].
///
/// Errors classify like a bit-serial prefix walk: a symbol whose code is
/// longer than the bits left is [`HuffmanError::Truncated`]; bits that match
/// no code are [`HuffmanError::InvalidTable`] once `MAX_CODE_LEN + 1` bits
/// prove it, and `Truncated` when the stream ends first.
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
    if lengths.iter().all(|&l| l == 0) {
        return Err(HuffmanError::InvalidTable);
    }
    let table = DecodeTable::new(&codes);
    // `original_len` may come from an untrusted header: every symbol costs
    // at least one bit, so the stream cannot produce more bytes than it has
    // bits, and a longer promise fails with `Truncated` once they run out.
    let mut out = Vec::with_capacity(original_len.min(data.len().saturating_mul(8)));
    // While eight whole bytes remain under the cursor, one load holds at
    // least 57 stream bits: room for three codes of at most 15 bits, none
    // of which can run past the end. A code the table lacks stops this loop
    // on its first bit, for the loop below to classify.
    'words: while original_len - out.len() >= 3 {
        let Some(mut word) = r.peek_word() else { break };
        let mut used = 0;
        for _ in 0..3 {
            let Some((sym, len)) = table.lookup((word >> (64 - MAX_CODE_LEN)) as u32) else {
                r.consume(used).expect("decoded codes lie inside the word");
                break 'words;
            };
            out.push(sym);
            word <<= len;
            used += usize::from(len);
        }
        r.consume(used).expect("three codes fit in the word");
    }
    while out.len() < original_len {
        // Past the end the peek pads with zeros; `consume` then rejects a
        // code longer than the bits that really remain.
        let Some((sym, len)) = table.lookup(r.peek_bits(MAX_CODE_LEN)) else {
            return Err(if r.remaining_bits() > MAX_CODE_LEN as usize {
                HuffmanError::InvalidTable
            } else {
                HuffmanError::Truncated
            });
        };
        r.consume(usize::from(len)).map_err(|_| HuffmanError::Truncated)?;
        out.push(sym);
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
    fn entropy_bound_is_reached_by_a_uniform_histogram_and_never_passed() {
        let bound = |data: &[u8]| encoded_len_bound(&histogram(data), data.len());
        // Every byte value equally often: the code is 8 bits flat, exactly
        // the entropy, and the margins do not cost a byte.
        let uniform: Vec<u8> = (0..=255u8).cycle().take(256 * 37).collect();
        assert_eq!(bound(&uniform), Fitted::new(&uniform).encoded_len());
        let mut skewed = vec![7u8; 5000];
        skewed.extend(0..=255u8);
        for data in [&uniform[..], &skewed, b"x", b"", b"abracadabra"] {
            assert!(bound(data) <= encode(data).len(), "{} bytes", data.len());
        }
        assert_eq!(bound(b""), 0);
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

    /// The table decoder and the bit-serial oracle agree on `stream` cut at
    /// every byte, asked for `len` symbols and for one more.
    fn agrees_with_oracle(stream: &[u8], len: usize) {
        for cut in 0..=stream.len() {
            for n in [len, len + 1] {
                assert_eq!(
                    decode(&stream[..cut], n),
                    crate::oracle::huffman_decode(&stream[..cut], n),
                    "cut {cut}, {n} symbols"
                );
            }
        }
    }

    /// A header giving `sym` code length `len` for each pair, then `payload`.
    fn stream(lengths: &[(u8, u8)], payload: &[u8]) -> Vec<u8> {
        let mut table = [0u8; 256];
        for &(sym, len) in lengths {
            table[sym as usize] = len;
        }
        let mut w = BitWriter::new();
        for l in table {
            w.write_bits(u32::from(l), 4);
        }
        let mut out = w.finish();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn last_code_ends_in_the_final_byte_with_fewer_bits_than_the_table() {
        // Lengths a:1 b:2 c:3 d:4 e:5 f:6 g:7 h:7, with a 7-bit code last.
        let mut data = Vec::new();
        for (sym, count) in [(b'a', 64), (b'b', 32), (b'c', 16), (b'd', 8), (b'e', 4), (b'f', 2)] {
            data.extend(std::iter::repeat_n(sym, count));
        }
        data.extend_from_slice(b"hg");
        let mut freqs = [0u64; 256];
        data.iter().for_each(|&b| freqs[b as usize] += 1);
        let lengths = code_lengths(&freqs);
        let bits: usize = data.iter().map(|&b| usize::from(lengths[b as usize])).sum();
        let last = usize::from(lengths[b'g' as usize]);
        let left_at_last = last + (8 - bits % 8) % 8;
        assert!(last == 7 && left_at_last < usize::from(TABLE_BITS), "{last} {left_at_last}");
        let enc = roundtrip(&data);
        agrees_with_oracle(&enc, data.len());
    }

    #[test]
    fn fifteen_bit_codes_decode_through_the_long_code_walk() {
        // Fibonacci frequencies over 17 symbols want a 16-deep tree; the
        // length limit leaves several 15-bit codes. The rarest symbol is last.
        let (mut a, mut b) = (1usize, 1usize);
        let mut data = Vec::new();
        for sym in (0..17u8).rev() {
            data.extend(std::iter::repeat_n(sym, a));
            (a, b) = (b, a + b);
        }
        data.reverse();
        let mut freqs = [0u64; 256];
        data.iter().for_each(|&b| freqs[b as usize] += 1);
        let lengths = code_lengths(&freqs);
        assert_eq!(lengths.iter().max(), Some(&MAX_CODE_LEN));
        assert_eq!(lengths[data[data.len() - 1] as usize], MAX_CODE_LEN);
        let enc = roundtrip(&data);
        // Cut only near the end: the oracle is slow on 4 k symbols.
        for cut in enc.len() - 4..=enc.len() {
            let n = data.len();
            assert_eq!(decode(&enc[..cut], n), crate::oracle::huffman_decode(&enc[..cut], n));
        }
    }

    #[test]
    fn single_symbol_table_uses_a_one_bit_code() {
        let data = vec![b'x'; 100];
        let enc = roundtrip(&data);
        agrees_with_oracle(&enc, data.len());
        // x is `0`; a `1` matches nothing. With 16 or more bits left that is
        // a bad table; with fewer the stream may just be cut short.
        let bad = stream(&[(b'x', 1)], &[0b0010_0000, 0, 0]);
        assert_eq!(decode(&bad, 2).unwrap(), b"xx");
        assert_eq!(decode(&bad, 3), Err(HuffmanError::InvalidTable));
        assert_eq!(decode(&bad[..bad.len() - 1], 3), Err(HuffmanError::Truncated));
        agrees_with_oracle(&bad, 3);
    }

    #[test]
    fn under_full_table_rejects_the_unused_code() {
        // a:`0` b:`10` leave `11` unassigned (Kraft sum 3/4).
        let good = stream(&[(b'a', 1), (b'b', 2)], &[0b0100_1100, 0, 0]);
        assert_eq!(decode(&good, 3).unwrap(), b"aba");
        assert_eq!(decode(&good, 4), Err(HuffmanError::InvalidTable));
        assert_eq!(decode(&good[..good.len() - 1], 4), Err(HuffmanError::Truncated));
        agrees_with_oracle(&good, 4);
        // The boundary: `11` after eight `a`s leaves 16 bits (a bad table),
        // after nine leaves 15 (a stream cut short).
        let sixteen = stream(&[(b'a', 1), (b'b', 2)], &[0, 0b1100_0000, 0]);
        assert_eq!(decode(&sixteen, 9), Err(HuffmanError::InvalidTable));
        let fifteen = stream(&[(b'a', 1), (b'b', 2)], &[0, 0b0110_0000, 0]);
        assert_eq!(decode(&fifteen, 10), Err(HuffmanError::Truncated));
        agrees_with_oracle(&sixteen, 9);
        agrees_with_oracle(&fifteen, 10);
    }

    #[test]
    fn an_unused_code_far_from_the_end_stops_the_word_loop() {
        // a:`0` b:`10` leave `11` unassigned. After 32, 33 or 34 `a`s, so at
        // each of the three codes one word holds, `11` comes with more than
        // eight bytes still to go: the word loop must hand over to the
        // careful one, which calls it a bad table.
        for run in 32..35 {
            let mut w = BitWriter::new();
            w.write_bits(0, 16);
            w.write_bits(0, run - 16);
            w.write_bits(0b11, 2);
            w.write_bits(0, 30);
            let mut payload = w.finish();
            payload.extend_from_slice(&[0; 10]);
            let bad = stream(&[(b'a', 1), (b'b', 2)], &payload);
            let run = usize::from(run);
            assert_eq!(decode(&bad, run).unwrap(), vec![b'a'; run]);
            assert_eq!(decode(&bad, run + 1), Err(HuffmanError::InvalidTable));
            agrees_with_oracle(&bad, run + 1);
        }
    }
}
