//! MSB-first bit-level I/O, shared by the LZSS and Huffman coders.
//!
//! Both sides move whole fields, not single bits: the writer shifts each
//! field into a 64-bit accumulator and emits it 32 bits at a time, and the
//! reader loads the (up to) eight bytes under its bit position as one
//! big-endian word and shifts the field out. The stream format is the plain
//! MSB-first bit string, zero-padded to a whole byte by [`BitWriter::finish`].

/// Accumulates bits MSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Pending bits, right-aligned: the low `used` bits are not yet emitted.
    acc: u64,
    used: u32,
}

impl BitWriter {
    /// New, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the low `count` bits of `value`, MSB first.
    ///
    /// # Panics
    /// Panics if `count > 32`.
    #[inline]
    pub fn write_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "write_bits supports at most 32 bits");
        let count = u32::from(count);
        let mask = (1u64 << count) - 1;
        // At most 31 bits stay pending between calls, so 31 + 32 always fit.
        self.acc = (self.acc << count) | (u64::from(value) & mask);
        self.used += count;
        if self.used >= 32 {
            self.used -= 32;
            self.out.extend_from_slice(&((self.acc >> self.used) as u32).to_be_bytes());
        }
    }

    /// Number of complete bytes plus any partial byte.
    pub fn byte_len(&self) -> usize {
        self.out.len() + self.used.div_ceil(8) as usize
    }

    /// Pad the final partial byte with zero bits and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let bytes = self.used.div_ceil(8);
        let aligned = (self.acc << (32 - self.used)) as u32;
        self.out.extend_from_slice(&aligned.to_be_bytes()[..bytes as usize]);
        self.out
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    input: &'a [u8],
    /// Bits consumed so far.
    pos: usize,
}

/// Error returned when the bit stream runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitEof;

impl std::fmt::Display for BitEof {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unexpected end of bit stream")
    }
}

impl std::error::Error for BitEof {}

impl<'a> BitReader<'a> {
    /// Reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        BitReader { input, pos: 0 }
    }

    /// The next `count` bits MSB-first in the low bits of a `u32`, without
    /// consuming them. Bits past the end of the stream read as zero, so a
    /// decoder can look a full code width ahead near the end and then check
    /// the length it actually needs against [`BitReader::remaining_bits`].
    ///
    /// # Panics
    /// Panics if `count > 32`.
    #[inline]
    pub fn peek_bits(&self, count: u8) -> u32 {
        assert!(count <= 32, "peek_bits supports at most 32 bits");
        if count == 0 {
            return 0;
        }
        let byte = self.pos / 8;
        let mut word = [0u8; 8];
        match self.input.get(byte..byte + 8) {
            Some(bytes) => word.copy_from_slice(bytes),
            None => {
                let tail = self.input.get(byte..).unwrap_or(&[]);
                word[..tail.len()].copy_from_slice(tail);
            }
        }
        // At most 7 bits of the word are already consumed, leaving >= 57.
        let window = u64::from_be_bytes(word) << (self.pos % 8);
        (window >> (64 - u32::from(count))) as u32
    }

    /// The 64 bits from the byte under the cursor on, shifted so the next
    /// unread bit is the most significant, when all eight of those bytes
    /// are in the stream: at least the top 57 bits are then unread stream
    /// bits. `None` nearer the end, where [`BitReader::peek_bits`] pads.
    #[inline]
    pub fn peek_word(&self) -> Option<u64> {
        let byte = self.pos / 8;
        let bytes: [u8; 8] = self.input.get(byte..byte + 8)?.try_into().ok()?;
        Some(u64::from_be_bytes(bytes) << (self.pos % 8))
    }

    /// Skip `count` bits, failing (and consuming nothing) if fewer remain.
    #[inline]
    pub fn consume(&mut self, count: usize) -> Result<(), BitEof> {
        if count > self.remaining_bits() {
            return Err(BitEof);
        }
        self.pos += count;
        Ok(())
    }

    /// Read `count` bits MSB-first into the low bits of a `u32`.
    ///
    /// # Panics
    /// Panics if `count > 32`.
    #[inline]
    pub fn read_bits(&mut self, count: u8) -> Result<u32, BitEof> {
        let value = self.peek_bits(count);
        self.consume(usize::from(count))?;
        Ok(value)
    }

    /// Bits remaining in the stream.
    #[inline]
    pub fn remaining_bits(&self) -> usize {
        self.input.len() * 8 - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bits(u32::from(b), 1);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bits(1).unwrap(), u32::from(b));
        }
    }

    #[test]
    fn multi_bit_values_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xABCD, 16);
        w.write_bits(0, 1);
        w.write_bits(u32::MAX, 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(32).unwrap(), u32::MAX);
    }

    #[test]
    fn bits_above_count_are_ignored() {
        let mut w = BitWriter::new();
        w.write_bits(0xFFFF_FF01, 4);
        w.write_bits(0xFFFF_FFFF, 0);
        w.write_bits(0b1010, 4);
        assert_eq!(w.finish(), vec![0b0001_1010]);
    }

    #[test]
    fn long_runs_of_wide_fields_roundtrip() {
        // Enough 17- and 32-bit fields to cycle the accumulator many times.
        let fields: Vec<(u32, u8)> = (0..500u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9), [17u8, 32, 9, 1, 15][i as usize % 5]))
            .collect();
        let mut w = BitWriter::new();
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            let mask = if n == 32 { u32::MAX } else { (1 << n) - 1 };
            assert_eq!(r.read_bits(n).unwrap(), v & mask);
        }
        assert!(r.remaining_bits() < 8);
    }

    #[test]
    fn eof_detected() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.read_bits(8).unwrap(), 0xff);
        assert_eq!(r.read_bits(1), Err(BitEof));
    }

    #[test]
    fn short_read_fails_without_consuming() {
        let mut r = BitReader::new(&[0b1011_0000]);
        r.read_bits(2).unwrap();
        assert_eq!(r.read_bits(7), Err(BitEof));
        assert_eq!(r.remaining_bits(), 6);
        assert_eq!(r.read_bits(6).unwrap(), 0b11_0000);
    }

    #[test]
    fn peek_pads_past_the_end_with_zeros() {
        let mut r = BitReader::new(&[0b1100_0001]);
        r.consume(6).unwrap();
        assert_eq!(r.peek_bits(15), 0b010_0000_0000_0000);
        assert_eq!(r.remaining_bits(), 2);
        assert_eq!(r.consume(3), Err(BitEof));
        r.consume(2).unwrap();
        assert_eq!(r.peek_bits(32), 0);
    }

    #[test]
    fn peek_word_needs_eight_whole_bytes() {
        let bytes = [0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_word(), Some(0x1234_5678_9abc_def0));
        r.consume(4).unwrap();
        assert_eq!(r.peek_word(), Some(0x2345_6789_abcd_ef00));
        assert_eq!(r.peek_word().unwrap() >> 32, u64::from(r.peek_bits(32)));
        r.consume(4).unwrap();
        assert_eq!(r.peek_word(), Some(0x3456_789a_bcde_f00f));
        r.consume(7).unwrap();
        assert_eq!(r.peek_word(), Some(0x3456_789a_bcde_f00f << 7));
        r.consume(1).unwrap();
        assert_eq!(r.peek_word(), None);
        assert_eq!(BitReader::new(&bytes[..7]).peek_word(), None);
    }

    #[test]
    fn remaining_bits_counts_down() {
        let mut r = BitReader::new(&[0, 0]);
        assert_eq!(r.remaining_bits(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.remaining_bits(), 11);
    }

    #[test]
    fn byte_len_includes_partial() {
        let mut w = BitWriter::new();
        assert_eq!(w.byte_len(), 0);
        w.write_bits(1, 1);
        assert_eq!(w.byte_len(), 1);
        w.write_bits(0, 7);
        assert_eq!(w.byte_len(), 1);
        w.write_bits(1, 1);
        assert_eq!(w.byte_len(), 2);
        // Across the accumulator's 32-bit flush.
        w.write_bits(0, 23);
        assert_eq!(w.byte_len(), 4);
        w.write_bits(0, 1);
        assert_eq!(w.byte_len(), 5);
        assert_eq!(w.finish().len(), 5);
    }

    #[test]
    fn padding_is_zero_bits() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1000_0000]);
    }
}
