//! MD5 message digest, implemented from RFC 1321 (the paper's reference \[14\]).
//!
//! Supports incremental (streaming) hashing via [`Md5::update`] plus the
//! one-shot [`md5`] convenience. Validated against the full RFC 1321 §A.5
//! test suite.

/// Per-round shift amounts (RFC 1321 §3.4).
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Sine-derived constants: K[i] = floor(2^32 * abs(sin(i+1))).
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Message word read by each step (RFC 1321 §3.4).
const G: [usize; 64] = {
    let mut g = [0; 64];
    let mut i = 0;
    while i < 64 {
        g[i] = match i / 16 {
            0 => i,
            1 => (5 * i + 1) % 16,
            2 => (3 * i + 5) % 16,
            _ => (7 * i) % 16,
        };
        i += 1;
    }
    g
};

/// Incremental MD5 state.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes.
    len: u64,
    /// Buffered partial block.
    buffer: [u8; 64],
    buffered: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Fresh hasher with the RFC 1321 initial state.
    pub fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            len: 0,
            buffer: [0u8; 64],
            buffered: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            self.compress(block.try_into().unwrap());
            rest = tail;
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Finish and return the 16-byte digest.
    pub fn finalize(mut self) -> [u8; 16] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: a 0x80 byte, zeros to 56 mod 64, then the 64-bit bit length.
        self.update(&[0x80]);
        while self.buffered != 56 {
            self.update(&[0]);
        }
        // Appending the length must not itself recount into `len`; bypass update.
        let mut block = self.buffer;
        block[56..64].copy_from_slice(&bit_len.to_le_bytes());
        self.compress(&block);
        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let m: [u32; 16] = std::array::from_fn(|i| {
            u32::from_le_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"))
        });
        let [mut a, mut b, mut c, mut d] = self.state;
        // Step `i` of round function `f`; each step names the state words
        // one place further round than the last, so four steps come back.
        macro_rules! step {
            ($f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $i:expr) => {
                $a = $b.wrapping_add(
                    $a.wrapping_add($f($b, $c, $d))
                        .wrapping_add(K[$i])
                        .wrapping_add(m[G[$i]])
                        .rotate_left(S[$i]),
                );
            };
        }
        macro_rules! round {
            ($f:ident, $($i:literal),+) => {$(
                step!($f, a, b, c, d, $i);
                step!($f, d, a, b, c, $i + 1);
                step!($f, c, d, a, b, $i + 2);
                step!($f, b, c, d, a, $i + 3);
            )+};
        }
        round!(f, 0, 4, 8, 12);
        round!(g, 16, 20, 24, 28);
        round!(h, 32, 36, 40, 44);
        round!(i, 48, 52, 56, 60);
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
    }
}

/// The round functions (RFC 1321 §3.4).
#[inline(always)]
fn f(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (!b & d)
}

#[inline(always)]
fn g(b: u32, c: u32, d: u32) -> u32 {
    (d & b) | (!d & c)
}

#[inline(always)]
fn h(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn i(b: u32, c: u32, d: u32) -> u32 {
    c ^ (b | !d)
}

/// One-shot digest.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// One-shot digest as lowercase hex.
pub fn md5_hex(data: &[u8]) -> String {
    pdagent_codec::hex::encode(&md5(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1321_test_suite() {
        // RFC 1321 §A.5.
        let cases: &[(&str, &str)] = &[
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(md5_hex(input.as_bytes()), *expected, "input {input:?}");
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let oneshot = md5(&data);
        // Feed in awkward chunk sizes crossing block boundaries.
        for chunk_size in [1, 3, 63, 64, 65, 127, 997] {
            let mut h = Md5::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn exact_block_boundary_lengths() {
        // Lengths around the 55/56/64-byte padding edges.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![b'x'; len];
            let h1 = md5(&data);
            let mut h = Md5::new();
            h.update(&data);
            assert_eq!(h.finalize(), h1, "len {len}");
        }
    }

    #[test]
    fn known_boundary_digest() {
        // Independently computed: 64 'a' bytes.
        assert_eq!(
            md5_hex(&[b'a'; 64]),
            "014842d480b571495a4a0363793f7367"
        );
    }

    /// The digest through the step loop `Md5::compress` unrolled: the round
    /// function and message word picked per step by `i / 16`.
    fn md5_by_loop(data: &[u8]) -> [u8; 16] {
        let mut state: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_le_bytes());
        for block in padded.chunks_exact(64) {
            let m: Vec<u32> =
                block.chunks_exact(4).map(|w| u32::from_le_bytes(w.try_into().unwrap())).collect();
            let [mut a, mut b, mut c, mut d] = state;
            for i in 0..64 {
                let (f, g) = match i / 16 {
                    0 => ((b & c) | (!b & d), i),
                    1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                    2 => (b ^ c ^ d, (3 * i + 5) % 16),
                    _ => (c ^ (b | !d), (7 * i) % 16),
                };
                let tmp = d;
                d = c;
                c = b;
                b = b.wrapping_add(
                    a.wrapping_add(f).wrapping_add(K[i]).wrapping_add(m[g]).rotate_left(S[i]),
                );
                a = tmp;
            }
            for (word, add) in state.iter_mut().zip([a, b, c, d]) {
                *word = word.wrapping_add(add);
            }
        }
        let mut out = [0u8; 16];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    #[test]
    fn unrolled_rounds_match_the_step_loop() {
        let data: Vec<u8> =
            (0..40 * 1024u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in (0..=300).chain([40 * 1024]) {
            assert_eq!(md5(&data[..len]), md5_by_loop(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn digest_differs_on_bit_flip() {
        let d1 = md5(b"packed information v1");
        let d2 = md5(b"packed information v2");
        assert_ne!(d1, d2);
    }

    #[test]
    fn hex_form_is_32_chars() {
        assert_eq!(md5_hex(b"anything").len(), 32);
    }
}
