//! Keyed ARX keystream cipher for bulk payload encryption.
//!
//! The envelope layer encrypts the (possibly large) compressed PI payload
//! with this cipher under a fresh session key, and RSA only wraps the session
//! key — the classic hybrid scheme. The generator is xoshiro256**-style ARX
//! keyed by a 128-bit key and 64-bit nonce, expanded with an MD5-based key
//! schedule so that close key/nonce pairs diverge immediately.
//!
//! **Not cryptographically secure** — see the crate-level disclaimer.

use crate::md5::md5;

/// A 128-bit session key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionKey(pub [u8; 16]);

impl SessionKey {
    /// Derive a session key from arbitrary entropy bytes (hashed).
    pub fn derive(entropy: &[u8]) -> SessionKey {
        SessionKey(md5(entropy))
    }
}

/// The keystream generator state.
#[derive(Debug, Clone)]
pub struct KeyStream {
    s: [u64; 4],
    buf: [u8; 8],
    used: usize,
}

impl KeyStream {
    /// Initialize from key and nonce.
    pub fn new(key: &SessionKey, nonce: u64) -> KeyStream {
        // Key schedule: two MD5 invocations give 256 bits of state; mixing in
        // the nonce ensures distinct streams per message.
        let mut seed0 = Vec::with_capacity(24);
        seed0.extend_from_slice(&key.0);
        seed0.extend_from_slice(&nonce.to_le_bytes());
        let h0 = md5(&seed0);
        seed0.push(0x5a);
        let h1 = md5(&seed0);
        let mut s = [
            u64::from_le_bytes(h0[..8].try_into().unwrap()),
            u64::from_le_bytes(h0[8..].try_into().unwrap()),
            u64::from_le_bytes(h1[..8].try_into().unwrap()),
            u64::from_le_bytes(h1[8..].try_into().unwrap()),
        ];
        // State must not be all zero.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        let mut ks = KeyStream { s, buf: [0u8; 8], used: 8 };
        // Discard the first outputs so raw state never leaks.
        for _ in 0..4 {
            ks.next_word();
        }
        ks.used = 8;
        ks
    }

    /// xoshiro256** step.
    fn next_word(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next keystream byte.
    pub fn next_byte(&mut self) -> u8 {
        if self.used == 8 {
            self.buf = self.next_word().to_le_bytes();
            self.used = 0;
        }
        let b = self.buf[self.used];
        self.used += 1;
        b
    }

    /// XOR `data` in place with the keystream (encrypt == decrypt): the
    /// bytes left of the buffered word first, then whole words, then the
    /// tail byte by byte. A word's bytes are its little-endian bytes, as
    /// [`KeyStream::next_byte`] hands them out.
    pub fn apply(&mut self, data: &mut [u8]) {
        let (head, body) = data.split_at_mut((8 - self.used).min(data.len()));
        for byte in head {
            *byte ^= self.next_byte();
        }
        let mut words = body.chunks_exact_mut(8);
        for word in &mut words {
            let plain = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            word.copy_from_slice(&(plain ^ self.next_word()).to_le_bytes());
        }
        for byte in words.into_remainder() {
            *byte ^= self.next_byte();
        }
    }
}

/// Encrypt (or decrypt) a buffer, returning a new vector.
pub fn xor_cipher(key: &SessionKey, nonce: u64, data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    KeyStream::new(key, nonce).apply(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let key = SessionKey::derive(b"entropy");
        let data = b"the packed information payload".to_vec();
        let ct = xor_cipher(&key, 7, &data);
        assert_ne!(ct, data);
        assert_eq!(xor_cipher(&key, 7, &ct), data);
    }

    #[test]
    fn different_nonce_different_stream() {
        let key = SessionKey::derive(b"k");
        let data = vec![0u8; 64];
        let a = xor_cipher(&key, 1, &data);
        let b = xor_cipher(&key, 2, &data);
        assert_ne!(a, b);
    }

    #[test]
    fn different_key_different_stream() {
        let data = vec![0u8; 64];
        let a = xor_cipher(&SessionKey::derive(b"k1"), 1, &data);
        let b = xor_cipher(&SessionKey::derive(b"k2"), 1, &data);
        assert_ne!(a, b);
    }

    #[test]
    fn keystream_looks_balanced() {
        // Sanity: about half the bits of a long keystream are 1.
        let mut ks = KeyStream::new(&SessionKey::derive(b"balance"), 0);
        let mut ones = 0u32;
        let total_bits = 8 * 4096;
        for _ in 0..4096 {
            ones += ks.next_byte().count_ones();
        }
        let frac = ones as f64 / total_bits as f64;
        assert!((0.47..0.53).contains(&frac), "bit balance {frac}");
    }

    #[test]
    fn incremental_apply_matches_oneshot() {
        let key = SessionKey::derive(b"x");
        let data: Vec<u8> = (0..200u8).collect();
        let oneshot = xor_cipher(&key, 5, &data);
        let mut ks = KeyStream::new(&key, 5);
        let mut buf = data.clone();
        let (a, b) = buf.split_at_mut(67);
        ks.apply(a);
        ks.apply(b);
        assert_eq!(buf, oneshot);
    }

    #[test]
    fn apply_matches_the_byte_at_a_time_keystream() {
        let key = SessionKey::derive(b"words");
        for head in 0..=17 {
            for len in 0..=41 {
                let mut fast = KeyStream::new(&key, 9);
                let mut slow = fast.clone();
                let mut got: Vec<u8> = (0..head + len).map(|i| i as u8).collect();
                let want: Vec<u8> = got.iter().map(|&b| b ^ slow.next_byte()).collect();
                let (a, b) = got.split_at_mut(head);
                fast.apply(a);
                fast.apply(b);
                assert_eq!(got, want, "head {head}, len {len}");
                assert_eq!(fast.next_byte(), slow.next_byte(), "head {head}, len {len}");
            }
        }
    }

    #[test]
    fn empty_input() {
        let key = SessionKey::derive(b"");
        assert_eq!(xor_cipher(&key, 0, &[]), Vec::<u8>::new());
    }

    #[test]
    fn session_key_derive_is_deterministic() {
        assert_eq!(SessionKey::derive(b"abc"), SessionKey::derive(b"abc"));
        assert_ne!(SessionKey::derive(b"abc"), SessionKey::derive(b"abd"));
    }
}
