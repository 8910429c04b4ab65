//! The self-describing `PDAZ` compression container.
//!
//! Layout: 4-byte magic `PDAZ`, 1 algorithm byte, varint original length,
//! then the algorithm-specific payload. A receiver (the gateway, or the
//! device unpacking a downloaded agent) needs no out-of-band information.
//!
//! [`Algorithm::Auto`] tries every real algorithm and keeps the smallest
//! output, falling back to [`Algorithm::Store`] when compression does not
//! pay — so `compress` never expands data by more than the 6–15 byte header.

use crate::{huffman, lzss, rle, varint};

/// Magic prefix of the container.
pub const MAGIC: &[u8; 4] = b"PDAZ";

/// Compression algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// No compression (payload stored verbatim).
    Store,
    /// Run-length encoding.
    Rle,
    /// LZSS with a 4 KiB window.
    Lzss,
    /// Canonical static Huffman.
    Huffman,
    /// LZSS followed by Huffman on the LZSS bit stream.
    LzssHuffman,
    /// Pick whichever of the above yields the smallest output.
    Auto,
}

impl Algorithm {
    fn to_byte(self) -> u8 {
        match self {
            Algorithm::Store => 0,
            Algorithm::Rle => 1,
            Algorithm::Lzss => 2,
            Algorithm::Huffman => 3,
            Algorithm::LzssHuffman => 4,
            Algorithm::Auto => panic!("Auto is resolved before encoding"),
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(Algorithm::Store),
            1 => Some(Algorithm::Rle),
            2 => Some(Algorithm::Lzss),
            3 => Some(Algorithm::Huffman),
            4 => Some(Algorithm::LzssHuffman),
            _ => None,
        }
    }

    /// Human-readable name (used by the footprint experiment's report).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Store => "store",
            Algorithm::Rle => "rle",
            Algorithm::Lzss => "lzss",
            Algorithm::Huffman => "huffman",
            Algorithm::LzssHuffman => "lzss+huffman",
            Algorithm::Auto => "auto",
        }
    }
}

/// Decoding error for the container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input does not start with the `PDAZ` magic.
    BadMagic,
    /// Unknown algorithm byte.
    UnknownAlgorithm(u8),
    /// Header truncated.
    Truncated,
    /// The payload failed to decode.
    Payload(String),
    /// Decoded output length did not match the header.
    LengthMismatch {
        /// Length promised by the header.
        expected: usize,
        /// Length actually produced.
        actual: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "missing PDAZ magic"),
            CodecError::UnknownAlgorithm(b) => write!(f, "unknown algorithm byte {b}"),
            CodecError::Truncated => write!(f, "truncated PDAZ container"),
            CodecError::Payload(msg) => write!(f, "payload decode failed: {msg}"),
            CodecError::LengthMismatch { expected, actual } => {
                write!(f, "decoded {actual} bytes, header promised {expected}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

fn encode_with(data: &[u8], alg: Algorithm) -> Vec<u8> {
    match alg {
        Algorithm::Store => data.to_vec(),
        Algorithm::Rle => rle::encode(data),
        Algorithm::Lzss => lzss::encode(data),
        Algorithm::Huffman => huffman::encode(data),
        Algorithm::LzssHuffman => huffman::encode(&lzss::encode(data)),
        Algorithm::Auto => unreachable!(),
    }
}

/// Compress `data` into a `PDAZ` container.
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
            // Never ship an expanded payload: fall back to Store.
            if enc.len() >= data.len() && other != Algorithm::Store {
                (Algorithm::Store, data.to_vec())
            } else {
                (other, enc)
            }
        }
    };
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(MAGIC);
    out.push(alg.to_byte());
    varint::write_usize(&mut out, data.len());
    // For LzssHuffman the Huffman layer needs the intermediate length too.
    if alg == Algorithm::LzssHuffman {
        let mid = lzss::encode(data);
        varint::write_usize(&mut out, mid.len());
    }
    out.extend_from_slice(&payload);
    out
}

/// Which algorithm a container was encoded with (without decompressing).
pub fn sniff_algorithm(data: &[u8]) -> Result<Algorithm, CodecError> {
    if data.len() < 5 || &data[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    Algorithm::from_byte(data[4]).ok_or(CodecError::UnknownAlgorithm(data[4]))
}

/// Decompress a `PDAZ` container.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let alg = sniff_algorithm(data)?;
    let mut pos = 5;
    let original_len =
        varint::read_usize(data, &mut pos).map_err(|_| CodecError::Truncated)?;
    let out = match alg {
        Algorithm::Store => {
            data.get(pos..).map(<[u8]>::to_vec).ok_or(CodecError::Truncated)?
        }
        Algorithm::Rle => rle::decode(data.get(pos..).ok_or(CodecError::Truncated)?)
            .map_err(|e| CodecError::Payload(e.to_string()))?,
        Algorithm::Lzss => {
            lzss::decode(data.get(pos..).ok_or(CodecError::Truncated)?, original_len)
                .map_err(|e| CodecError::Payload(e.to_string()))?
        }
        Algorithm::Huffman => {
            huffman::decode(data.get(pos..).ok_or(CodecError::Truncated)?, original_len)
                .map_err(|e| CodecError::Payload(e.to_string()))?
        }
        Algorithm::LzssHuffman => {
            let mid_len =
                varint::read_usize(data, &mut pos).map_err(|_| CodecError::Truncated)?;
            let mid =
                huffman::decode(data.get(pos..).ok_or(CodecError::Truncated)?, mid_len)
                    .map_err(|e| CodecError::Payload(e.to_string()))?;
            lzss::decode(&mid, original_len)
                .map_err(|e| CodecError::Payload(e.to_string()))?
        }
        Algorithm::Auto => unreachable!(),
    };
    if out.len() != original_len {
        return Err(CodecError::LengthMismatch { expected: original_len, actual: out.len() });
    }
    Ok(out)
}

/// Compression ratio achieved by a container (original / packed), for
/// reporting. Returns `None` on a malformed container.
pub fn ratio(container: &[u8]) -> Option<f64> {
    let mut pos = 5;
    if container.len() < 5 || &container[..4] != MAGIC {
        return None;
    }
    let original = varint::read_usize(container, &mut pos).ok()?;
    if container.is_empty() {
        return None;
    }
    Some(original as f64 / container.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &[u8] = b"<agent><op>transfer</op><op>transfer</op><op>balance</op>\
        <from>acct-0001</from><to>acct-0002</to><amount>125.50</amount></agent>";

    #[test]
    fn every_algorithm_roundtrips() {
        for alg in [
            Algorithm::Store,
            Algorithm::Rle,
            Algorithm::Lzss,
            Algorithm::Huffman,
            Algorithm::LzssHuffman,
            Algorithm::Auto,
        ] {
            let packed = compress(SAMPLE, alg);
            assert_eq!(decompress(&packed).unwrap(), SAMPLE, "alg {alg:?}");
        }
    }

    #[test]
    fn empty_input() {
        for alg in [Algorithm::Store, Algorithm::Lzss, Algorithm::Auto] {
            let packed = compress(b"", alg);
            assert_eq!(decompress(&packed).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn auto_never_loses_to_store_by_much() {
        let mut random = Vec::with_capacity(1000);
        let mut x: u32 = 42;
        for _ in 0..1000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            random.push((x >> 24) as u8);
        }
        let packed = compress(&random, Algorithm::Auto);
        assert!(packed.len() <= random.len() + 16);
        assert_eq!(decompress(&packed).unwrap(), random);
    }

    #[test]
    fn auto_compresses_agent_code_well() {
        let code = SAMPLE.repeat(20);
        let packed = compress(&code, Algorithm::Auto);
        assert!(packed.len() < code.len() / 3, "{} -> {}", code.len(), packed.len());
        assert!(ratio(&packed).unwrap() > 3.0);
    }

    #[test]
    fn sniff_reports_algorithm() {
        let packed = compress(SAMPLE, Algorithm::Lzss);
        assert_eq!(sniff_algorithm(&packed).unwrap(), Algorithm::Lzss);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decompress(b"NOPE\x00\x00"), Err(CodecError::BadMagic));
        assert_eq!(decompress(b""), Err(CodecError::BadMagic));
    }

    #[test]
    fn unknown_algorithm_rejected() {
        let mut packed = compress(SAMPLE, Algorithm::Store);
        packed[4] = 99;
        assert_eq!(decompress(&packed), Err(CodecError::UnknownAlgorithm(99)));
    }

    #[test]
    fn truncated_container_rejected() {
        let packed = compress(SAMPLE, Algorithm::Lzss);
        assert!(decompress(&packed[..5]).is_err());
        assert!(decompress(&packed[..packed.len() / 2]).is_err());
    }

    #[test]
    fn store_length_mismatch_detected() {
        let mut packed = compress(b"abcdef", Algorithm::Store);
        packed.truncate(packed.len() - 2);
        assert!(matches!(
            decompress(&packed),
            Err(CodecError::LengthMismatch { expected: 6, actual: 4 })
        ));
    }

    #[test]
    fn forced_expansion_falls_back_to_store() {
        // RLE on non-repetitive data would expand; compress() must fall back.
        let data = b"abcdefghijklmnopqrstuvwxyz";
        let packed = compress(data, Algorithm::Rle);
        assert_eq!(sniff_algorithm(&packed).unwrap(), Algorithm::Store);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn hostile_length_headers_fail_without_allocating() {
        // A tiny LZSS / LZSS+Huffman container whose header promises far
        // more output than its payload can encode must return an error,
        // not abort on a huge preallocation or panic on capacity overflow.
        for declared in [1usize << 40, usize::MAX] {
            for alg in [Algorithm::Lzss, Algorithm::LzssHuffman] {
                let mut packed = MAGIC.to_vec();
                packed.push(alg.to_byte());
                varint::write_usize(&mut packed, declared);
                if alg == Algorithm::LzssHuffman {
                    varint::write_usize(&mut packed, declared);
                }
                packed.extend_from_slice(&[0xff, 0x00, 0xaa]);
                assert!(decompress(&packed).is_err(), "{alg:?} declaring {declared}");
            }
        }
    }

    #[test]
    fn large_payload_roundtrip() {
        let data = SAMPLE.repeat(500); // ~70 KB
        for alg in [Algorithm::Lzss, Algorithm::LzssHuffman, Algorithm::Auto] {
            let packed = compress(&data, alg);
            assert_eq!(decompress(&packed).unwrap(), data);
        }
    }
}
