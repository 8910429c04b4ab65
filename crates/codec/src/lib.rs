//! # pdagent-codec
//!
//! Byte-level encodings used by the PDAgent wire formats.
//!
//! The paper compresses mobile-agent code "using simple text compression
//! algorithms" before storing it in the device database and before shipping
//! the Packed Information to the gateway, to "minimize the size of the
//! transferred packet and thus reduce the transmission time" (§3). This crate
//! provides those pieces, built from scratch:
//!
//! * [`base64`] — RFC 4648 base64, used to embed binary agent code and
//!   ciphertext inside XML documents.
//! * [`hex`] — lowercase hex, used for digests and identifiers.
//! * [`varint`] — LEB128-style unsigned varints for binary framing.
//! * [`bitio`] — MSB-first bit reader/writer underlying the entropy coder.
//! * [`rle`] — run-length encoding (the simplest baseline).
//! * [`lzss`] — an LZSS dictionary compressor (4 KiB window), the workhorse.
//! * [`huffman`] — a canonical, static Huffman coder.
//! * [`mod@compress`] — the self-describing container format (`PDAZ`) combining
//!   an algorithm byte with the original length, so any receiver can decode.
//!
//! ```
//! use pdagent_codec::compress::{compress, decompress, Algorithm};
//! let data = b"the quick brown fox jumps over the lazy dog, the lazy dog sleeps";
//! let packed = compress(data, Algorithm::Lzss);
//! assert_eq!(decompress(&packed).unwrap(), data);
//! ```

pub mod base64;
pub mod bitio;
pub mod compress;
pub mod hex;
pub mod huffman;
pub mod lzss;
#[cfg(test)]
mod oracle;
pub mod rle;
pub mod varint;

pub use compress::{compress, decompress, Algorithm, CodecError};
