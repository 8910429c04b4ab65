//! The codec's small decoders on hostile bytes: `rle::decode`,
//! `base64::decode` and `hex::decode`, through the hostile-input driver.
//!
//! The extra bytes each test names are lengths: for RLE a control byte
//! claiming the longest literal stretch or run; for the text codecs one more
//! alphabet symbol, which shifts every later group when inserted. No decode
//! may hold more than a small multiple of its input live. The text decoders
//! take `&str`, so a mutated input that is not UTF-8 reaches them with its
//! bad bytes replaced by U+FFFD.

mod support;

use pdagent_codec::{base64, hex, rle};
use support::{bounded, hostile};

/// Bytes with runs of every length class RLE packs: short repeats left as
/// literals, a stretch longer than one 128-byte literal packet and a run
/// longer than one 129-byte run packet.
fn rle_sample() -> Vec<u8> {
    let mut data = b"aab<pi>xxxyyyy".to_vec();
    data.extend((0..150u8).map(|i| i.wrapping_mul(37)));
    data.extend(std::iter::repeat_n(b' ', 140));
    data.extend_from_slice(b"tail");
    data
}

#[test]
fn rle_decode_survives_hostile_streams() {
    let sample = rle_sample();
    let valid = rle::encode(&sample);
    assert_eq!(rle::decode(&valid).unwrap(), sample);
    let decode = bounded(140, 256, |input| rle::decode(input).ok());
    let decoded =
        hostile::drive(hostile::inputs(&valid, &[0x7f, 0xff]), decode, |out| rle::encode(out));
    assert!(decoded > 0);
}

#[test]
fn base64_decode_survives_hostile_text() {
    // Every padding case: three, one and two bytes left over.
    for len in [48, 49, 50] {
        let data: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(91) ^ 0x5a).collect();
        let valid = base64::encode(&data);
        let decode = bounded(4, 256, |input| base64::decode(&String::from_utf8_lossy(input)).ok());
        let encode = |out: &Vec<u8>| base64::encode(out).into_bytes();
        let decoded = hostile::drive(hostile::inputs(valid.as_bytes(), b"A="), decode, encode);
        assert!(decoded > 0);
    }
}

#[test]
fn hex_decode_survives_hostile_text() {
    let valid = hex::encode(&(0..=255u8).step_by(7).collect::<Vec<u8>>());
    let decode = bounded(4, 256, |input| hex::decode(&String::from_utf8_lossy(input)).ok());
    let encode = |out: &Vec<u8>| hex::encode(out).into_bytes();
    let decoded = hostile::drive(hostile::inputs(valid.as_bytes(), b"f"), decode, encode);
    assert!(decoded > 0);
}
