//! The codec's small decoders on hostile bytes: `rle::decode`,
//! `base64::decode` and `hex::decode`.
//!
//! Each valid encoding is cut at every byte, has every byte replaced by
//! `0x00`, `0x7f`, `0x80`, `0xff` and itself with the low bit flipped, and
//! gets an extra length byte at every offset (for RLE a control byte
//! claiming the longest literal stretch or run; for the text codecs one more
//! alphabet symbol, which shifts every later group). Every such input must
//! decode to an error or to bytes that encode and decode back to
//! themselves, without a panic and within a bound on live bytes per input
//! byte. The text decoders take `&str`, so a mutated input that is not
//! UTF-8 reaches them with its bad bytes replaced by U+FFFD.

mod support;

use pdagent_codec::{base64, hex, rle};
use support::peak_allocation;

/// Every cut, substitution and insertion of `valid`, as described above.
fn hostile(valid: &[u8], inserted: &[u8]) -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = (0..valid.len()).map(|cut| valid[..cut].to_vec()).collect();
    for at in 0..valid.len() {
        for sub in [0x00, 0x7f, 0x80, 0xff, valid[at] ^ 1] {
            let mut bad = valid.to_vec();
            bad[at] = sub;
            inputs.push(bad);
        }
    }
    for at in 0..=valid.len() {
        for &byte in inserted {
            let mut bad = valid.to_vec();
            bad.insert(at, byte);
            inputs.push(bad);
        }
    }
    inputs
}

/// Runs `decode` on every hostile variant of `valid`; a decoded value must
/// survive `roundtrip`, and no decode may hold more than `per_byte` bytes
/// live per input byte (plus a small constant).
fn survives<T, E>(
    valid: &[u8],
    inserted: &[u8],
    per_byte: usize,
    decode: impl Fn(&[u8]) -> Result<T, E>,
    roundtrip: impl Fn(&T) -> bool,
) -> usize {
    let mut decoded = 0;
    for input in hostile(valid, inserted) {
        let mut ok = None;
        let peak = peak_allocation(|| ok = decode(&input).ok());
        assert!(peak <= per_byte * input.len() + 256, "{peak} bytes live for {input:02x?}");
        if let Some(value) = ok {
            assert!(roundtrip(&value), "decoded {input:02x?} does not round-trip");
            decoded += 1;
        }
    }
    decoded
}

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
    let decoded = survives(&valid, &[0x7f, 0xff], 140, rle::decode, |out| {
        rle::decode(&rle::encode(out)).as_ref() == Ok(out)
    });
    assert!(decoded > 0);
}

#[test]
fn base64_decode_survives_hostile_text() {
    // Every padding case: three, one and two bytes left over.
    for len in [48, 49, 50] {
        let data: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(91) ^ 0x5a).collect();
        let valid = base64::encode(&data);
        let decoded = survives(
            valid.as_bytes(),
            b"A=",
            4,
            |input| base64::decode(&String::from_utf8_lossy(input)),
            |out| base64::decode(&base64::encode(out)).as_ref() == Ok(out),
        );
        assert!(decoded > 0);
    }
}

#[test]
fn hex_decode_survives_hostile_text() {
    let valid = hex::encode(&(0..=255u8).step_by(7).collect::<Vec<u8>>());
    let decoded = survives(
        valid.as_bytes(),
        b"f",
        4,
        |input| hex::decode(&String::from_utf8_lossy(input)),
        |out| hex::decode(&hex::encode(out)).as_ref() == Ok(out),
    );
    assert!(decoded > 0);
}
