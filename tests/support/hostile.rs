//! The hostile-input driver. [`inputs`] takes a valid encoding through every
//! cut ([`cuts`]), five substitutions of every byte plus the caller's extra
//! bytes ([`substitutions`]), and three inflated varints at every byte
//! ([`inflated`]). [`check`] asserts that an input decodes to nothing or to
//! a value that re-encodes and decodes to itself, without a panic. Any bound
//! on live bytes is the caller's decoder's (`support::bounded`).
//!
//! Root tests reach it as `support::hostile`. A crate whose decoders are
//! private includes this file alone, under `#[cfg(test)]` and `#[path]`.

// Each test binary uses the part it needs.
#![allow(dead_code)]

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Varints no valid encoding holds: a count or length of 2^32 - 1, a value
/// that overflows a `u64`, and one longer than any `u64` needs.
pub const INFLATED: [&[u8]; 3] = [
    &[0xff, 0xff, 0xff, 0xff, 0x0f],
    &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
    &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
];

/// `valid` with its `len` bytes at `at` replaced by `with`.
fn splice(valid: &[u8], at: usize, len: usize, with: &[u8]) -> Vec<u8> {
    [&valid[..at], with, &valid[at + len..]].concat()
}

/// Every proper prefix of `valid`, shortest first.
pub fn cuts(valid: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..valid.len()).map(|cut| valid[..cut].to_vec())
}

/// `valid` with `0x00`, `0x7f`, `0x80`, `0xff`, the byte with its low bit
/// flipped and each of `extras` in place of every byte (where that changes
/// it), then with each of `extras` inserted at every offset.
pub fn substitutions<'a>(valid: &'a [u8], extras: &'a [u8]) -> impl Iterator<Item = Vec<u8>> + 'a {
    let replaced = (0..valid.len()).flat_map(move |at| {
        let subs =
            [0x00, 0x7f, 0x80, 0xff, valid[at] ^ 1].into_iter().chain(extras.iter().copied());
        subs.filter(move |&sub| sub != valid[at]).map(move |sub| splice(valid, at, 1, &[sub]))
    });
    let inserted = (0..=valid.len())
        .flat_map(move |at| extras.iter().map(move |&b| splice(valid, at, 0, &[b])));
    replaced.chain(inserted)
}

/// `valid` with each [`INFLATED`] varint in place of every byte.
pub fn inflated(valid: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..valid.len()).flat_map(move |at| INFLATED.map(|varint| splice(valid, at, 1, varint)))
}

/// `valid` itself, then every input of all three families.
pub fn inputs<'a>(valid: &'a [u8], extras: &'a [u8]) -> impl Iterator<Item = Vec<u8>> + 'a {
    let damaged = cuts(valid).chain(substitutions(valid, extras)).chain(inflated(valid));
    std::iter::once(valid.to_vec()).chain(damaged)
}

/// Decode `input`; a value must re-encode to bytes that decode to it again.
/// Returns the value. Panics, naming the input, if decoding panics or the
/// value does not round-trip.
pub fn check<T: PartialEq + Debug>(
    input: &[u8],
    decode: &impl Fn(&[u8]) -> Option<T>,
    encode: &impl Fn(&T) -> Vec<u8>,
) -> Option<T> {
    let shown = || format!("b\"{}\"", input.escape_ascii());
    let decoded = catch_unwind(AssertUnwindSafe(|| decode(input)));
    let value = decoded.unwrap_or_else(|_| panic!("decoding {} panicked", shown()))?;
    let again = decode(&encode(&value));
    assert!(again.as_ref() == Some(&value), "{} gave {value:?}, then {again:?}", shown());
    Some(value)
}

/// [`check`] every input. Returns how many decoded.
pub fn drive<T: PartialEq + Debug>(
    inputs: impl IntoIterator<Item = Vec<u8>>,
    decode: impl Fn(&[u8]) -> Option<T>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> usize {
    inputs.into_iter().filter(|input| check(input, &decode, &encode).is_some()).count()
}
