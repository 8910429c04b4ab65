//! LEB128-style unsigned varints, used by the binary framings (compressed
//! container, agent bytecode serialization, record store), and the
//! length-prefixed fields built on them (agent records, HTTP frames, pages):
//! the field's length as a varint, then its bytes.

/// Error from [`read_u64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// Input ended inside a varint.
    Truncated,
    /// More than 10 continuation bytes (would overflow u64).
    Overflow,
}

impl std::fmt::Display for VarintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VarintError::Truncated => write!(f, "truncated varint"),
            VarintError::Overflow => write!(f, "varint overflows u64"),
        }
    }
}

impl std::error::Error for VarintError {}

/// Error from [`read_bytes`] and [`read_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldError {
    /// The length prefix is not a well-formed varint.
    Length(VarintError),
    /// The field runs past the end of the input.
    Truncated,
    /// A string field is not UTF-8.
    NotUtf8,
}

impl From<VarintError> for FieldError {
    fn from(e: VarintError) -> FieldError {
        FieldError::Length(e)
    }
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldError::Length(e) => write!(f, "field length: {e}"),
            FieldError::Truncated => write!(f, "field runs past the end of the input"),
            FieldError::NotUtf8 => write!(f, "string field is not UTF-8"),
        }
    }
}

impl std::error::Error for FieldError {}

/// Append `value` to `out` as a varint.
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a usize as a varint.
pub fn write_usize(out: &mut Vec<u8>, value: usize) {
    write_u64(out, value as u64);
}

/// Read a varint from `input` starting at `*pos`, advancing `*pos`.
pub fn read_u64(input: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *input.get(*pos).ok_or(VarintError::Truncated)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && (byte & 0x7e) != 0) {
            return Err(VarintError::Overflow);
        }
        value |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Read a varint as usize.
pub fn read_usize(input: &[u8], pos: &mut usize) -> Result<usize, VarintError> {
    read_u64(input, pos).map(|v| v as usize)
}

/// Append `bytes` as a length-prefixed field.
pub fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_usize(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Append `s` as a length-prefixed field.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_bytes(out, s.as_bytes());
}

/// Read a field's length prefix at `*pos`, advancing `*pos` past the prefix
/// only, and borrow the field it announces. A length that runs past the end
/// of `input` is an error: nothing is allocated, whatever the length claims.
fn field<'a>(input: &'a [u8], pos: &mut usize) -> Result<&'a [u8], FieldError> {
    let len = read_usize(input, pos)?;
    input[*pos..].get(..len).ok_or(FieldError::Truncated)
}

/// Read a length-prefixed field from `input` at `*pos`, advancing `*pos`
/// past it. The field is borrowed from `input`. On a field that runs past
/// the end, `*pos` stays just after the length prefix.
pub fn read_bytes<'a>(input: &'a [u8], pos: &mut usize) -> Result<&'a [u8], FieldError> {
    let bytes = field(input, pos)?;
    *pos += bytes.len();
    Ok(bytes)
}

/// [`read_bytes`] for a UTF-8 string field. The field is checked before
/// `*pos` moves past it, so on [`FieldError::NotUtf8`] too `*pos` stays
/// just after the length prefix.
pub fn read_str<'a>(input: &'a [u8], pos: &mut usize) -> Result<&'a str, FieldError> {
    let bytes = field(input, pos)?;
    // Almost every field is ASCII, which one word-wide pass proves valid.
    let s = if bytes.is_ascii() {
        // SAFETY: a byte string of ASCII bytes alone is valid UTF-8.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    } else {
        std::str::from_utf8(bytes).map_err(|_| FieldError::NotUtf8)?
    };
    *pos += s.len();
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 129, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn known_encodings() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 300);
        assert_eq!(buf, vec![0xac, 0x02]);
    }

    #[test]
    fn sequential_reads() {
        let mut buf = Vec::new();
        for v in [5u64, 1000, 0, 77] {
            write_u64(&mut buf, v);
        }
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos).unwrap(), 5);
        assert_eq!(read_u64(&buf, &mut pos).unwrap(), 1000);
        assert_eq!(read_u64(&buf, &mut pos).unwrap(), 0);
        assert_eq!(read_u64(&buf, &mut pos).unwrap(), 77);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_input() {
        let mut pos = 0;
        assert_eq!(read_u64(&[0x80], &mut pos), Err(VarintError::Truncated));
        let mut pos = 0;
        assert_eq!(read_u64(&[], &mut pos), Err(VarintError::Truncated));
    }

    #[test]
    fn overflow_detected() {
        // 11 continuation bytes.
        let buf = [0xff; 11];
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), Err(VarintError::Overflow));
    }

    #[test]
    fn fields_roundtrip_and_reject_truncated_and_inflated_lengths() {
        let mut buf = Vec::new();
        write_str(&mut buf, "héllo");
        write_bytes(&mut buf, &[0xff, 0]);
        write_str(&mut buf, "");
        let mut pos = 0;
        assert_eq!(read_str(&buf, &mut pos), Ok("héllo"));
        assert_eq!(read_bytes(&buf, &mut pos), Ok(&[0xff, 0][..]));
        assert_eq!(read_str(&buf, &mut pos), Ok(""));
        assert_eq!(pos, buf.len());
        // Every cut inside a field is an error, never a panic.
        for cut in 0..buf.len() {
            let mut pos = 0;
            let whole = (0..3).try_for_each(|_| read_bytes(&buf[..cut], &mut pos).map(drop));
            assert!(whole.is_err(), "cut at {cut}");
        }
        // A length past the input, up to one that overflows `pos + len`.
        for len in [2, 1 << 40, u64::MAX] {
            let mut inflated = Vec::new();
            write_u64(&mut inflated, len);
            inflated.push(b'x');
            assert_eq!(read_bytes(&inflated, &mut 0), Err(FieldError::Truncated));
        }
        let mut pos = 0;
        assert_eq!(read_bytes(&[0x80], &mut pos), Err(FieldError::Length(VarintError::Truncated)));
        // A non-UTF-8 string leaves `pos` just after its length prefix.
        let mut pos = 0;
        assert_eq!(read_str(&[1, 0xff], &mut pos), Err(FieldError::NotUtf8));
        assert_eq!(pos, 1);
    }

    /// `read_str` on `bytes` as one field agrees with `std::str::from_utf8`,
    /// and leaves `pos` past the field or, on an error, past its prefix.
    fn agrees_with_std(bytes: &[u8]) {
        let mut field = Vec::new();
        write_bytes(&mut field, bytes);
        let prefix = field.len() - bytes.len();
        let mut pos = 0;
        let got = read_str(&field, &mut pos);
        assert_eq!(got, std::str::from_utf8(bytes).map_err(|_| FieldError::NotUtf8), "{bytes:02x?}");
        assert_eq!(pos, if got.is_ok() { field.len() } else { prefix });
    }

    #[test]
    fn read_str_agrees_with_std_utf8() {
        for a in 0..=255u8 {
            agrees_with_std(&[a]);
            for b in 0..=255u8 {
                agrees_with_std(&[a, b]);
            }
        }
        // Mixed fields: mostly ASCII, with lead, continuation and invalid
        // bytes and whole multi-byte characters among them.
        let pieces: [&[u8]; 8] =
            [b"bank-3", b"a", "é".as_bytes(), "€".as_bytes(), "😀".as_bytes(), &[0x80], &[0xc3], &[0xff]];
        let mut x = 0x9e37_79b9u32;
        for _ in 0..20_000 {
            let mut bytes = Vec::new();
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            for k in 0..(x >> 28) {
                let pick = (x >> (k % 8 * 3)) as usize % if x & 1 == 0 { 5 } else { 8 };
                bytes.extend_from_slice(pieces[pick]);
            }
            agrees_with_std(&bytes);
        }
    }

    #[test]
    fn max_u64_roundtrip_is_10_bytes() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }
}
