//! Byte-oriented run-length encoding.
//!
//! The simplest of the "simple text compression algorithms" the paper refers
//! to. Format: a stream of `(control, ...)` packets. A control byte `0..=127`
//! means "copy the next `control+1` literal bytes"; a control byte
//! `128..=255` means "repeat the next byte `control-126` times" (i.e. runs of
//! 2..=129).

/// Error from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RleError {
    /// Byte offset of the truncation.
    pub offset: usize,
}

impl std::fmt::Display for RleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "truncated RLE stream at byte {}", self.offset)
    }
}

impl std::error::Error for RleError {}

/// Walk `data` as [`encode`] packs it: `packet(literals, run)` is called
/// for every run of three or more equal bytes (at most 129, as `(byte,
/// count)`) with the literal stretch before it, then once more with the
/// stretch after the last run and no run. Stretches may be empty.
fn packets<'a>(data: &'a [u8], mut packet: impl FnMut(&'a [u8], Option<(u8, usize)>)) {
    let mut i = 0;
    let mut literal_start = 0;
    while i < data.len() {
        let run_byte = data[i];
        let longest = (data.len() - i).min(129);
        let run_len = 1 + data[i + 1..i + longest].iter().take_while(|&&b| b == run_byte).count();
        if run_len >= 3 {
            packet(&data[literal_start..i], Some((run_byte, run_len)));
            literal_start = i + run_len;
        }
        i += run_len;
    }
    packet(&data[literal_start..], None);
}

/// Run-length encode `data`.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    packets(data, |literals, run| {
        for chunk in literals.chunks(128) {
            out.push((chunk.len() - 1) as u8);
            out.extend_from_slice(chunk);
        }
        if let Some((byte, count)) = run {
            out.push((count + 126) as u8);
            out.push(byte);
        }
    });
    out
}

/// The length of [`encode`]'s output, counted without writing it: each
/// literal stretch costs its bytes plus one control byte per 128, and each
/// run two bytes.
pub(crate) fn encoded_len(data: &[u8]) -> usize {
    let mut len = 0;
    packets(data, |literals, run| {
        len += literals.len() + literals.len().div_ceil(128) + if run.is_some() { 2 } else { 0 };
    });
    len
}

/// Decode an RLE stream produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Vec<u8>, RleError> {
    let mut out = Vec::with_capacity(data.len() * 2);
    let mut i = 0;
    while i < data.len() {
        let control = data[i];
        i += 1;
        if control < 128 {
            let n = control as usize + 1;
            let end = i + n;
            if end > data.len() {
                return Err(RleError { offset: i });
            }
            out.extend_from_slice(&data[i..end]);
            i = end;
        } else {
            let n = control as usize - 126;
            let byte = *data.get(i).ok_or(RleError { offset: i })?;
            i += 1;
            out.resize(out.len() + n, byte);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        assert_eq!(encode(&[]), Vec::<u8>::new());
        assert_eq!(decode(&[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn literals_only() {
        let data = b"abcdef";
        let enc = encode(data);
        assert_eq!(enc[0], 5); // 6 literals
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn long_run_compresses() {
        let data = vec![0x41u8; 100];
        let enc = encode(&data);
        assert_eq!(enc.len(), 2);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn run_longer_than_max_splits() {
        let data = vec![7u8; 500];
        let enc = encode(&data);
        assert!(enc.len() <= 10);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn mixed_content() {
        let mut data = Vec::new();
        data.extend_from_slice(b"header");
        data.extend(std::iter::repeat_n(b' ', 40));
        data.extend_from_slice(b"trailer");
        let enc = encode(&data);
        assert!(enc.len() < data.len());
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn short_runs_stay_literal() {
        // Runs of 2 are cheaper as literals.
        let data = b"aabbcc";
        let enc = encode(data);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn literal_block_longer_than_128_splits() {
        let data: Vec<u8> = (0..=255u8).chain(0..=255u8).collect();
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn truncated_literal_errors() {
        // Control says 4 literals but only 2 present.
        assert!(decode(&[3, b'a', b'b']).is_err());
    }

    #[test]
    fn truncated_run_errors() {
        assert!(decode(&[200]).is_err());
    }
}
