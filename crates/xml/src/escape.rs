//! Escaping and unescaping of character data and attribute values.
//!
//! Only the five predefined XML entities and numeric character references are
//! supported, which matches kXML's default entity table.

use std::borrow::Cow;

use crate::error::{XmlError, XmlResult};

/// Append `input`, escaped for use as element character data, to `out`.
///
/// `<`, `>` and `&` are replaced by entity references. Quotes are left alone
/// (they are only special inside attribute values). The runs between special
/// characters are copied whole.
#[inline]
pub fn escape_text(out: &mut String, input: &str) {
    escape(out, input, |b| match b {
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'&' => Some("&amp;"),
        _ => None,
    });
}

/// Append `input`, escaped for use inside a double-quoted attribute value,
/// to `out`.
///
/// In addition to the text escapes, `"` becomes `&quot;` and the line-ending
/// characters become character references so they survive attribute-value
/// normalization on re-parse.
#[inline]
pub fn escape_attr(out: &mut String, input: &str) {
    escape(out, input, |b| match b {
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'&' => Some("&amp;"),
        b'"' => Some("&quot;"),
        b'\n' => Some("&#10;"),
        b'\r' => Some("&#13;"),
        b'\t' => Some("&#9;"),
        _ => None,
    });
}

/// Every special character is ASCII, so scanning bytes never splits a
/// multi-byte character: the run boundaries are always char boundaries.
#[inline]
fn escape(out: &mut String, input: &str, entity: impl Fn(u8) -> Option<&'static str>) {
    let bytes = input.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if let Some(e) = entity(b) {
            out.push_str(&input[run..i]);
            out.push_str(e);
            run = i + 1;
        }
    }
    out.push_str(&input[run..]);
}

/// Decode entity and character references in `input`.
///
/// `offset_base` is the byte offset of `input` within the whole document and
/// is only used to produce accurate error positions. The result borrows
/// `input` unless a reference was decoded.
pub fn unescape(input: &str, offset_base: usize) -> XmlResult<Cow<'_, str>> {
    let Some(first) = input.find('&') else {
        return Ok(Cow::Borrowed(input));
    };
    let bytes = input.as_bytes();
    let mut out = String::with_capacity(input.len());
    let mut i = first;
    let mut run = 0;
    loop {
        out.push_str(&input[run..i]);
        // Entity names are short, so the `;` is found byte by byte.
        let semi = bytes[i..]
            .iter()
            .position(|&b| b == b';')
            .map(|p| i + p)
            .ok_or(XmlError::UnexpectedEof { context: "entity reference" })?;
        out.push(decode_entity(&input[i + 1..semi], offset_base + i)?);
        run = semi + 1;
        match bytes.get(run) {
            Some(b'&') => i = run,
            _ => match input[run..].find('&') {
                Some(p) => i = run + p,
                None => break,
            },
        }
    }
    out.push_str(&input[run..]);
    Ok(Cow::Owned(out))
}

/// Decode a single entity name (the part between `&` and `;`).
fn decode_entity(name: &str, offset: usize) -> XmlResult<char> {
    match name {
        "lt" => Ok('<'),
        "gt" => Ok('>'),
        "amp" => Ok('&'),
        "apos" => Ok('\''),
        "quot" => Ok('"'),
        _ => {
            if let Some(rest) = name.strip_prefix("#x").or_else(|| name.strip_prefix("#X")) {
                let code = u32::from_str_radix(rest, 16).map_err(|_| XmlError::UnknownEntity {
                    offset,
                    name: name.to_owned(),
                })?;
                char::from_u32(code).ok_or_else(|| XmlError::UnknownEntity {
                    offset,
                    name: name.to_owned(),
                })
            } else if let Some(rest) = name.strip_prefix('#') {
                let code = rest.parse::<u32>().map_err(|_| XmlError::UnknownEntity {
                    offset,
                    name: name.to_owned(),
                })?;
                char::from_u32(code).ok_or_else(|| XmlError::UnknownEntity {
                    offset,
                    name: name.to_owned(),
                })
            } else {
                Err(XmlError::UnknownEntity { offset, name: name.to_owned() })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(input: &str) -> String {
        let mut out = String::new();
        escape_text(&mut out, input);
        out
    }

    fn attr(input: &str) -> String {
        let mut out = String::new();
        escape_attr(&mut out, input);
        out
    }

    #[test]
    fn escape_text_basic() {
        assert_eq!(text("a < b & c > d"), "a &lt; b &amp; c &gt; d");
        assert_eq!(text("plain"), "plain");
        assert_eq!(text("\"quoted\""), "\"quoted\"");
    }

    #[test]
    fn escape_attr_quotes_and_whitespace() {
        assert_eq!(attr("a\"b"), "a&quot;b");
        assert_eq!(attr("a\nb\tc"), "a&#10;b&#9;c");
    }

    #[test]
    fn unescape_predefined() {
        assert_eq!(unescape("&lt;&gt;&amp;&apos;&quot;", 0).unwrap(), "<>&'\"");
    }

    #[test]
    fn unescape_numeric_decimal_and_hex() {
        assert_eq!(unescape("&#65;&#x42;&#x63;", 0).unwrap(), "ABc");
        assert_eq!(unescape("&#x4E2D;", 0).unwrap(), "中");
    }

    #[test]
    fn unescape_passthrough_multibyte() {
        assert_eq!(unescape("héllo wörld 中文", 0).unwrap(), "héllo wörld 中文");
    }

    #[test]
    fn unescape_unknown_entity_errors() {
        let err = unescape("x&nbsp;y", 10).unwrap_err();
        assert_eq!(err, XmlError::UnknownEntity { offset: 11, name: "nbsp".into() });
    }

    #[test]
    fn unescape_unterminated_entity_errors() {
        let err = unescape("x&lt", 0).unwrap_err();
        assert!(matches!(err, XmlError::UnexpectedEof { .. }));
    }

    #[test]
    fn unescape_invalid_codepoint_errors() {
        // Surrogate code points are not valid chars.
        assert!(unescape("&#xD800;", 0).is_err());
        assert!(unescape("&#99999999;", 0).is_err());
    }

    #[test]
    fn roundtrip_text() {
        for s in ["", "a<b>&c", "x & y < z", "中文 & <tags>"] {
            assert_eq!(unescape(&text(s), 0).unwrap(), s);
        }
    }

    #[test]
    fn roundtrip_attr() {
        for s in ["", "a\"b'c", "line\nbreak\ttab", "<&>\""] {
            assert_eq!(unescape(&attr(s), 0).unwrap(), s);
        }
    }
}
