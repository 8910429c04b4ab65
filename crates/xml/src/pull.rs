//! The pull parser: the kXML-style event interface.
//!
//! [`PullParser`] walks a `&str` and yields [`XmlEvent`]s on demand. Events
//! borrow from the input: names, comments and CDATA are slices of it, and
//! text and attribute values are copied only when an entity reference had
//! to be decoded. The parser keeps an explicit stack of open elements (as
//! byte ranges of the input) so it can verify well-formedness (every start
//! tag matched by the right end tag, exactly one root element, nothing
//! after the root).

use std::borrow::Cow;
use std::collections::HashSet;
use std::ops::Range;

use crate::dom::Pairs;
use crate::error::{XmlError, XmlResult};
use crate::escape::unescape;

/// An attribute as it appears on a start tag, with its value already
/// entity-decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Attribute name as written.
    pub name: &'a str,
    /// Decoded attribute value.
    pub value: Cow<'a, str>,
}

/// The attributes of one start tag. From the parser, this is the raw text
/// between the element name and the tag's close, already checked (syntax,
/// entity references, no duplicates) and decoded on demand, so a start tag
/// costs no allocation. Walking an [`Element`](crate::Element) tree, it is
/// the element's packed attribute pairs.
#[derive(Debug, Clone, Copy)]
pub struct Attributes<'a> {
    repr: Repr<'a>,
}

#[derive(Debug, Clone, Copy)]
enum Repr<'a> {
    Raw(&'a str),
    Tree(&'a str),
}

impl<'a> Attributes<'a> {
    /// Attributes held in an element tree, as packed pairs.
    pub(crate) fn tree(pairs: &'a str) -> Attributes<'a> {
        Attributes { repr: Repr::Tree(pairs) }
    }

    /// The attributes in document order.
    #[inline]
    pub fn iter(&self) -> AttributeIter<'a> {
        let inner = match self.repr {
            Repr::Raw(text) => IterRepr::Raw(text),
            Repr::Tree(pairs) => IterRepr::Tree(Pairs(pairs)),
        };
        AttributeIter { inner }
    }

    /// The decoded value of attribute `name`, if present.
    #[inline]
    pub fn get(&self, name: &str) -> Option<Cow<'a, str>> {
        self.iter().find(|a| a.name == name).map(|a| a.value)
    }
}

impl PartialEq for Attributes<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Attributes<'_> {}

/// Iterator over [`Attributes`].
#[derive(Debug, Clone)]
pub struct AttributeIter<'a> {
    inner: IterRepr<'a>,
}

#[derive(Debug, Clone)]
enum IterRepr<'a> {
    /// The checked raw tag text not yet returned.
    Raw(&'a str),
    Tree(Pairs<'a>),
}

impl<'a> Iterator for AttributeIter<'a> {
    type Item = Attribute<'a>;

    #[inline]
    fn next(&mut self) -> Option<Attribute<'a>> {
        let rest = match &mut self.inner {
            IterRepr::Raw(rest) => rest,
            IterRepr::Tree(pairs) => {
                return pairs
                    .next()
                    .map(|(name, value)| Attribute { name, value: Cow::Borrowed(value) })
            }
        };
        // The parser validated this text, so every step here succeeds.
        let text = trim_start_ws(rest);
        if text.is_empty() {
            *rest = text;
            return None;
        }
        let name_len = name_len(text).expect("validated attribute name");
        let name = &text[..name_len];
        let text = trim_start_ws(&text[name_len..]);
        let text = trim_start_ws(&text[1..]); // '='
        let value = scan_value(&text[1..], text.as_bytes()[0]).expect("validated value");
        let raw = &text[1..1 + value.len];
        *rest = &text[value.len + 2..];
        let value = if value.has_amp {
            unescape(raw, 0).expect("validated attribute value")
        } else {
            Cow::Borrowed(raw)
        };
        Some(Attribute { name, value })
    }
}

/// What [`scan_value`] found in a quoted attribute value.
struct ValueScan {
    /// Length of the value (the closing quote's offset).
    len: usize,
    has_amp: bool,
    has_lt: bool,
}

/// Scan an attribute value up to its closing `quote` in one pass over the
/// bytes (values are short, so this beats separate searches). `None` if the
/// quote never closes.
fn scan_value(s: &str, quote: u8) -> Option<ValueScan> {
    let (mut has_amp, mut has_lt) = (false, false);
    for (len, &b) in s.as_bytes().iter().enumerate() {
        match b {
            b'&' => has_amp = true,
            b'<' => has_lt = true,
            _ if b == quote => return Some(ValueScan { len, has_amp, has_lt }),
            _ => {}
        }
    }
    None
}

/// One parse event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// `<?xml version="1.0" ...?>` — at most one, at the start.
    Declaration {
        /// Raw content between `<?xml` and `?>`.
        content: &'a str,
    },
    /// A start tag. `self_closing` is true for `<name/>`, in which case no
    /// matching [`XmlEvent::EndElement`] will be emitted.
    StartElement {
        /// Element name.
        name: &'a str,
        /// Attributes in document order.
        attributes: Attributes<'a>,
        /// Whether the tag was written as `<name/>`.
        self_closing: bool,
    },
    /// An end tag (or the implicit end of a self-closing tag is *not*
    /// reported; see [`XmlEvent::StartElement::self_closing`]).
    EndElement {
        /// Element name.
        name: &'a str,
    },
    /// Character data, entity-decoded. Whitespace-only runs between elements
    /// are still reported; the DOM layer filters them.
    Text(Cow<'a, str>),
    /// A `<![CDATA[...]]>` section, verbatim.
    CData(&'a str),
    /// A `<!-- ... -->` comment, verbatim.
    Comment(&'a str),
    /// A `<?target data?>` processing instruction (other than the XML
    /// declaration).
    ProcessingInstruction {
        /// PI target.
        target: &'a str,
        /// PI data (possibly empty).
        data: &'a str,
    },
    /// End of the document.
    Eof,
}

/// Pull parser over an in-memory document.
///
/// ```
/// use pdagent_xml::pull::{PullParser, XmlEvent};
/// let mut p = PullParser::new("<a x='1'>hi</a>");
/// match p.next_event().unwrap() {
///     XmlEvent::StartElement { name, attributes, .. } => {
///         assert_eq!(name, "a");
///         assert_eq!(attributes.get("x").unwrap(), "1");
///     }
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
pub struct PullParser<'a> {
    input: &'a str,
    pos: usize,
    /// Names of the open elements, as ranges of `input`.
    stack: Vec<Range<usize>>,
    seen_root: bool,
    done: bool,
}

impl<'a> PullParser<'a> {
    /// Create a parser over `input`.
    pub fn new(input: &'a str) -> Self {
        PullParser { input, pos: 0, stack: Vec::new(), seen_root: false, done: false }
    }

    /// Create a parser over raw bytes, validating UTF-8 first.
    pub fn from_bytes(input: &'a [u8]) -> XmlResult<Self> {
        match std::str::from_utf8(input) {
            Ok(s) => Ok(Self::new(s)),
            Err(e) => Err(XmlError::InvalidUtf8 { offset: e.valid_up_to() }),
        }
    }

    /// Current byte offset into the input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn syntax(&self, message: impl Into<String>) -> XmlError {
        XmlError::Syntax { offset: self.pos, message: message.into() }
    }

    /// Pull the next event. After [`XmlEvent::Eof`] every further call also
    /// returns `Eof`.
    pub fn next_event(&mut self) -> XmlResult<XmlEvent<'a>> {
        loop {
            if self.done {
                return Ok(XmlEvent::Eof);
            }
            if self.pos >= self.input.len() {
                if !self.stack.is_empty() {
                    return Err(XmlError::UnexpectedEof { context: "element content" });
                }
                if !self.seen_root {
                    return Err(XmlError::NoRootElement);
                }
                self.done = true;
                return Ok(XmlEvent::Eof);
            }
            let event = if self.input.as_bytes()[self.pos] == b'<' {
                self.parse_markup()?
            } else {
                self.parse_text()?
            };
            // `None` is a construct that yields no event (whitespace outside
            // the root, a DOCTYPE).
            if let Some(event) = event {
                return Ok(event);
            }
        }
    }

    /// Iterate events until `Eof`, collecting them. Mostly useful in tests.
    pub fn collect_events(mut self) -> XmlResult<Vec<XmlEvent<'a>>> {
        let mut out = Vec::new();
        loop {
            let ev = self.next_event()?;
            let end = ev == XmlEvent::Eof;
            out.push(ev);
            if end {
                return Ok(out);
            }
        }
    }

    fn parse_text(&mut self) -> XmlResult<Option<XmlEvent<'a>>> {
        /// Bytes scanned one at a time before handing over to `find`: text
        /// runs in PDAgent documents are mostly short values.
        const SHORT: usize = 32;
        let start = self.pos;
        let bytes = self.input.as_bytes();
        let end = match bytes[start..].iter().take(SHORT).position(|&b| b == b'<') {
            Some(p) => start + p,
            None => self.rest().find('<').map_or(self.input.len(), |p| start + p),
        };
        let raw = &self.input[start..end];
        self.pos = end;
        if self.stack.is_empty() {
            // Outside the root element only whitespace is allowed.
            if raw.trim().is_empty() {
                return Ok(None);
            }
            if self.seen_root {
                return Err(XmlError::TrailingContent { offset: start });
            }
            return Err(XmlError::Syntax {
                offset: start,
                message: "character data before root element".into(),
            });
        }
        Ok(Some(XmlEvent::Text(unescape(raw, start)?)))
    }

    fn parse_markup(&mut self) -> XmlResult<Option<XmlEvent<'a>>> {
        let rest = self.rest();
        debug_assert!(rest.starts_with('<'));
        match rest.as_bytes().get(1) {
            Some(b'!') => {
                if rest.starts_with("<!--") {
                    return self.parse_comment().map(Some);
                }
                if rest.starts_with("<![CDATA[") {
                    return self.parse_cdata().map(Some);
                }
                if rest.starts_with("<!DOCTYPE") || rest.starts_with("<!doctype") {
                    self.skip_doctype()?;
                    return Ok(None);
                }
            }
            Some(b'?') => return self.parse_pi().map(Some),
            Some(b'/') => return self.parse_end_tag().map(Some),
            _ => {}
        }
        self.parse_start_tag().map(Some)
    }

    fn parse_comment(&mut self) -> XmlResult<XmlEvent<'a>> {
        self.bump(4); // "<!--"
        let close = self
            .rest()
            .find("-->")
            .ok_or(XmlError::UnexpectedEof { context: "comment" })?;
        let content = &self.rest()[..close];
        self.bump(close + 3);
        Ok(XmlEvent::Comment(content))
    }

    fn parse_cdata(&mut self) -> XmlResult<XmlEvent<'a>> {
        if self.stack.is_empty() {
            return Err(self.syntax("CDATA section outside root element"));
        }
        self.bump(9); // "<![CDATA["
        let close = self
            .rest()
            .find("]]>")
            .ok_or(XmlError::UnexpectedEof { context: "CDATA section" })?;
        let content = &self.rest()[..close];
        self.bump(close + 3);
        Ok(XmlEvent::CData(content))
    }

    /// DOCTYPE declarations are skipped wholesale (kXML "relaxed" behaviour).
    /// Internal subsets in square brackets are balanced correctly.
    fn skip_doctype(&mut self) -> XmlResult<()> {
        let mut depth_sq = 0usize;
        let bytes = self.input.as_bytes();
        let mut i = self.pos;
        while i < bytes.len() {
            match bytes[i] {
                b'[' => depth_sq += 1,
                b']' => depth_sq = depth_sq.saturating_sub(1),
                b'>' if depth_sq == 0 => {
                    self.pos = i + 1;
                    return Ok(());
                }
                _ => {}
            }
            i += 1;
        }
        Err(XmlError::UnexpectedEof { context: "DOCTYPE declaration" })
    }

    fn parse_pi(&mut self) -> XmlResult<XmlEvent<'a>> {
        self.bump(2); // "<?"
        let close = self
            .rest()
            .find("?>")
            .ok_or(XmlError::UnexpectedEof { context: "processing instruction" })?;
        let content = &self.rest()[..close];
        let result = if content.starts_with("xml")
            && content[3..].starts_with(|c: char| c.is_whitespace())
        {
            XmlEvent::Declaration { content: content[3..].trim() }
        } else {
            let (target, data) = match content.find(|c: char| c.is_whitespace()) {
                Some(p) => (&content[..p], content[p..].trim_start()),
                None => (content, ""),
            };
            if target.is_empty() {
                return Err(self.syntax("processing instruction with empty target"));
            }
            XmlEvent::ProcessingInstruction { target, data }
        };
        self.bump(close + 2);
        Ok(result)
    }

    fn parse_end_tag(&mut self) -> XmlResult<XmlEvent<'a>> {
        let input = self.input;
        let tag_offset = self.pos;
        let name_start = tag_offset + 2; // "</"
        let Some(name_end) = name_len(&input[name_start..]).map(|n| name_start + n) else {
            self.pos = name_start;
            return Err(self.syntax("expected a name"));
        };
        let name = &input[name_start..name_end];
        self.pos = skip_ws_at(input, name_end);
        if self.peek() != Some(b'>') {
            return Err(self.syntax("expected '>' to close end tag"));
        }
        self.pos += 1;
        match self.stack.pop() {
            Some(open) if self.input[open.clone()] == *name => Ok(XmlEvent::EndElement { name }),
            Some(open) => Err(XmlError::MismatchedTag {
                offset: tag_offset,
                expected: self.input[open].to_owned(),
                found: name.to_owned(),
            }),
            None => Err(XmlError::Syntax {
                offset: tag_offset,
                message: format!("end tag </{name}> with no open element"),
            }),
        }
    }

    /// A start tag. The scan keeps its position in a local and stores it
    /// in `self.pos` only to report an error or once the tag is done.
    fn parse_start_tag(&mut self) -> XmlResult<XmlEvent<'a>> {
        /// Attribute names kept on the stack for the duplicate check; a tag
        /// with more moves them into a hash set, so the check stays linear
        /// in the number of attributes.
        const KEPT: usize = 8;
        let input = self.input;
        let bytes = input.as_bytes();
        let tag_offset = self.pos;
        let name_start = tag_offset + 1;
        let Some(name_end) = name_len(&input[name_start..]).map(|n| name_start + n) else {
            self.pos = name_start;
            return Err(self.syntax("expected a name"));
        };
        let name = &input[name_start..name_end];
        let attrs_start = name_end;
        let mut pos = attrs_start;
        let mut names = [""; KEPT];
        let mut more: HashSet<&str> = HashSet::new();
        let mut count = 0usize;
        let self_closing = loop {
            pos = skip_ws_at(input, pos);
            match bytes.get(pos) {
                Some(b'>') => break false,
                Some(b'/') if bytes.get(pos + 1) == Some(&b'>') => break true,
                None => return Err(XmlError::UnexpectedEof { context: "start tag" }),
                Some(_) => {}
            }
            // One `name = "value"` pair.
            let Some(len) = name_len(&input[pos..]) else {
                self.pos = pos;
                return Err(self.syntax("expected a name"));
            };
            let attr = &input[pos..pos + len];
            pos = skip_ws_at(input, pos + len);
            if bytes.get(pos) != Some(&b'=') {
                self.pos = pos;
                return Err(self.syntax(format!("attribute {attr:?} missing '='")));
            }
            pos = skip_ws_at(input, pos + 1);
            let quote = match bytes.get(pos) {
                Some(&q @ (b'"' | b'\'')) => q,
                _ => {
                    self.pos = pos;
                    return Err(self.syntax("attribute value must be quoted"));
                }
            };
            let value_start = pos + 1;
            let value = scan_value(&input[value_start..], quote)
                .ok_or(XmlError::UnexpectedEof { context: "attribute value" })?;
            if value.has_lt {
                self.pos = value_start;
                return Err(self.syntax("'<' not allowed in attribute value"));
            }
            if value.has_amp {
                unescape(&input[value_start..value_start + value.len], value_start)?;
            }
            pos = value_start + value.len + 1;
            let duplicate = if count < KEPT {
                names[count] = attr;
                names[..count].contains(&attr)
            } else {
                if more.is_empty() {
                    more.extend(names);
                }
                !more.insert(attr)
            };
            if duplicate {
                self.pos = pos;
                return Err(self.syntax(format!("duplicate attribute {attr:?}")));
            }
            count += 1;
        };
        let attributes = Attributes { repr: Repr::Raw(&input[attrs_start..pos]) };
        self.pos = pos + if self_closing { 2 } else { 1 };
        self.note_element(tag_offset)?;
        if !self_closing {
            self.stack.push(name_start..name_end);
        }
        Ok(XmlEvent::StartElement { name, attributes, self_closing })
    }

    /// Well-formedness bookkeeping for a new element at the current depth.
    fn note_element(&mut self, offset: usize) -> XmlResult<()> {
        if self.stack.is_empty() {
            if self.seen_root {
                return Err(XmlError::TrailingContent { offset });
            }
            self.seen_root = true;
        }
        Ok(())
    }

    /// The byte at the current position.
    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }
}

/// `s` without leading whitespace.
fn trim_start_ws(s: &str) -> &str {
    &s[skip_ws_at(s, 0)..]
}

/// The position of the first non-whitespace character of `s` at or after
/// `pos` (whitespace as `str::trim_start` sees it). Whitespace inside tags
/// is nearly always a few ASCII bytes, so those are skipped byte by byte.
fn skip_ws_at(s: &str, mut pos: usize) -> usize {
    let bytes = s.as_bytes();
    while let Some(&b) = bytes.get(pos) {
        if is_ascii_ws(b) {
            pos += 1;
        } else if b.is_ascii() {
            return pos;
        } else {
            let rest = &s[pos..];
            return pos + rest.len() - rest.trim_start().len();
        }
    }
    pos
}

/// Length in bytes of the XML name at the start of `s`, or `None` if `s`
/// does not start with one. ASCII is classified byte by byte; the first
/// non-ASCII byte hands over to the `char` predicates.
fn name_len(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut end = match bytes.first() {
        Some(&b) if b.is_ascii_alphabetic() || b == b'_' || b == b':' => 1,
        Some(&b) if b.is_ascii() => return None,
        Some(_) => {
            let ch = s.chars().next().expect("non-empty");
            if !is_name_start(ch) {
                return None;
            }
            ch.len_utf8()
        }
        None => return None,
    };
    while let Some(&b) = bytes.get(end) {
        if b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.') {
            end += 1;
        } else if b.is_ascii() {
            break;
        } else {
            let ch = s[end..].chars().next().expect("char boundary");
            if !is_name_char(ch) {
                break;
            }
            end += ch.len_utf8();
        }
    }
    Some(end)
}

/// Is `b` an ASCII character `char::is_whitespace` accepts?
fn is_ascii_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c)
}

/// Is `ch` valid as the first character of an XML name?
pub fn is_name_start(ch: char) -> bool {
    ch.is_alphabetic() || ch == '_' || ch == ':'
}

/// Is `ch` valid as a subsequent character of an XML name?
pub fn is_name_char(ch: char) -> bool {
    ch.is_alphanumeric() || matches!(ch, '_' | ':' | '-' | '.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(s: &str) -> Vec<XmlEvent<'_>> {
        PullParser::new(s).collect_events().unwrap()
    }

    fn err(s: &str) -> XmlError {
        PullParser::new(s).collect_events().unwrap_err()
    }

    fn events_or_err(s: &str) -> Result<usize, XmlError> {
        PullParser::new(s).collect_events().map(|evs| evs.len())
    }

    fn old_err(s: &str) -> XmlError {
        let mut p = crate::oracle::pull::PullParser::new(s);
        loop {
            match p.next_event() {
                Ok(crate::oracle::pull::XmlEvent::Eof) => panic!("{s:?} parsed"),
                Ok(_) => {}
                Err(e) => return e,
            }
        }
    }

    #[test]
    fn minimal_document() {
        let evs = events("<a/>");
        assert_eq!(evs.len(), 2);
        assert!(matches!(
            &evs[0],
            XmlEvent::StartElement { name: "a", attributes, self_closing: true }
                if attributes.iter().next().is_none()
        ));
        assert_eq!(evs[1], XmlEvent::Eof);
    }

    #[test]
    fn element_with_text() {
        let evs = events("<a>hello</a>");
        assert!(matches!(
            &evs[0],
            XmlEvent::StartElement { name: "a", attributes, self_closing: false }
                if attributes.iter().next().is_none()
        ));
        assert_eq!(
            evs[1..],
            [
                XmlEvent::Text("hello".into()),
                XmlEvent::EndElement { name: "a" },
                XmlEvent::Eof
            ]
        );
        // Text without entities borrows the input.
        assert!(matches!(&evs[1], XmlEvent::Text(Cow::Borrowed("hello"))));
    }

    #[test]
    fn attributes_single_and_double_quoted() {
        let evs = events(r#"<a x="1" y='two'/>"#);
        match &evs[0] {
            XmlEvent::StartElement { attributes, .. } => {
                let attributes: Vec<_> = attributes.iter().collect();
                assert_eq!(attributes.len(), 2);
                assert_eq!(attributes[0], Attribute { name: "x", value: "1".into() });
                assert_eq!(attributes[1], Attribute { name: "y", value: "two".into() });
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn many_and_long_attributes_match_the_oracle() {
        let long = "x".repeat(70_000);
        for doc in [
            r#"<a k1="1" k2="&amp;" k3='3' k4="4" k5="&#65;" k6='6'/>"#.to_owned(),
            format!(r#"<a big="{long}" after="&lt;"/>"#),
        ] {
            let evs = events(&doc);
            let XmlEvent::StartElement { attributes, .. } = &evs[0] else {
                panic!("unexpected {:?}", evs[0]);
            };
            let old = crate::oracle::pull::PullParser::new(&doc).next_event().unwrap();
            let crate::oracle::pull::XmlEvent::StartElement { attributes: expected, .. } = old
            else {
                panic!("unexpected {old:?}");
            };
            let got: Vec<(&str, String)> =
                attributes.iter().map(|a| (a.name, a.value.into_owned())).collect();
            let expected: Vec<(&str, String)> =
                expected.iter().map(|a| (a.name.as_str(), a.value.clone())).collect();
            assert_eq!(got, expected);
            let (last, value) = expected.last().unwrap();
            assert_eq!(attributes.get(last).as_deref(), Some(value.as_str()));
        }
        // A duplicate among the first names, and ones past the names kept.
        let many: String = (1..=20).map(|i| format!(" k{i}='{i}'")).collect();
        for dup in [" k1='x'", " k9='x'", " k20='x'"] {
            let doc = format!("<a{many}{dup}/>");
            assert_eq!(events_or_err(&doc), Err(old_err(&doc)));
            let e = err(&doc);
            assert!(
                matches!(&e, XmlError::Syntax { message, .. } if message.contains("duplicate")),
                "{e:?}"
            );
        }
    }

    #[test]
    fn attribute_value_entities_decoded() {
        let evs = events(r#"<a msg="a &amp; b &lt; c"/>"#);
        match &evs[0] {
            XmlEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes.get("msg").unwrap(), "a & b < c");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn text_entities_decoded() {
        let evs = events("<a>&lt;tag&gt; &amp; &#65;</a>");
        assert_eq!(evs[1], XmlEvent::Text("<tag> & A".into()));
    }

    #[test]
    fn nested_elements_and_depth() {
        let mut p = PullParser::new("<a><b><c/></b></a>");
        p.next_event().unwrap();
        assert_eq!(p.depth(), 1);
        p.next_event().unwrap();
        assert_eq!(p.depth(), 2);
        p.next_event().unwrap(); // <c/> does not push
        assert_eq!(p.depth(), 2);
    }

    #[test]
    fn declaration_and_pi() {
        let evs = events("<?xml version=\"1.0\"?><?target some data?><root/>");
        assert_eq!(evs[0], XmlEvent::Declaration { content: "version=\"1.0\"" });
        assert_eq!(
            evs[1],
            XmlEvent::ProcessingInstruction { target: "target", data: "some data" }
        );
    }

    #[test]
    fn comments_inside_and_outside_root() {
        let evs = events("<!-- head --><a><!-- body --></a><!-- tail -->");
        assert_eq!(evs[0], XmlEvent::Comment(" head "));
        assert_eq!(evs[2], XmlEvent::Comment(" body "));
        assert_eq!(evs[4], XmlEvent::Comment(" tail "));
    }

    #[test]
    fn cdata_is_verbatim() {
        let evs = events("<a><![CDATA[<not> &parsed;]]></a>");
        assert_eq!(evs[1], XmlEvent::CData("<not> &parsed;"));
    }

    #[test]
    fn doctype_is_skipped() {
        let evs = events("<!DOCTYPE pi [ <!ELEMENT pi ANY> ]><pi/>");
        assert!(matches!(evs[0], XmlEvent::StartElement { .. }));
    }

    #[test]
    fn mismatched_tag_is_error() {
        assert!(matches!(err("<a><b></a></b>"), XmlError::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_element_is_error() {
        assert!(matches!(err("<a><b></b>"), XmlError::UnexpectedEof { .. }));
    }

    #[test]
    fn two_roots_is_error() {
        assert!(matches!(err("<a/><b/>"), XmlError::TrailingContent { .. }));
    }

    #[test]
    fn text_after_root_is_error() {
        assert!(matches!(err("<a/>junk"), XmlError::TrailingContent { .. }));
    }

    #[test]
    fn empty_document_is_error() {
        assert_eq!(err(""), XmlError::NoRootElement);
        assert_eq!(err("   \n  "), XmlError::NoRootElement);
    }

    #[test]
    fn stray_end_tag_is_error() {
        assert!(matches!(err("</a>"), XmlError::Syntax { .. }));
    }

    #[test]
    fn duplicate_attribute_is_error() {
        assert!(matches!(err(r#"<a x="1" x="2"/>"#), XmlError::Syntax { .. }));
    }

    #[test]
    fn unquoted_attribute_is_error() {
        assert!(matches!(err("<a x=1/>"), XmlError::Syntax { .. }));
    }

    #[test]
    fn lt_in_attribute_is_error() {
        assert!(matches!(err(r#"<a x="a<b"/>"#), XmlError::Syntax { .. }));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let bytes = b"<a>\xff</a>";
        assert!(matches!(
            PullParser::from_bytes(bytes),
            Err(XmlError::InvalidUtf8 { offset: 3 })
        ));
    }

    #[test]
    fn whitespace_between_elements_reported_inside_root() {
        let evs = events("<a>\n  <b/>\n</a>");
        assert!(matches!(&evs[1], XmlEvent::Text(t) if t.trim().is_empty()));
    }

    #[test]
    fn names_with_dashes_dots_colons() {
        let evs = events("<ns:elem-name.x/>");
        assert!(
            matches!(&evs[0], XmlEvent::StartElement { name, .. } if *name == "ns:elem-name.x")
        );
    }

    #[test]
    fn whitespace_tolerant_tags() {
        let evs = events("<a  x = \"1\"  />");
        match &evs[0] {
            XmlEvent::StartElement { name, attributes, self_closing } => {
                assert_eq!(*name, "a");
                assert_eq!(attributes.get("x").unwrap(), "1");
                assert!(self_closing);
            }
            other => panic!("unexpected {other:?}"),
        }
        let evs = events("<b ></b >");
        assert!(matches!(&evs[0], XmlEvent::StartElement { name, .. } if *name == "b"));
        assert!(matches!(&evs[1], XmlEvent::EndElement { name } if *name == "b"));
    }

    #[test]
    fn eof_is_sticky() {
        let mut p = PullParser::new("<a/>");
        p.next_event().unwrap();
        assert_eq!(p.next_event().unwrap(), XmlEvent::Eof);
        assert_eq!(p.next_event().unwrap(), XmlEvent::Eof);
    }

    #[test]
    fn multibyte_text_offsets() {
        let evs = events("<a>中文テキスト</a>");
        assert_eq!(evs[1], XmlEvent::Text("中文テキスト".into()));
    }
}
