//! Document writer.
//!
//! [`XmlWriter`] produces well-formed XML with correct escaping. Two modes:
//! *compact* (the wire form — no whitespace between tags, minimizing the bytes
//! shipped over the wireless link, per the paper's packet-size concern) and
//! *pretty* (indented, for logs and human inspection).

use std::ops::Range;

use crate::escape::{escape_attr, escape_text};

/// The calls a document encoder makes. [`XmlWriter`] turns them into text;
/// [`crate::dom::TreeBuilder`] turns them into an [`crate::Element`] tree,
/// so one encoder serves both the wire form and the DOM form of a format.
pub trait XmlSink {
    /// Open an element.
    fn start(&mut self, name: &str);
    /// Add an attribute to the element opened by the last `start` call.
    fn attr(&mut self, name: &str, value: &str);
    /// Add an attribute whose value is the integer `value` in decimal.
    fn attr_int(&mut self, name: &str, value: impl Into<i128>);
    /// Write character data inside the current element.
    fn text(&mut self, text: &str);
    /// Write the integer `value` in decimal as character data.
    fn text_int(&mut self, value: impl Into<i128>);
    /// Close the most recently opened element.
    fn end(&mut self);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Before any content.
    Start,
    /// Inside a start tag (attributes may still be added).
    TagOpen,
    /// After a complete child (tag closed).
    Content,
}

/// An element the writer has opened and not yet closed.
#[derive(Debug)]
struct Open {
    /// Where the element's name sits in the output (just after its `<`).
    name: Range<usize>,
    /// Set when the element has text content, which suppresses
    /// pretty-printing for its end tag (so text round-trips exactly).
    has_text: bool,
}

/// A streaming XML writer. It appends straight to one output buffer: names
/// of open elements are kept as ranges of that buffer and escaped text is
/// copied in clean runs, so writing an element allocates nothing.
///
/// ```
/// use pdagent_xml::writer::XmlWriter;
/// let mut w = XmlWriter::compact();
/// w.start("pi");
/// w.attr("version", "1");
/// w.start("code");
/// w.text("payload");
/// w.end();
/// w.end();
/// assert_eq!(w.finish(), "<pi version=\"1\"><code>payload</code></pi>");
/// ```
#[derive(Debug)]
pub struct XmlWriter {
    out: String,
    stack: Vec<Open>,
    state: State,
    pretty: bool,
}

impl XmlWriter {
    /// Writer with no inter-tag whitespace (wire form).
    pub fn compact() -> Self {
        XmlWriter { out: String::new(), stack: Vec::new(), state: State::Start, pretty: false }
    }

    /// Writer that indents nested elements by two spaces.
    pub fn pretty() -> Self {
        XmlWriter { pretty: true, ..XmlWriter::compact() }
    }

    /// Emit the standard XML declaration. Must be the first call if used.
    pub fn declaration(&mut self) {
        assert_eq!(self.state, State::Start, "declaration must come first");
        self.out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if self.pretty {
            self.out.push('\n');
        }
    }

    #[inline]
    fn close_open_tag(&mut self) {
        if self.state == State::TagOpen {
            self.out.push('>');
            self.state = State::Content;
        }
    }

    fn newline_indent(&mut self, depth: usize) {
        if self.pretty && !self.out.is_empty() && !self.out.ends_with('\n') {
            self.out.push('\n');
        }
        if self.pretty {
            for _ in 0..depth {
                self.out.push_str("  ");
            }
        }
    }

    /// Open an element. Attributes may be added until the next `start`,
    /// `text` or `end` call.
    #[inline]
    pub fn start(&mut self, name: &str) {
        self.close_open_tag();
        if self.pretty && !self.current_has_text() {
            self.newline_indent(self.stack.len());
        }
        self.out.push('<');
        let at = self.out.len();
        self.out.push_str(name);
        self.stack.push(Open { name: at..self.out.len(), has_text: false });
        self.state = State::TagOpen;
    }

    fn current_has_text(&self) -> bool {
        self.stack.last().is_some_and(|open| open.has_text)
    }

    fn open_name(&self) -> Option<&str> {
        self.stack.last().map(|open| &self.out[open.name.clone()])
    }

    #[inline]
    fn begin_attr(&mut self, name: &str) {
        assert_eq!(
            self.state,
            State::TagOpen,
            "attr() must directly follow start() (element <{:?}>)",
            self.open_name()
        );
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
    }

    /// Add an attribute to the element opened by the last `start` call.
    ///
    /// # Panics
    /// Panics if called when no start tag is open for attributes.
    #[inline]
    pub fn attr(&mut self, name: &str, value: &str) {
        self.begin_attr(name);
        escape_attr(&mut self.out, value);
        self.out.push('"');
    }

    /// Add an attribute whose value is the integer `value` in decimal.
    ///
    /// # Panics
    /// Panics if called when no start tag is open for attributes.
    pub fn attr_int(&mut self, name: &str, value: impl Into<i128>) {
        self.begin_attr(name);
        push_int(&mut self.out, value.into());
        self.out.push('"');
    }

    #[inline]
    fn begin_text(&mut self) {
        self.close_open_tag();
        if let Some(open) = self.stack.last_mut() {
            open.has_text = true;
        }
    }

    /// Write escaped character data inside the current element.
    #[inline]
    pub fn text(&mut self, text: &str) {
        self.begin_text();
        escape_text(&mut self.out, text);
    }

    /// Write the integer `value` in decimal as character data.
    pub fn text_int(&mut self, value: impl Into<i128>) {
        self.begin_text();
        push_int(&mut self.out, value.into());
    }

    /// Write a CDATA section. A literal `]]>` in the payload is handled with
    /// the standard section-splitting trick (`]]` ends one section, `>` starts
    /// the next), so any string re-parses identically.
    pub fn cdata(&mut self, data: &str) {
        self.begin_text();
        let parts: Vec<&str> = data.split("]]>").collect();
        for (i, part) in parts.iter().enumerate() {
            self.out.push_str("<![CDATA[");
            self.out.push_str(part);
            if i + 1 < parts.len() {
                self.out.push_str("]]");
            }
            self.out.push_str("]]>");
            if i + 1 < parts.len() {
                self.out.push_str("<![CDATA[>]]>");
            }
        }
    }

    /// Write a comment. A comment may not contain `--` or end in `-`, so a
    /// space goes between any two adjacent dashes and after a final dash:
    /// the comment then re-parses as one comment with that payload.
    pub fn comment(&mut self, text: &str) {
        self.close_open_tag();
        if self.pretty && !self.current_has_text() {
            self.newline_indent(self.stack.len());
        }
        self.out.push_str("<!--");
        let mut prev_dash = false;
        for ch in text.chars() {
            if ch == '-' && prev_dash {
                self.out.push(' ');
            }
            self.out.push(ch);
            prev_dash = ch == '-';
        }
        if prev_dash {
            self.out.push(' ');
        }
        self.out.push_str("-->");
    }

    /// Close the most recently opened element.
    ///
    /// # Panics
    /// Panics if there is no open element.
    #[inline]
    pub fn end(&mut self) {
        let open = self.stack.pop().expect("end() with no open element");
        match self.state {
            State::TagOpen => {
                self.out.push_str("/>");
            }
            _ => {
                if self.pretty && !open.has_text {
                    self.newline_indent(self.stack.len());
                }
                self.out.push_str("</");
                self.out.extend_from_within(open.name);
                self.out.push('>');
            }
        }
        self.state = State::Content;
    }

    /// Finish the document and return it.
    ///
    /// # Panics
    /// Panics if elements are still open.
    pub fn finish(mut self) -> String {
        assert!(
            self.stack.is_empty(),
            "finish() with unclosed elements: {:?}",
            self.stack.iter().map(|open| &self.out[open.name.clone()]).collect::<Vec<_>>()
        );
        if self.pretty && !self.out.ends_with('\n') {
            self.out.push('\n');
        }
        self.out
    }

    /// Bytes written so far (useful for size accounting while streaming).
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

/// Append `value` in decimal: what `Display` writes, without the
/// formatting machinery (numbers fill the PI's instruction attributes).
pub(crate) fn push_int(out: &mut String, value: i128) {
    if value < 0 {
        out.push('-');
    }
    // Every caller passes an `i64` or a `u64`, so the magnitude fits a `u64`
    // and the digit loop avoids 128-bit division.
    let Ok(mut n) = u64::try_from(value.unsigned_abs()) else {
        out.push_str(&value.unsigned_abs().to_string());
        return;
    };
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

impl XmlSink for XmlWriter {
    fn start(&mut self, name: &str) {
        XmlWriter::start(self, name);
    }
    fn attr(&mut self, name: &str, value: &str) {
        XmlWriter::attr(self, name, value);
    }
    fn attr_int(&mut self, name: &str, value: impl Into<i128>) {
        XmlWriter::attr_int(self, name, value);
    }
    fn text(&mut self, text: &str) {
        XmlWriter::text(self, text);
    }
    fn text_int(&mut self, value: impl Into<i128>) {
        XmlWriter::text_int(self, value);
    }
    fn end(&mut self) {
        XmlWriter::end(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Element;

    #[test]
    fn compact_nested() {
        let mut w = XmlWriter::compact();
        w.start("a");
        w.attr("k", "v");
        w.start("b");
        w.text("t");
        w.end();
        w.start("c");
        w.end();
        w.end();
        assert_eq!(w.finish(), r#"<a k="v"><b>t</b><c/></a>"#);
    }

    #[test]
    fn escaping_in_text_and_attr() {
        let mut w = XmlWriter::compact();
        w.start("a");
        w.attr("q", "say \"hi\" & <go>");
        w.text("1 < 2 & 3 > 2");
        w.end();
        let s = w.finish();
        assert_eq!(
            s,
            r#"<a q="say &quot;hi&quot; &amp; &lt;go&gt;">1 &lt; 2 &amp; 3 &gt; 2</a>"#
        );
        // And it parses back to the same values.
        let el = Element::parse_str(&s).unwrap();
        assert_eq!(el.attr("q"), Some("say \"hi\" & <go>"));
        assert_eq!(el.text(), "1 < 2 & 3 > 2");
    }

    #[test]
    fn pretty_indents_elements_but_not_text() {
        let mut w = XmlWriter::pretty();
        w.declaration();
        w.start("root");
        w.start("child");
        w.text("inline");
        w.end();
        w.start("empty");
        w.end();
        w.end();
        let s = w.finish();
        assert!(s.contains("\n  <child>inline</child>"));
        assert!(s.contains("\n  <empty/>"));
        assert!(s.ends_with("</root>\n"));
    }

    #[test]
    fn declaration_first() {
        let mut w = XmlWriter::compact();
        w.declaration();
        w.start("a");
        w.end();
        assert_eq!(w.finish(), "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>");
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn finish_with_open_element_panics() {
        let mut w = XmlWriter::compact();
        w.start("a");
        let _ = w.finish();
    }

    #[test]
    #[should_panic(expected = "attr() must directly follow")]
    fn attr_after_text_panics() {
        let mut w = XmlWriter::compact();
        w.start("a");
        w.text("x");
        w.attr("k", "v");
    }

    #[test]
    fn comment_dashes_never_close_early() {
        for (payload, written) in [
            ("x--->", "<!--x- - ->-->"),
            ("a---b", "<!--a- - -b-->"),
            ("end-", "<!--end- -->"),
            ("-", "<!--- -->"),
        ] {
            let mut w = XmlWriter::compact();
            w.start("a");
            w.comment(payload);
            w.end();
            let s = w.finish();
            assert_eq!(s, format!("<a>{written}</a>"));
            let el = Element::parse_str(&s).unwrap();
            assert_eq!(el.nodes().len(), 1, "{s}");
        }
    }

    #[test]
    fn comment_double_dash_sanitized() {
        let mut w = XmlWriter::compact();
        w.start("a");
        w.comment("x -- y");
        w.end();
        let s = w.finish();
        Element::parse_str(&s).unwrap();
        assert!(s.contains("<!--x - - y-->"));
    }

    #[test]
    fn cdata_simple() {
        let mut w = XmlWriter::compact();
        w.start("a");
        w.cdata("<raw> & stuff");
        w.end();
        let s = w.finish();
        let el = Element::parse_str(&s).unwrap();
        assert_eq!(el.text(), "<raw> & stuff");
    }

    #[test]
    fn cdata_with_embedded_terminator_roundtrips() {
        let mut w = XmlWriter::compact();
        w.start("a");
        w.cdata("x]]>y]]>z");
        w.end();
        let s = w.finish();
        let el = Element::parse_str(&s).unwrap();
        assert_eq!(el.text(), "x]]>y]]>z");
    }

    #[test]
    fn len_tracks_bytes() {
        let mut w = XmlWriter::compact();
        assert!(w.is_empty());
        w.start("a");
        w.end();
        assert_eq!(w.len(), "<a/>".len());
    }
}
