//! Differential oracle: the tokenizer, escaping, writer and DOM builder
//! that the borrowing pull parser and the clean-run writer replaced.
//!
//! Every event here owns its strings, every open tag is cloned onto the
//! stack and every text run is copied char by char. It is slow and plainly
//! faithful to the dialect, which makes it the reference the production
//! layers must match: the same events, the same errors (kinds and offsets),
//! the same trees and the same written bytes.

pub mod pull {
    use super::escape::unescape;
    use crate::error::{XmlError, XmlResult};

    /// An attribute as it appears on a start tag, with its value already
    /// entity-decoded.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Attribute {
        /// Attribute name as written.
        pub name: String,
        /// Decoded attribute value.
        pub value: String,
    }

    /// One parse event.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum XmlEvent {
        /// `<?xml version="1.0" ...?>` — at most one, at the start.
        Declaration {
            /// Raw content between `<?xml` and `?>`.
            content: String,
        },
        /// A start tag. `self_closing` is true for `<name/>`, in which case no
        /// matching [`XmlEvent::EndElement`] will be emitted.
        StartElement {
            /// Element name.
            name: String,
            /// Attributes in document order.
            attributes: Vec<Attribute>,
            /// Whether the tag was written as `<name/>`.
            self_closing: bool,
        },
        /// An end tag (or the implicit end of a self-closing tag is *not*
        /// reported; see [`XmlEvent::StartElement::self_closing`]).
        EndElement {
            /// Element name.
            name: String,
        },
        /// Character data, entity-decoded. Whitespace-only runs between elements
        /// are still reported; the DOM layer filters them.
        Text(String),
        /// A `<![CDATA[...]]>` section, verbatim.
        CData(String),
        /// A `<!-- ... -->` comment, verbatim.
        Comment(String),
        /// A `<?target data?>` processing instruction (other than the XML
        /// declaration).
        ProcessingInstruction {
            /// PI target.
            target: String,
            /// PI data (possibly empty).
            data: String,
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
    ///         assert_eq!(attributes[0].value, "1");
    ///     }
    ///     other => panic!("unexpected {other:?}"),
    /// }
    /// ```
    pub struct PullParser<'a> {
        input: &'a str,
        pos: usize,
        stack: Vec<String>,
        seen_root: bool,
        done: bool,
    }

    impl<'a> PullParser<'a> {
        /// Create a parser over `input`.
        pub fn new(input: &'a str) -> Self {
            PullParser { input, pos: 0, stack: Vec::new(), seen_root: false, done: false }
        }

        /// Current byte offset into the input.
        pub fn offset(&self) -> usize {
            self.pos
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
        pub fn next_event(&mut self) -> XmlResult<XmlEvent> {
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

            if self.rest().starts_with('<') {
                self.parse_markup()
            } else {
                self.parse_text()
            }
        }

        fn parse_text(&mut self) -> XmlResult<XmlEvent> {
            let start = self.pos;
            let end = self.rest().find('<').map(|p| self.pos + p).unwrap_or(self.input.len());
            let raw = &self.input[start..end];
            self.pos = end;
            if self.stack.is_empty() {
                // Outside the root element only whitespace is allowed.
                if raw.trim().is_empty() {
                    return self.next_event();
                }
                if self.seen_root {
                    return Err(XmlError::TrailingContent { offset: start });
                }
                return Err(XmlError::Syntax {
                    offset: start,
                    message: "character data before root element".into(),
                });
            }
            Ok(XmlEvent::Text(unescape(raw, start)?))
        }

        fn parse_markup(&mut self) -> XmlResult<XmlEvent> {
            debug_assert!(self.rest().starts_with('<'));
            let rest = self.rest();
            if rest.starts_with("<!--") {
                return self.parse_comment();
            }
            if rest.starts_with("<![CDATA[") {
                return self.parse_cdata();
            }
            if rest.starts_with("<!DOCTYPE") || rest.starts_with("<!doctype") {
                self.skip_doctype()?;
                return self.next_event();
            }
            if rest.starts_with("<?") {
                return self.parse_pi();
            }
            if rest.starts_with("</") {
                return self.parse_end_tag();
            }
            self.parse_start_tag()
        }

        fn parse_comment(&mut self) -> XmlResult<XmlEvent> {
            self.bump(4); // "<!--"
            let close =
                self.rest().find("-->").ok_or(XmlError::UnexpectedEof { context: "comment" })?;
            let content = self.rest()[..close].to_owned();
            self.bump(close + 3);
            Ok(XmlEvent::Comment(content))
        }

        fn parse_cdata(&mut self) -> XmlResult<XmlEvent> {
            if self.stack.is_empty() {
                return Err(self.syntax("CDATA section outside root element"));
            }
            self.bump(9); // "<![CDATA["
            let close = self
                .rest()
                .find("]]>")
                .ok_or(XmlError::UnexpectedEof { context: "CDATA section" })?;
            let content = self.rest()[..close].to_owned();
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

        fn parse_pi(&mut self) -> XmlResult<XmlEvent> {
            self.bump(2); // "<?"
            let close = self
                .rest()
                .find("?>")
                .ok_or(XmlError::UnexpectedEof { context: "processing instruction" })?;
            let content = &self.rest()[..close];
            let result = if content.starts_with("xml")
                && content[3..].starts_with(|c: char| c.is_whitespace())
            {
                XmlEvent::Declaration { content: content[3..].trim().to_owned() }
            } else {
                let (target, data) = match content.find(|c: char| c.is_whitespace()) {
                    Some(p) => (&content[..p], content[p..].trim_start()),
                    None => (content, ""),
                };
                if target.is_empty() {
                    return Err(self.syntax("processing instruction with empty target"));
                }
                XmlEvent::ProcessingInstruction { target: target.to_owned(), data: data.to_owned() }
            };
            self.bump(close + 2);
            Ok(result)
        }

        fn parse_end_tag(&mut self) -> XmlResult<XmlEvent> {
            let tag_offset = self.pos;
            self.bump(2); // "</"
            let name = self.read_name()?;
            self.skip_ws();
            if !self.rest().starts_with('>') {
                return Err(self.syntax("expected '>' to close end tag"));
            }
            self.bump(1);
            match self.stack.pop() {
                Some(open) if open == name => Ok(XmlEvent::EndElement { name }),
                Some(open) => {
                    Err(XmlError::MismatchedTag { offset: tag_offset, expected: open, found: name })
                }
                None => Err(XmlError::Syntax {
                    offset: tag_offset,
                    message: format!("end tag </{name}> with no open element"),
                }),
            }
        }

        fn parse_start_tag(&mut self) -> XmlResult<XmlEvent> {
            let tag_offset = self.pos;
            self.bump(1); // "<"
            let name = self.read_name()?;
            let mut attributes = Vec::new();
            loop {
                self.skip_ws();
                let rest = self.rest();
                if rest.starts_with("/>") {
                    self.bump(2);
                    self.note_element(tag_offset)?;
                    return Ok(XmlEvent::StartElement { name, attributes, self_closing: true });
                }
                if rest.starts_with('>') {
                    self.bump(1);
                    self.note_element(tag_offset)?;
                    self.stack.push(name.clone());
                    return Ok(XmlEvent::StartElement { name, attributes, self_closing: false });
                }
                if rest.is_empty() {
                    return Err(XmlError::UnexpectedEof { context: "start tag" });
                }
                let attr = self.read_attribute()?;
                if attributes.iter().any(|a: &Attribute| a.name == attr.name) {
                    return Err(self.syntax(format!("duplicate attribute {:?}", attr.name)));
                }
                attributes.push(attr);
            }
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

        fn read_attribute(&mut self) -> XmlResult<Attribute> {
            let name = self.read_name()?;
            self.skip_ws();
            if !self.rest().starts_with('=') {
                return Err(self.syntax(format!("attribute {name:?} missing '='")));
            }
            self.bump(1);
            self.skip_ws();
            let quote = match self.rest().chars().next() {
                Some(q @ ('"' | '\'')) => q,
                _ => return Err(self.syntax("attribute value must be quoted")),
            };
            self.bump(1);
            let value_start = self.pos;
            let close = self
                .rest()
                .find(quote)
                .ok_or(XmlError::UnexpectedEof { context: "attribute value" })?;
            let raw = &self.rest()[..close];
            if raw.contains('<') {
                return Err(self.syntax("'<' not allowed in attribute value"));
            }
            let value = unescape(raw, value_start)?;
            self.bump(close + 1);
            Ok(Attribute { name, value })
        }

        fn read_name(&mut self) -> XmlResult<String> {
            let rest = self.rest();
            let mut end = 0;
            for (i, ch) in rest.char_indices() {
                if i == 0 {
                    if !is_name_start(ch) {
                        return Err(self.syntax("expected a name"));
                    }
                } else if !is_name_char(ch) {
                    end = i;
                    break;
                }
                end = i + ch.len_utf8();
            }
            if end == 0 {
                return Err(self.syntax("expected a name"));
            }
            let name = rest[..end].to_owned();
            self.bump(end);
            Ok(name)
        }

        fn skip_ws(&mut self) {
            let n = self.rest().len() - self.rest().trim_start().len();
            self.bump(n);
        }
    }

    /// Is `ch` valid as the first character of an XML name?
    pub fn is_name_start(ch: char) -> bool {
        ch.is_alphabetic() || ch == '_' || ch == ':'
    }

    /// Is `ch` valid as a subsequent character of an XML name?
    pub fn is_name_char(ch: char) -> bool {
        ch.is_alphanumeric() || matches!(ch, '_' | ':' | '-' | '.')
    }
}

pub mod escape {
    use crate::error::{XmlError, XmlResult};

    /// Escape a string for use as element character data.
    ///
    /// `<`, `>` and `&` are replaced by entity references. Quotes are left alone
    /// (they are only special inside attribute values).
    pub fn escape_text(input: &str) -> String {
        let mut out = String::with_capacity(input.len());
        for ch in input.chars() {
            match ch {
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '&' => out.push_str("&amp;"),
                _ => out.push(ch),
            }
        }
        out
    }

    /// Escape a string for use inside a double-quoted attribute value.
    ///
    /// In addition to the text escapes, `"` becomes `&quot;` and the line-ending
    /// characters become character references so they survive attribute-value
    /// normalization on re-parse.
    pub fn escape_attr(input: &str) -> String {
        let mut out = String::with_capacity(input.len());
        for ch in input.chars() {
            match ch {
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '&' => out.push_str("&amp;"),
                '"' => out.push_str("&quot;"),
                '\n' => out.push_str("&#10;"),
                '\r' => out.push_str("&#13;"),
                '\t' => out.push_str("&#9;"),
                _ => out.push(ch),
            }
        }
        out
    }

    /// Decode entity and character references in `input`.
    ///
    /// `offset_base` is the byte offset of `input` within the whole document and
    /// is only used to produce accurate error positions.
    pub fn unescape(input: &str, offset_base: usize) -> XmlResult<String> {
        if !input.contains('&') {
            return Ok(input.to_owned());
        }
        let mut out = String::with_capacity(input.len());
        let bytes = input.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] != b'&' {
                // Advance over one UTF-8 code point.
                let ch_len = utf8_len(bytes[i]);
                out.push_str(&input[i..i + ch_len]);
                i += ch_len;
                continue;
            }
            let semi = input[i..]
                .find(';')
                .map(|p| i + p)
                .ok_or(XmlError::UnexpectedEof { context: "entity reference" })?;
            let name = &input[i + 1..semi];
            let decoded = decode_entity(name, offset_base + i)?;
            out.push(decoded);
            i = semi + 1;
        }
        Ok(out)
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
                    let code = u32::from_str_radix(rest, 16)
                        .map_err(|_| XmlError::UnknownEntity { offset, name: name.to_owned() })?;
                    char::from_u32(code)
                        .ok_or_else(|| XmlError::UnknownEntity { offset, name: name.to_owned() })
                } else if let Some(rest) = name.strip_prefix('#') {
                    let code = rest
                        .parse::<u32>()
                        .map_err(|_| XmlError::UnknownEntity { offset, name: name.to_owned() })?;
                    char::from_u32(code)
                        .ok_or_else(|| XmlError::UnknownEntity { offset, name: name.to_owned() })
                } else {
                    Err(XmlError::UnknownEntity { offset, name: name.to_owned() })
                }
            }
        }
    }

    /// Length in bytes of the UTF-8 sequence starting with `first`.
    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            _ => 4,
        }
    }
}

pub mod writer {
    use super::escape::{escape_attr, escape_text};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum State {
        /// Before any content.
        Start,
        /// Inside a start tag (attributes may still be added).
        TagOpen,
        /// After a complete child (tag closed).
        Content,
    }

    /// A streaming XML writer.
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
        stack: Vec<String>,
        state: State,
        pretty: bool,
        /// Set when the current element has text content, which suppresses
        /// pretty-printing for its end tag (so text round-trips exactly).
        text_content: Vec<bool>,
    }

    impl XmlWriter {
        /// Writer with no inter-tag whitespace (wire form).
        pub fn compact() -> Self {
            XmlWriter {
                out: String::new(),
                stack: Vec::new(),
                state: State::Start,
                pretty: false,
                text_content: Vec::new(),
            }
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
        pub fn start(&mut self, name: &str) {
            self.close_open_tag();
            let depth = self.stack.len();
            if self.pretty && !self.current_has_text() {
                self.newline_indent(depth);
            }
            self.out.push('<');
            self.out.push_str(name);
            self.stack.push(name.to_owned());
            self.text_content.push(false);
            self.state = State::TagOpen;
        }

        fn current_has_text(&self) -> bool {
            self.text_content.last().copied().unwrap_or(false)
        }

        /// Add an attribute to the element opened by the last `start` call.
        ///
        /// # Panics
        /// Panics if called when no start tag is open for attributes.
        pub fn attr(&mut self, name: &str, value: &str) {
            assert_eq!(
                self.state,
                State::TagOpen,
                "attr() must directly follow start() (element <{:?}>)",
                self.stack.last()
            );
            self.out.push(' ');
            self.out.push_str(name);
            self.out.push_str("=\"");
            self.out.push_str(&escape_attr(value));
            self.out.push('"');
        }

        /// Write escaped character data inside the current element.
        pub fn text(&mut self, text: &str) {
            self.close_open_tag();
            if let Some(flag) = self.text_content.last_mut() {
                *flag = true;
            }
            self.out.push_str(&escape_text(text));
        }

        /// Write a comment. `--` inside the payload is replaced by `- -` to keep
        /// the document well-formed.
        pub fn comment(&mut self, text: &str) {
            self.close_open_tag();
            let depth = self.stack.len();
            if self.pretty && !self.current_has_text() {
                self.newline_indent(depth);
            }
            self.out.push_str("<!--");
            self.out.push_str(&text.replace("--", "- -"));
            self.out.push_str("-->");
        }

        /// Close the most recently opened element.
        ///
        /// # Panics
        /// Panics if there is no open element.
        pub fn end(&mut self) {
            let name = self.stack.pop().expect("end() with no open element");
            let had_text = self.text_content.pop().unwrap_or(false);
            match self.state {
                State::TagOpen => {
                    self.out.push_str("/>");
                }
                _ => {
                    if self.pretty && !had_text {
                        self.newline_indent(self.stack.len());
                    }
                    self.out.push_str("</");
                    self.out.push_str(&name);
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
            assert!(self.stack.is_empty(), "finish() with unclosed elements: {:?}", self.stack);
            if self.pretty && !self.out.ends_with('\n') {
                self.out.push('\n');
            }
            self.out
        }
    }
}

/// The DOM builder and tree writer over the old tokenizer and writer.
pub mod dom {
    use super::pull::{PullParser, XmlEvent};
    use super::writer::XmlWriter;
    use crate::dom::{Element, Node, MAX_DEPTH};
    use crate::error::{XmlError, XmlResult};

    /// Parse a document into a tree, as `Element::parse_str` did.
    pub fn parse_str(input: &str) -> XmlResult<Element> {
        let mut parser = PullParser::new(input);
        // Skip prolog (declaration, comments, PIs) until the root start tag.
        loop {
            match parser.next_event()? {
                XmlEvent::Declaration { .. }
                | XmlEvent::Comment(_)
                | XmlEvent::ProcessingInstruction { .. } => continue,
                XmlEvent::StartElement { name, attributes, self_closing } => {
                    let mut root = with_attributes(Element::new(name), attributes);
                    if !self_closing {
                        fill(&mut root, &mut parser, 1)?;
                    }
                    // Drain the epilog so trailing garbage is diagnosed.
                    loop {
                        match parser.next_event()? {
                            XmlEvent::Eof => break,
                            XmlEvent::Comment(_) | XmlEvent::ProcessingInstruction { .. } => {
                                continue
                            }
                            _ => unreachable!("parser enforces single root"),
                        }
                    }
                    normalize_whitespace(&mut root);
                    return Ok(root);
                }
                XmlEvent::Eof => return Err(XmlError::NoRootElement),
                XmlEvent::Text(_) | XmlEvent::CData(_) | XmlEvent::EndElement { .. } => {
                    unreachable!("parser rejects these before the root")
                }
            }
        }
    }

    fn with_attributes(mut el: Element, attributes: Vec<super::pull::Attribute>) -> Element {
        for a in attributes {
            el.set_attr(a.name, a.value);
        }
        el
    }

    fn fill(parent: &mut Element, parser: &mut PullParser<'_>, depth: usize) -> XmlResult<()> {
        loop {
            match parser.next_event()? {
                XmlEvent::StartElement { name, attributes, self_closing } => {
                    if depth >= MAX_DEPTH {
                        return Err(XmlError::Syntax {
                            offset: parser.offset(),
                            message: format!("elements nested deeper than {MAX_DEPTH}"),
                        });
                    }
                    let mut el = with_attributes(Element::new(name), attributes);
                    if !self_closing {
                        fill(&mut el, parser, depth + 1)?;
                    }
                    parent.children.push(Node::Element(el));
                }
                XmlEvent::EndElement { .. } => return Ok(()),
                XmlEvent::Text(t) => parent.children.push(Node::Text(t)),
                XmlEvent::CData(t) => parent.children.push(Node::Text(t)),
                XmlEvent::Comment(c) => parent.children.push(Node::Comment(c)),
                XmlEvent::ProcessingInstruction { .. } | XmlEvent::Declaration { .. } => {}
                XmlEvent::Eof => {
                    return Err(XmlError::UnexpectedEof { context: "element content" })
                }
            }
        }
    }

    fn normalize_whitespace(el: &mut Element) {
        let has_element_child = el.children.iter().any(|n| matches!(n, Node::Element(_)));
        if has_element_child {
            el.children.retain(|n| match n {
                Node::Text(t) => !t.trim().is_empty(),
                _ => true,
            });
        }
        let mut merged: Vec<Node> = Vec::with_capacity(el.children.len());
        for node in el.children.drain(..) {
            match (merged.last_mut(), node) {
                (Some(Node::Text(prev)), Node::Text(next)) => prev.push_str(&next),
                (_, node) => merged.push(node),
            }
        }
        el.children = merged;
        for node in &mut el.children {
            if let Node::Element(e) = node {
                normalize_whitespace(e);
            }
        }
    }

    /// The compact document `Element::to_document_string` wrote.
    pub fn to_document_string(el: &Element) -> String {
        let mut w = XmlWriter::compact();
        w.declaration();
        write_to(el, &mut w);
        w.finish()
    }

    /// The pretty document `Element::to_pretty_string` wrote.
    pub fn to_pretty_string(el: &Element) -> String {
        let mut w = XmlWriter::pretty();
        w.declaration();
        write_to(el, &mut w);
        w.finish()
    }

    fn write_to(el: &Element, w: &mut XmlWriter) {
        w.start(el.name());
        for (k, v) in el.attrs() {
            w.attr(k, v);
        }
        for node in &el.children {
            match node {
                Node::Element(e) => write_to(e, w),
                Node::Text(t) => w.text(t),
                Node::Comment(c) => w.comment(c),
            }
        }
        w.end();
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    use super::{dom as old_dom, pull as old};
    use crate::dom::{Element, Node};
    use crate::pull::{PullParser, XmlEvent};
    use crate::reader::{DocReader, Tag};
    use crate::XmlResult;

    /// An event with owned strings: the form both tokenizers are compared in.
    #[derive(Debug, PartialEq)]
    enum Ev {
        Decl(String),
        Start(String, Vec<(String, String)>, bool),
        End(String),
        Text(String),
        CData(String),
        Comment(String),
        Pi(String, String),
        Eof,
    }

    fn old_events(doc: &str) -> XmlResult<Vec<Ev>> {
        let mut p = old::PullParser::new(doc);
        let mut out = Vec::new();
        loop {
            let ev = match p.next_event()? {
                old::XmlEvent::Declaration { content } => Ev::Decl(content),
                old::XmlEvent::StartElement { name, attributes, self_closing } => Ev::Start(
                    name,
                    attributes.into_iter().map(|a| (a.name, a.value)).collect(),
                    self_closing,
                ),
                old::XmlEvent::EndElement { name } => Ev::End(name),
                old::XmlEvent::Text(t) => Ev::Text(t),
                old::XmlEvent::CData(t) => Ev::CData(t),
                old::XmlEvent::Comment(c) => Ev::Comment(c),
                old::XmlEvent::ProcessingInstruction { target, data } => Ev::Pi(target, data),
                old::XmlEvent::Eof => Ev::Eof,
            };
            let end = ev == Ev::Eof;
            out.push(ev);
            if end {
                return Ok(out);
            }
        }
    }

    fn new_events(doc: &str) -> XmlResult<Vec<Ev>> {
        let mut p = PullParser::new(doc);
        let mut out = Vec::new();
        loop {
            let ev = match p.next_event()? {
                XmlEvent::Declaration { content } => Ev::Decl(content.into()),
                XmlEvent::StartElement { name, attributes, self_closing } => Ev::Start(
                    name.into(),
                    attributes.iter().map(|a| (a.name.into(), a.value.into_owned())).collect(),
                    self_closing,
                ),
                XmlEvent::EndElement { name } => Ev::End(name.into()),
                XmlEvent::Text(t) => Ev::Text(t.into_owned()),
                XmlEvent::CData(t) => Ev::CData(t.into()),
                XmlEvent::Comment(c) => Ev::Comment(c.into()),
                XmlEvent::ProcessingInstruction { target, data } => {
                    Ev::Pi(target.into(), data.into())
                }
                XmlEvent::Eof => Ev::Eof,
            };
            let end = ev == Ev::Eof;
            out.push(ev);
            if end {
                return Ok(out);
            }
        }
    }

    fn pick<'s>(rng: &mut TestRng, options: &[&'s str]) -> &'s str {
        options[rng.below(options.len())]
    }

    const NAMES: [&str; 7] = ["a", "b", "v", "i", "ns:x-1.y", "é", "_"];
    const VALUES: [&str; 9] =
        ["1", "", "x &amp; y", "&lt;&gt;", "&#65;&#x4E2D;", "a\"b", "it's", " sp ", "中文"];
    const TEXTS: [&str; 10] =
        [" ", "\n  ", "\t", "txt", "a&amp;b", "&#x4E2D;", "  x  ", "\u{3000}", "q\"'", "→"];

    /// A random document exercising everything the dialect has: prolog and
    /// epilog, both quote styles, entity references, whitespace-only and
    /// mixed text, CDATA, comments, processing instructions, nesting.
    fn random_doc(rng: &mut TestRng) -> String {
        let mut out = String::new();
        if rng.below(2) == 0 {
            out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        }
        for _ in 0..rng.below(3) {
            out.push_str(pick(rng, &["<!-- head -->", "\n", "<?pi data?>", "<!DOCTYPE d [<!x>]>"]));
        }
        element(rng, &mut out, 4);
        for _ in 0..rng.below(3) {
            out.push_str(pick(rng, &["<!--tail-->", " \n", "<?end?>"]));
        }
        out
    }

    fn element(rng: &mut TestRng, out: &mut String, depth: usize) {
        let name = pick(rng, &NAMES);
        out.push('<');
        out.push_str(name);
        let mut used = Vec::new();
        for _ in 0..rng.below(4) {
            let attr = pick(rng, &["t", "op", "k", "n:s", "ü"]);
            if used.contains(&attr) {
                continue;
            }
            used.push(attr);
            let value = pick(rng, &VALUES);
            let (q, value) = if value.contains('"') { ('\'', value) } else { ('"', value) };
            let sp = pick(rng, &[" ", "  ", "\n", " \t", "\u{3000}", "\u{85} "]);
            out.push_str(&format!("{sp}{attr}{}={}{q}{value}{q}", pick(rng, &["", " "]), ""));
        }
        if rng.below(5) == 0 {
            out.push_str(pick(rng, &["/>", " />"]));
            return;
        }
        out.push('>');
        for _ in 0..rng.below(6) {
            match rng.below(8) {
                0..=2 => out.push_str(pick(rng, &TEXTS)),
                3 => {
                    out.push_str(pick(rng, &["<![CDATA[<x>&]]>", "<![CDATA[ ]]>", "<![CDATA[]]>"]))
                }
                4 => out.push_str(pick(rng, &["<!-- c -->", "<!---->", "<?p d?>"])),
                _ if depth > 0 => element(rng, out, depth - 1),
                _ => out.push('t'),
            }
        }
        out.push_str("</");
        out.push_str(name);
        out.push_str(pick(rng, &[">", " >"]));
    }

    /// The document, every truncation of it, and byte substitutions.
    fn mutations(rng: &mut TestRng, doc: &str) -> Vec<String> {
        let mut out = vec![doc.to_owned()];
        for cut in 0..doc.len() {
            if doc.is_char_boundary(cut) {
                out.push(doc[..cut].to_owned());
            }
        }
        for _ in 0..24 {
            let at = rng.below(doc.len());
            if !doc.is_char_boundary(at) {
                continue;
            }
            let mut m = doc[..at].to_owned();
            m.push_str(pick(
                rng,
                &["<", ">", "/", "&", ";", "\"", "'", "=", "!", " ", "-", "?", "]", "x", ""],
            ));
            let skip = doc[at..].chars().next().map_or(0, char::len_utf8);
            m.push_str(&doc[at + skip..]);
            out.push(m);
        }
        out
    }

    fn corpus(name: &str, docs: usize) -> Vec<String> {
        let mut rng = TestRng::from_name(name);
        let mut out = Vec::new();
        for _ in 0..docs {
            let doc = random_doc(&mut rng);
            out.extend(mutations(&mut rng, &doc));
        }
        // Nesting at and just past the cap, with and without a leaf.
        for depth in [255, 256, 257, 300] {
            out.push(format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth)));
            out.push(format!("{}<b/>{}", "<a>".repeat(depth), "</a>".repeat(depth)));
        }
        out
    }

    #[test]
    fn tokenizer_matches_oracle_events_and_errors() {
        for doc in corpus("tokenizer", 60) {
            assert_eq!(new_events(&doc), old_events(&doc), "{doc:?}");
        }
    }

    #[test]
    fn dom_matches_oracle_trees_and_errors() {
        for doc in corpus("dom", 60) {
            let new = Element::parse_str(&doc);
            assert_eq!(new, old_dom::parse_str(&doc), "{doc:?}");
            // The comment fix changes how dashes in comments are written.
            if let Some(el) = new.ok().filter(|el| !dashed_comment(el)) {
                assert_eq!(el.to_document_string(), old_dom::to_document_string(&el));
                assert_eq!(el.to_pretty_string(), old_dom::to_pretty_string(&el));
            }
        }
    }

    fn dashed_comment(el: &Element) -> bool {
        el.nodes().iter().any(|n| match n {
            Node::Comment(c) => c.contains("--") || c.ends_with('-'),
            Node::Element(e) => dashed_comment(e),
            Node::Text(_) => false,
        })
    }

    /// What a walk with [`DocReader`] saw: each element either read as text
    /// or descended into, as `descend` chose.
    #[derive(Debug, PartialEq)]
    enum Walk {
        Text(String),
        Element(String, Vec<(String, String)>, Vec<Walk>),
    }

    fn walk_reader<'a>(
        r: &mut DocReader<'a>,
        mut tag: Tag<'a>,
        descend: &mut dyn FnMut() -> bool,
    ) -> XmlResult<Walk> {
        if !descend() {
            return Ok(Walk::Text(r.text(tag)?.into_owned()));
        }
        let name = tag.name.to_owned();
        let attrs = tag.attributes.iter().map(|a| (a.name.into(), a.value.into_owned())).collect();
        let mut children = Vec::new();
        while let Some(child) = r.next_child(&mut tag)? {
            children.push(walk_reader(r, child, descend)?);
        }
        Ok(Walk::Element(name, attrs, children))
    }

    fn walk_dom(el: &Element, descend: &mut dyn FnMut() -> bool) -> Walk {
        if !descend() {
            return Walk::Text(el.text());
        }
        let children = el.children().map(|c| walk_dom(c, descend)).collect();
        let attrs = el.attrs().map(|(n, v)| (n.into(), v.into())).collect();
        Walk::Element(el.name().into(), attrs, children)
    }

    #[test]
    fn reader_matches_oracle_dom() {
        let mut rng = TestRng::from_name("reader");
        for doc in corpus("reader", 60) {
            let seed = rng.next_u64();
            let mut choices = TestRng::from_name(&seed.to_string());
            let mut descend = || choices.below(3) != 0;
            let streamed =
                DocReader::read_document(&doc, |r, root| walk_reader(r, root, &mut descend));
            let mut choices = TestRng::from_name(&seed.to_string());
            let mut descend = || choices.below(3) != 0;
            let dom = old_dom::parse_str(&doc).map(|el| walk_dom(&el, &mut descend));
            match (streamed, dom) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{doc:?}"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("{doc:?}: reader {a:?}, DOM {b:?}"),
            }
        }
    }

    fn random_tree(rng: &mut TestRng, depth: usize) -> Element {
        let mut el = Element::new(pick(rng, &NAMES));
        for (i, attr) in ["t", "k", "q"].iter().enumerate() {
            if rng.below(2) == 0 {
                let value = format!("{}{i}", pick(rng, &["<&>\"'", "\t\n\r", "", "v", "中"]));
                el.set_attr(*attr, value);
            }
        }
        for _ in 0..rng.below(5) {
            match rng.below(5) {
                0 => el
                    .children
                    .push(Node::Text(pick(rng, &["", " ", "a<b>&c", "\"'", "]]>"]).into())),
                1 => el.children.push(Node::Comment(pick(rng, &[" note ", "a-b", "", "x"]).into())),
                _ if depth > 0 => el.children.push(Node::Element(random_tree(rng, depth - 1))),
                _ => el.children.push(Node::Text("leaf".into())),
            }
        }
        el
    }

    #[test]
    fn writer_matches_oracle_bytes() {
        let mut rng = TestRng::from_name("writer");
        for _ in 0..300 {
            let el = random_tree(&mut rng, 4);
            assert_eq!(el.to_document_string(), old_dom::to_document_string(&el));
            assert_eq!(el.to_pretty_string(), old_dom::to_pretty_string(&el));
        }
    }

    #[test]
    fn integer_writes_match_display() {
        use crate::writer::{XmlSink, XmlWriter};
        let values = [0i128, -1, 7, i64::MIN.into(), i64::MAX.into(), u64::MAX.into(), i128::MIN];
        for value in values {
            let mut a = XmlWriter::compact();
            a.start("v");
            a.attr_int("n", value);
            a.text_int(value);
            a.end();
            let mut b = super::writer::XmlWriter::compact();
            b.start("v");
            b.attr("n", &value.to_string());
            b.text(&value.to_string());
            b.end();
            assert_eq!(a.finish(), b.finish());
            let mut tree = crate::TreeBuilder::default();
            tree.start("v");
            tree.attr_int("n", value);
            tree.text_int(value);
            tree.end();
            let el = tree.finish();
            assert_eq!((el.attr("n"), el.text()), (Some(value.to_string().as_str()), value.to_string()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn any_comment_reparses_as_one_clean_comment(payload in "[-a> ]{0,12}") {
            let mut w = crate::writer::XmlWriter::compact();
            w.start("a");
            w.comment(&payload);
            w.end();
            let doc = w.finish();
            let el = Element::parse_str(&doc).map_err(|e| format!("{doc:?}: {e}"))?;
            prop_assert_eq!(el.nodes().len(), 1);
            match &el.nodes()[0] {
                Node::Comment(c) => {
                    prop_assert!(!c.contains("--") && !c.ends_with('-'), "{doc:?}");
                    prop_assert_eq!(c.replace(' ', ""), payload.replace(' ', ""));
                }
                other => prop_assert!(false, "{doc:?} parsed as {other:?}"),
            }
        }
    }
}
