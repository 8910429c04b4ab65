//! A minimal DOM built on top of the pull parser.
//!
//! [`Element`] is an owned tree node; it is what the PDAgent wire formats
//! (Packed Information, agent code documents, result documents) are built
//! from and serialized to.

use std::fmt;

use crate::error::{XmlError, XmlResult};
use crate::pull::{Attributes, PullParser, XmlEvent};
use crate::writer::{push_int, XmlSink, XmlWriter};

/// Deepest element nesting [`Element::parse_str`] accepts (the root is depth
/// 1). The DOM builder recurses once per open element, so an unbounded
/// depth would let a few KB of hostile input — a Packed Information document
/// compresses `<a><a><a>…` to almost nothing — overflow the stack. Real
/// PDAgent documents nest a handful of levels.
pub const MAX_DEPTH: usize = 256;

/// A node in the DOM tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// A run of character data (entity-decoded; CDATA merged in verbatim).
    Text(String),
    /// A comment (preserved so documents round-trip).
    Comment(String),
}

/// A string kept inline when it is short, so that holding it allocates
/// nothing. An element's packed tag ([`push_piece`]) is one: most elements
/// of PDAgent documents fit (`1:v1:t3:str`, `1:i2:op5:gload1:c1:0`).
#[derive(Clone)]
pub(crate) enum XmlStr {
    /// The first `len` bytes of `bytes`, copied from a `str`.
    Inline { len: u8, bytes: [u8; XmlStr::INLINE] },
    Heap(Box<str>),
}

impl XmlStr {
    /// Longest string kept inline: the enum then takes 32 bytes.
    const INLINE: usize = 30;

    #[inline]
    pub(crate) fn new(s: &str) -> XmlStr {
        if s.len() <= Self::INLINE {
            let mut bytes = [0; Self::INLINE];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            XmlStr::Inline { len: s.len() as u8, bytes }
        } else {
            XmlStr::Heap(s.into())
        }
    }

    #[inline]
    pub(crate) fn as_str(&self) -> &str {
        match self {
            XmlStr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..usize::from(*len)]).expect("copied from a str")
            }
            XmlStr::Heap(s) => s,
        }
    }
}

impl Default for XmlStr {
    fn default() -> XmlStr {
        XmlStr::new("")
    }
}

impl PartialEq for XmlStr {
    fn eq(&self, other: &XmlStr) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for XmlStr {}

/// Append `piece` to a packed tag: its length in bytes, in decimal, then
/// `:`, then the piece. A packed tag is the element name followed by each
/// attribute's name and value, so it is one string however many attributes
/// there are, and all of it is valid UTF-8.
pub(crate) fn push_piece(tag: &mut String, piece: &str) {
    if piece.len() < 10 {
        tag.push(char::from(b'0' + piece.len() as u8));
        tag.push(':');
        tag.push_str(piece);
        return;
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = piece.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    tag.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    tag.push(':');
    tag.push_str(piece);
}

/// Split the first piece off a packed tag: `(piece, rest)`. An empty tag
/// gives `None`.
#[inline]
pub(crate) fn split_piece(tag: &str) -> Option<(&str, &str)> {
    let bytes = tag.as_bytes();
    let mut len = 0usize;
    let mut at = 0;
    while let Some(&b) = bytes.get(at) {
        at += 1;
        if b == b':' {
            let rest = &tag[at..];
            return Some((&rest[..len], &rest[len..]));
        }
        len = len * 10 + usize::from(b - b'0');
    }
    None
}

/// The attribute pairs of a packed tag, after its name.
#[derive(Debug, Clone)]
pub(crate) struct Pairs<'a>(pub(crate) &'a str);

impl<'a> Iterator for Pairs<'a> {
    type Item = (&'a str, &'a str);

    #[inline]
    fn next(&mut self) -> Option<(&'a str, &'a str)> {
        let (name, rest) = split_piece(self.0)?;
        let (value, rest) = split_piece(rest).expect("packed tags hold attribute pairs");
        self.0 = rest;
        Some((name, value))
    }
}

/// An XML element: name, attributes, children.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// The name and the attributes, packed ([`push_piece`]).
    pub(crate) tag: XmlStr,
    pub(crate) children: Vec<Node>,
}

impl fmt::Debug for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Element")
            .field("name", &self.name())
            .field("attributes", &self.attrs().collect::<Vec<_>>())
            .field("children", &self.children)
            .finish()
    }
}

impl Element {
    /// Create an empty element.
    pub fn new(name: impl AsRef<str>) -> Self {
        let mut tag = String::new();
        push_piece(&mut tag, name.as_ref());
        Element { tag: XmlStr::new(&tag), children: Vec::new() }
    }

    /// Builder-style: add an attribute.
    pub fn with_attr(mut self, name: impl AsRef<str>, value: impl AsRef<str>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Builder-style: add a child element.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder-style: add a text child.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Element name.
    #[inline]
    pub fn name(&self) -> &str {
        self.split_tag().0
    }

    /// The name, and the packed attribute pairs after it.
    #[inline]
    pub(crate) fn split_tag(&self) -> (&str, &str) {
        split_piece(self.tag.as_str()).unwrap_or_default()
    }

    /// All attributes in document order, as `(name, value)` pairs.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> {
        Pairs(self.split_tag().1)
    }

    /// Look up an attribute value.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs().find(|&(n, _)| n == name).map(|(_, v)| v)
    }

    /// Look up an attribute, erroring with a descriptive message if missing.
    /// Convenience for wire-format decoding.
    pub fn require_attr(&self, name: &str) -> XmlResult<&str> {
        self.attr(name).ok_or_else(|| XmlError::Syntax {
            offset: 0,
            message: format!("element <{}> missing required attribute {name:?}", self.name()),
        })
    }

    /// Set (insert or replace) an attribute.
    pub fn set_attr(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) {
        let (name, value) = (name.as_ref(), value.as_ref());
        let mut tag = String::with_capacity(self.tag.as_str().len() + name.len() + value.len() + 8);
        push_piece(&mut tag, self.name());
        let mut replaced = false;
        for (k, v) in self.attrs() {
            push_piece(&mut tag, k);
            push_piece(&mut tag, if k == name { value } else { v });
            replaced |= k == name;
        }
        if !replaced {
            push_piece(&mut tag, name);
            push_piece(&mut tag, value);
        }
        self.tag = XmlStr::new(&tag);
    }

    /// All child nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.children
    }

    /// Append a child element.
    pub fn push_child(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Append a text node.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(Node::Text(text.into()));
    }

    /// Iterate over child *elements* only.
    pub fn children(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            _ => None,
        })
    }

    /// First child element with the given name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.children().find(|e| e.name() == name)
    }

    /// First child element with the given name, or a descriptive error.
    pub fn require_child(&self, name: &str) -> XmlResult<&Element> {
        self.child(name).ok_or_else(|| XmlError::Syntax {
            offset: 0,
            message: format!("element <{}> missing required child <{name}>", self.name()),
        })
    }

    /// All child elements with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> {
        self.children().filter(move |e| e.name() == name)
    }

    /// Concatenated text content of *direct* text/CDATA children.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for node in &self.children {
            if let Node::Text(t) = node {
                out.push_str(t);
            }
        }
        out
    }

    /// Text of the first child element with the given name (common accessor
    /// for `<param name="..">value</param>`-style formats).
    pub fn child_text(&self, name: &str) -> Option<String> {
        self.child(name).map(|e| e.text())
    }

    /// Parse a document from a string; returns the root element.
    ///
    /// Comments are preserved as [`Node::Comment`] children; whitespace-only
    /// text runs that sit between elements are dropped (they are formatting,
    /// not data) unless the element has *only* text children.
    pub fn parse_str(input: &str) -> XmlResult<Element> {
        let mut parser = PullParser::new(input);
        Self::parse_with(&mut parser)
    }

    /// Parse a document from bytes (validating UTF-8).
    pub fn parse_bytes(input: &[u8]) -> XmlResult<Element> {
        let mut parser = PullParser::from_bytes(input)?;
        Self::parse_with(&mut parser)
    }

    fn parse_with(parser: &mut PullParser<'_>) -> XmlResult<Element> {
        // Skip prolog (declaration, comments, PIs) until the root start tag.
        loop {
            match parser.next_event()? {
                XmlEvent::Declaration { .. }
                | XmlEvent::Comment(_)
                | XmlEvent::ProcessingInstruction { .. } => continue,
                XmlEvent::StartElement { name, attributes, self_closing } => {
                    let mut tag = String::new();
                    let mut root = Element::from_tag(name, attributes, &mut tag);
                    if !self_closing {
                        Self::fill(&mut root, parser, 1, &mut tag)?;
                    }
                    // Drain the epilog so trailing garbage is diagnosed.
                    loop {
                        match parser.next_event()? {
                            XmlEvent::Eof => break,
                            XmlEvent::Comment(_)
                            | XmlEvent::ProcessingInstruction { .. } => continue,
                            _ => unreachable!("parser enforces single root"),
                        }
                    }
                    return Ok(root);
                }
                XmlEvent::Eof => return Err(XmlError::NoRootElement),
                XmlEvent::Text(_) | XmlEvent::CData(_) | XmlEvent::EndElement { .. } => {
                    unreachable!("parser rejects these before the root")
                }
            }
        }
    }

    /// The element a start tag opens; `tag` is scratch space for packing.
    fn from_tag(name: &str, attributes: Attributes<'_>, tag: &mut String) -> Element {
        tag.clear();
        push_piece(tag, name);
        for a in attributes.iter() {
            push_piece(tag, a.name);
            push_piece(tag, &a.value);
        }
        Element { tag: XmlStr::new(tag), children: Vec::new() }
    }

    /// Read `parent`'s content up to its end tag; `depth` is `parent`'s
    /// nesting depth.
    fn fill(
        parent: &mut Element,
        parser: &mut PullParser<'_>,
        depth: usize,
        tag: &mut String,
    ) -> XmlResult<()> {
        loop {
            match parser.next_event()? {
                XmlEvent::StartElement { name, attributes, self_closing } => {
                    if depth >= MAX_DEPTH {
                        return Err(too_deep(parser.offset()));
                    }
                    let mut el = Element::from_tag(name, attributes, tag);
                    if !self_closing {
                        Self::fill(&mut el, parser, depth + 1, tag)?;
                    }
                    parent.children.push(Node::Element(el));
                }
                XmlEvent::EndElement { .. } => {
                    parent.normalize_children();
                    return Ok(());
                }
                XmlEvent::Text(t) => parent.children.push(Node::Text(t.into_owned())),
                XmlEvent::CData(t) => parent.children.push(Node::Text(t.to_owned())),
                XmlEvent::Comment(c) => parent.children.push(Node::Comment(c.to_owned())),
                XmlEvent::ProcessingInstruction { .. } | XmlEvent::Declaration { .. } => {}
                XmlEvent::Eof => {
                    return Err(XmlError::UnexpectedEof { context: "element content" })
                }
            }
        }
    }

    /// Drop whitespace-only text children if the element also has element
    /// children (i.e. indentation); merge adjacent text runs. The parser
    /// calls this as each element closes, so children come already
    /// normalized. The child list is rebuilt only when something is dropped
    /// or merged.
    fn normalize_children(&mut self) {
        let has_element_child =
            self.children.iter().any(|n| matches!(n, Node::Element(_)));
        let droppable =
            |n: &Node| has_element_child && matches!(n, Node::Text(t) if t.trim().is_empty());
        let adjacent_text = self
            .children
            .windows(2)
            .any(|w| matches!(w, [Node::Text(_), Node::Text(_)]));
        if adjacent_text || self.children.iter().any(droppable) {
            let mut merged: Vec<Node> = Vec::with_capacity(self.children.len());
            for node in self.children.drain(..) {
                if droppable(&node) {
                    continue;
                }
                match (merged.last_mut(), node) {
                    (Some(Node::Text(prev)), Node::Text(next)) => prev.push_str(&next),
                    (_, node) => merged.push(node),
                }
            }
            self.children = merged;
        }
    }

    /// Serialize to a compact (no indentation) document string with an XML
    /// declaration. This is the wire form used for Packed Information.
    pub fn to_document_string(&self) -> String {
        let mut w = XmlWriter::compact();
        w.declaration();
        self.write_to(&mut w);
        w.finish()
    }

    /// Serialize to a pretty-printed document string (for logs and docs).
    pub fn to_pretty_string(&self) -> String {
        let mut w = XmlWriter::pretty();
        w.declaration();
        self.write_to(&mut w);
        w.finish()
    }

    /// Write this element (recursively) into an [`XmlWriter`].
    pub fn write_to(&self, w: &mut XmlWriter) {
        let (name, pairs) = self.split_tag();
        w.start(name);
        for (k, v) in Pairs(pairs) {
            w.attr(k, v);
        }
        for node in &self.children {
            match node {
                Node::Element(e) => e.write_to(w),
                Node::Text(t) => w.text(t),
                Node::Comment(c) => w.comment(c),
            }
        }
        w.end();
    }

    /// Total number of elements in this subtree (including `self`).
    pub fn element_count(&self) -> usize {
        1 + self.children().map(Element::element_count).sum::<usize>()
    }
}

/// The error for an element nested deeper than [`MAX_DEPTH`], detected at
/// `offset` (just past its start tag).
pub(crate) fn too_deep(offset: usize) -> XmlError {
    XmlError::Syntax { offset, message: format!("elements nested deeper than {MAX_DEPTH}") }
}

/// An [`XmlSink`] that builds an [`Element`] tree, node for node what the
/// same calls into an [`XmlWriter`] would write.
///
/// ```
/// use pdagent_xml::dom::TreeBuilder;
/// use pdagent_xml::writer::XmlSink;
/// let mut b = TreeBuilder::default();
/// b.start("v");
/// b.attr("t", "int");
/// b.text_int(7);
/// b.end();
/// assert_eq!(b.finish().to_document_string(),
///            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><v t=\"int\">7</v>");
/// ```
#[derive(Debug, Default)]
pub struct TreeBuilder {
    open: Vec<Element>,
    root: Option<Element>,
    /// The packed tag of the last element started, while attributes may
    /// still be added to it.
    tag: String,
    tag_open: bool,
    /// Reused buffer for formatting values.
    scratch: String,
}

impl TreeBuilder {
    /// The finished tree.
    ///
    /// # Panics
    /// Panics if no element was written or one is still open.
    pub fn finish(self) -> Element {
        assert!(self.open.is_empty(), "finish() with unclosed elements");
        self.root.expect("finish() with no element written")
    }

    /// Store the pending packed tag in its element: its attributes are done.
    fn close_tag(&mut self) -> &mut Element {
        let el = self.open.last_mut().expect("no open element");
        if self.tag_open {
            el.tag = XmlStr::new(&self.tag);
            self.tag_open = false;
        }
        el
    }
}

impl XmlSink for TreeBuilder {
    fn start(&mut self, name: &str) {
        if !self.open.is_empty() {
            self.close_tag();
        }
        self.tag.clear();
        push_piece(&mut self.tag, name);
        self.tag_open = true;
        self.open.push(Element::default());
    }
    fn attr(&mut self, name: &str, value: &str) {
        assert!(self.tag_open, "attr() must directly follow start()");
        push_piece(&mut self.tag, name);
        push_piece(&mut self.tag, value);
    }
    fn attr_int(&mut self, name: &str, value: impl Into<i128>) {
        self.scratch.clear();
        push_int(&mut self.scratch, value.into());
        let value = std::mem::take(&mut self.scratch);
        self.attr(name, &value);
        self.scratch = value;
    }
    fn text(&mut self, text: &str) {
        self.close_tag().push_text(text);
    }
    fn text_int(&mut self, value: impl Into<i128>) {
        let mut text = String::new();
        push_int(&mut text, value.into());
        self.close_tag().push_text(text);
    }
    fn end(&mut self) {
        self.close_tag();
        let el = self.open.pop().expect("end() with no open element");
        match self.open.last_mut() {
            Some(parent) => parent.push_child(el),
            None => {
                assert!(self.root.is_none(), "a document has one root element");
                self.root = Some(el);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_access() {
        let el = Element::new("pi")
            .with_attr("version", "1")
            .with_child(Element::new("code").with_attr("id", "7").with_text("abc"))
            .with_child(Element::new("param").with_text("x"));
        assert_eq!(el.name(), "pi");
        assert_eq!(el.attr("version"), Some("1"));
        assert_eq!(el.child("code").unwrap().text(), "abc");
        assert_eq!(el.child_text("param").as_deref(), Some("x"));
        assert_eq!(el.child("missing"), None);
        assert_eq!(el.element_count(), 3);
    }

    #[test]
    fn set_attr_replaces() {
        let mut el = Element::new("a");
        el.set_attr("k", "1");
        el.set_attr("k", "2");
        assert_eq!(el.attrs().count(), 1);
        assert_eq!(el.attr("k"), Some("2"));
    }

    #[test]
    fn parse_nested_document() {
        let doc = Element::parse_str(
            r#"<?xml version="1.0"?>
            <pi version="1">
              <header><id>ma-1</id><key>k0</key></header>
              <params>
                <param name="from">A</param>
                <param name="to">B</param>
              </params>
            </pi>"#,
        )
        .unwrap();
        assert_eq!(doc.name(), "pi");
        let params: Vec<_> = doc.child("params").unwrap().children_named("param").collect();
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].attr("name"), Some("from"));
        assert_eq!(params[1].text(), "B");
        assert_eq!(doc.child("header").unwrap().child_text("id").unwrap(), "ma-1");
    }

    #[test]
    fn whitespace_between_elements_dropped_but_text_kept() {
        let doc = Element::parse_str("<a>\n  <b>  keep me  </b>\n</a>").unwrap();
        assert_eq!(doc.nodes().len(), 1);
        assert_eq!(doc.child("b").unwrap().text(), "  keep me  ");
    }

    #[test]
    fn cdata_merges_with_text() {
        let doc = Element::parse_str("<a>pre<![CDATA[<mid>]]>post</a>").unwrap();
        assert_eq!(doc.text(), "pre<mid>post");
        assert_eq!(doc.nodes().len(), 1);
    }

    #[test]
    fn comments_preserved() {
        let doc = Element::parse_str("<a><!-- note --><b/></a>").unwrap();
        assert!(doc.nodes().iter().any(|n| matches!(n, Node::Comment(c) if c == " note ")));
    }

    #[test]
    fn document_roundtrip_compact() {
        let el = Element::new("pi")
            .with_attr("v", "1 & 2")
            .with_child(Element::new("t").with_text("a<b>&c"));
        let s = el.to_document_string();
        let back = Element::parse_str(&s).unwrap();
        assert_eq!(back, el);
    }

    #[test]
    fn document_roundtrip_pretty() {
        let el = Element::new("root")
            .with_child(Element::new("x").with_text("text body"))
            .with_child(Element::new("y").with_attr("q", "\"quoted\""));
        let s = el.to_pretty_string();
        let back = Element::parse_str(&s).unwrap();
        assert_eq!(back, el);
    }

    #[test]
    fn require_helpers_give_useful_errors() {
        let el = Element::new("pi");
        let err = el.require_attr("version").unwrap_err();
        assert!(err.to_string().contains("version"));
        let err = el.require_child("code").unwrap_err();
        assert!(err.to_string().contains("code"));
    }

    #[test]
    fn parse_bytes_validates_utf8() {
        assert!(Element::parse_bytes(b"<a>ok</a>").is_ok());
        assert!(matches!(
            Element::parse_bytes(b"<a>\xC3</a>"),
            Err(XmlError::InvalidUtf8 { .. })
        ));
    }

    #[test]
    fn deep_nesting() {
        let mut s = String::new();
        let depth = 200;
        for _ in 0..depth {
            s.push_str("<d>");
        }
        s.push_str("leaf");
        for _ in 0..depth {
            s.push_str("</d>");
        }
        let doc = Element::parse_str(&s).unwrap();
        assert_eq!(doc.element_count(), depth);
    }

    fn nested(depth: usize) -> String {
        format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth))
    }

    #[test]
    fn nesting_up_to_max_depth_parses() {
        let doc = Element::parse_str(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(doc.element_count(), MAX_DEPTH);
        let leaf_at_max = format!(
            "{}<b/>{}",
            "<a>".repeat(MAX_DEPTH - 1),
            "</a>".repeat(MAX_DEPTH - 1)
        );
        assert!(Element::parse_str(&leaf_at_max).is_ok());
    }

    #[test]
    fn nesting_past_max_depth_is_an_error_not_a_stack_overflow() {
        for depth in [MAX_DEPTH + 1, 100_000] {
            match Element::parse_str(&nested(depth)) {
                Err(XmlError::Syntax { offset, message }) => {
                    assert_eq!(offset, 3 * (MAX_DEPTH + 1), "depth {depth}");
                    assert!(message.contains("nested deeper"), "{message}");
                }
                other => panic!("depth {depth}: expected a syntax error, got {other:?}"),
            }
        }
        let leaf_past_max =
            format!("{}<b/>{}", "<a>".repeat(MAX_DEPTH), "</a>".repeat(MAX_DEPTH));
        assert!(Element::parse_str(&leaf_past_max).is_err());
    }
}
