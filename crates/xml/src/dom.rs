//! A minimal DOM built on top of the pull parser.
//!
//! [`Element`] is an owned tree node; it is what the PDAgent wire formats
//! (Packed Information, agent code documents, result documents) are built
//! from and serialized to.

use crate::error::{XmlError, XmlResult};
use crate::pull::{PullParser, XmlEvent};
use crate::writer::XmlWriter;

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

/// An XML element: name, attributes, children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    name: String,
    attributes: Vec<(String, String)>,
    children: Vec<Node>,
}

impl Element {
    /// Create an empty element.
    pub fn new(name: impl Into<String>) -> Self {
        Element { name: name.into(), attributes: Vec::new(), children: Vec::new() }
    }

    /// Builder-style: add an attribute.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
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
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All attributes in document order.
    pub fn attrs(&self) -> &[(String, String)] {
        &self.attributes
    }

    /// Look up an attribute value.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Look up an attribute, erroring with a descriptive message if missing.
    /// Convenience for wire-format decoding.
    pub fn require_attr(&self, name: &str) -> XmlResult<&str> {
        self.attr(name).ok_or_else(|| XmlError::Syntax {
            offset: 0,
            message: format!("element <{}> missing required attribute {name:?}", self.name),
        })
    }

    /// Set (insert or replace) an attribute.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attributes.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.attributes.push((name, value));
        }
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
        self.children().find(|e| e.name == name)
    }

    /// First child element with the given name, or a descriptive error.
    pub fn require_child(&self, name: &str) -> XmlResult<&Element> {
        self.child(name).ok_or_else(|| XmlError::Syntax {
            offset: 0,
            message: format!("element <{}> missing required child <{name}>", self.name),
        })
    }

    /// All child elements with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> {
        self.children().filter(move |e| e.name == name)
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
                    let mut root = Element::new(name);
                    root.attributes =
                        attributes.into_iter().map(|a| (a.name, a.value)).collect();
                    if !self_closing {
                        Self::fill(&mut root, parser, 1)?;
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
                    root.normalize_whitespace();
                    return Ok(root);
                }
                XmlEvent::Eof => return Err(XmlError::NoRootElement),
                XmlEvent::Text(_) | XmlEvent::CData(_) | XmlEvent::EndElement { .. } => {
                    unreachable!("parser rejects these before the root")
                }
            }
        }
    }

    /// Read `parent`'s content up to its end tag; `depth` is `parent`'s
    /// nesting depth.
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
                    let mut el = Element::new(name);
                    el.attributes =
                        attributes.into_iter().map(|a| (a.name, a.value)).collect();
                    if !self_closing {
                        Self::fill(&mut el, parser, depth + 1)?;
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

    /// Drop whitespace-only text children of elements that also have element
    /// children (i.e. indentation), recursively; merge adjacent text runs.
    fn normalize_whitespace(&mut self) {
        let has_element_child =
            self.children.iter().any(|n| matches!(n, Node::Element(_)));
        if has_element_child {
            self.children.retain(|n| match n {
                Node::Text(t) => !t.trim().is_empty(),
                _ => true,
            });
        }
        // Merge adjacent text runs (CDATA + text, or text split by comments removal).
        let mut merged: Vec<Node> = Vec::with_capacity(self.children.len());
        for node in self.children.drain(..) {
            match (merged.last_mut(), node) {
                (Some(Node::Text(prev)), Node::Text(next)) => prev.push_str(&next),
                (_, node) => merged.push(node),
            }
        }
        self.children = merged;
        for node in &mut self.children {
            if let Node::Element(e) = node {
                e.normalize_whitespace();
            }
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
        w.start(&self.name);
        for (k, v) in &self.attributes {
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
        assert_eq!(el.attrs().len(), 1);
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
