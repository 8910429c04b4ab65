//! Streaming decoding: read a document's elements straight into typed
//! values, with the same answers a walk over the [`Element`] tree of the
//! same document would give, but without building the tree.
//!
//! A decoder is handed the root start tag by [`DocReader::read_document`]
//! (or [`DocReader::read_element`], which walks an [`Element`] tree
//! instead of text). It walks child elements in document order with
//! [`DocReader::next_child`], and for each child either descends, reads its
//! text with [`DocReader::text`] or passes over it with [`DocReader::skip`];
//! the rest of the document is then checked. The reader applies the DOM's
//! rules:
//!
//! * every element is checked against [`MAX_DEPTH`], skipped ones included,
//!   so a document the DOM rejects as too deep is rejected here too;
//! * [`DocReader::text`] is [`Element::text`]: the element's own text and
//!   CDATA runs concatenated, where a whitespace-only run is dropped if (and
//!   only if) the element also has element children;
//! * comments and processing instructions are ignored, and the document as
//!   a whole must be well-formed.
//!
//! The first-of-duplicates and ignore-unknown rules of `Element::child` are
//! the decoder's to keep: it decodes the first child it wants of each name
//! and skips the rest.
//!
//! [`Element`]: crate::Element
//! [`Element::text`]: crate::Element::text
//! [`MAX_DEPTH`]: crate::dom::MAX_DEPTH

use std::borrow::Cow;

use crate::dom::{too_deep, Element, Node, MAX_DEPTH};
use crate::error::{XmlError, XmlResult};
use crate::pull::{Attributes, PullParser, XmlEvent};

/// A start tag the reader has consumed.
#[derive(Debug)]
pub struct Tag<'a> {
    /// Element name.
    pub name: &'a str,
    /// Its attributes.
    pub attributes: Attributes<'a>,
    /// Nesting depth of the element (the root is 1).
    depth: usize,
    /// True once the element's end tag has been consumed (at once for
    /// `<name/>`).
    closed: bool,
}

impl<'a> Tag<'a> {
    /// The decoded value of attribute `name`, if present.
    #[inline]
    pub fn attr(&self, name: &str) -> Option<Cow<'a, str>> {
        self.attributes.get(name)
    }

    /// The value of attribute `name`, or the error `Element::require_attr`
    /// gives.
    pub fn require_attr(&self, name: &str) -> XmlResult<Cow<'a, str>> {
        self.attr(name).ok_or_else(|| XmlError::Syntax {
            offset: 0,
            message: format!("element <{}> missing required attribute {name:?}", self.name),
        })
    }

    /// The error `Element::require_child` gives when this element has no
    /// child named `name`.
    pub fn missing_child(&self, name: &str) -> XmlError {
        XmlError::Syntax {
            offset: 0,
            message: format!("element <{}> missing required child <{name}>", self.name),
        }
    }
}

/// A pull parser, or a walk over an element tree, wrapped for decoding; see
/// the [module docs](self).
pub struct DocReader<'a> {
    source: Source<'a>,
}

/// Where a [`DocReader`]'s events come from.
enum Source<'a> {
    Text(PullParser<'a>),
    Tree(TreeEvents<'a>),
}

impl<'a> DocReader<'a> {
    /// Decode the whole document `doc`: `decode` reads the root element
    /// (its start tag given), then the rest of the document is checked.
    pub fn read_document<T, E: From<XmlError>>(
        doc: &'a str,
        decode: impl FnOnce(&mut DocReader<'a>, Tag<'a>) -> Result<T, E>,
    ) -> Result<T, E> {
        DocReader { source: Source::Text(PullParser::new(doc)) }.read(decode)
    }

    /// Decode the tree under `root` the same way: the reader sees the
    /// events the parser would report for the tree's compact text, without
    /// writing or parsing it, so one decoder serves documents and trees.
    pub fn read_element<T, E: From<XmlError>>(
        root: &'a Element,
        decode: impl FnOnce(&mut DocReader<'a>, Tag<'a>) -> Result<T, E>,
    ) -> Result<T, E> {
        let tree = TreeEvents { root: Some(root), open: Vec::new() };
        DocReader { source: Source::Tree(tree) }.read(decode)
    }

    fn read<T, E: From<XmlError>>(
        mut self,
        decode: impl FnOnce(&mut DocReader<'a>, Tag<'a>) -> Result<T, E>,
    ) -> Result<T, E> {
        let root = self.root()?;
        let value = decode(&mut self, root)?;
        self.finish()?;
        Ok(value)
    }

    /// Current element nesting depth.
    fn depth(&self) -> usize {
        match &self.source {
            Source::Text(parser) => parser.depth(),
            Source::Tree(tree) => tree.open.len(),
        }
    }

    /// The next event, with the nesting cap applied to start tags.
    fn next(&mut self) -> XmlResult<XmlEvent<'a>> {
        let (event, offset) = match &mut self.source {
            Source::Text(parser) => (parser.next_event()?, parser.offset()),
            Source::Tree(tree) => (tree.next_event(), 0),
        };
        if let XmlEvent::StartElement { self_closing, .. } = event {
            if self.depth() + usize::from(self_closing) > MAX_DEPTH {
                return Err(too_deep(offset));
            }
        }
        Ok(event)
    }

    fn tag(&self, name: &'a str, attributes: Attributes<'a>, self_closing: bool) -> Tag<'a> {
        let depth = self.depth() + usize::from(self_closing);
        Tag { name, attributes, depth, closed: self_closing }
    }

    /// Skip the prolog and return the root element's start tag.
    fn root(&mut self) -> XmlResult<Tag<'a>> {
        loop {
            match self.next()? {
                XmlEvent::Declaration { .. }
                | XmlEvent::Comment(_)
                | XmlEvent::ProcessingInstruction { .. } => continue,
                XmlEvent::StartElement { name, attributes, self_closing } => {
                    return Ok(self.tag(name, attributes, self_closing))
                }
                XmlEvent::Eof => return Err(XmlError::NoRootElement),
                XmlEvent::Text(_) | XmlEvent::CData(_) | XmlEvent::EndElement { .. } => {
                    unreachable!("parser rejects these before the root")
                }
            }
        }
    }

    /// The next child element of `parent`, or `None` once `parent`'s end
    /// tag has been consumed. Every child returned must be read to its end
    /// (by `next_child` on it returning `None`, `text` or `skip`) before
    /// the next call for `parent`.
    pub fn next_child(&mut self, parent: &mut Tag<'a>) -> XmlResult<Option<Tag<'a>>> {
        if parent.closed {
            return Ok(None);
        }
        debug_assert_eq!(self.depth(), parent.depth, "previous child not read to its end");
        loop {
            match self.next()? {
                XmlEvent::StartElement { name, attributes, self_closing } => {
                    return Ok(Some(self.tag(name, attributes, self_closing)))
                }
                XmlEvent::EndElement { .. } => {
                    parent.closed = true;
                    return Ok(None);
                }
                XmlEvent::Eof => {
                    return Err(XmlError::UnexpectedEof { context: "element content" })
                }
                _ => {}
            }
        }
    }

    /// Read `el` to its end, ignoring its content. Nesting is counted, not
    /// recursed, so a skipped subtree costs no stack.
    pub fn skip(&mut self, el: Tag<'a>) -> XmlResult<()> {
        if el.closed {
            return Ok(());
        }
        let mut open = 1usize;
        while open > 0 {
            match self.next()? {
                XmlEvent::StartElement { self_closing: false, .. } => open += 1,
                XmlEvent::EndElement { .. } => open -= 1,
                XmlEvent::Eof => {
                    return Err(XmlError::UnexpectedEof { context: "element content" })
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Read `el` to its end and return its text, as [`Element::text`] of
    /// the parsed element would: child elements are skipped, and
    /// whitespace-only runs count only if there are none.
    ///
    /// [`Element::text`]: crate::Element::text
    pub fn text(&mut self, mut el: Tag<'a>) -> XmlResult<Cow<'a, str>> {
        let mut text = Text::default();
        let mut has_child = false;
        while !el.closed {
            match self.next()? {
                XmlEvent::StartElement { name, attributes, self_closing } => {
                    has_child = true;
                    let child = self.tag(name, attributes, self_closing);
                    self.skip(child)?;
                }
                XmlEvent::EndElement { .. } => el.closed = true,
                XmlEvent::Text(run) => text.push(run),
                XmlEvent::CData(run) => text.push(Cow::Borrowed(run)),
                XmlEvent::Eof => {
                    return Err(XmlError::UnexpectedEof { context: "element content" })
                }
                _ => {}
            }
        }
        Ok(match text.kept {
            Some(kept) if has_child => kept,
            _ => text.all,
        })
    }

    /// Check the rest of the document after the root element: only
    /// comments, processing instructions and whitespace may follow.
    fn finish(&mut self) -> XmlResult<()> {
        loop {
            match self.next()? {
                XmlEvent::Eof => return Ok(()),
                XmlEvent::Comment(_) | XmlEvent::ProcessingInstruction { .. } => continue,
                _ => unreachable!("parser enforces single root"),
            }
        }
    }
}

/// The events of an element tree, in document order: what the pull parser
/// reports for the tree's compact text. An element without children is
/// reported as self-closing.
struct TreeEvents<'a> {
    /// The root, until its start tag has been reported.
    root: Option<&'a Element>,
    /// Open elements, each with its name and the index of its next child.
    open: Vec<(&'a Element, &'a str, usize)>,
}

impl<'a> TreeEvents<'a> {
    fn next_event(&mut self) -> XmlEvent<'a> {
        if let Some(root) = self.root.take() {
            return self.start(root);
        }
        let Some(&mut (el, name, ref mut next)) = self.open.last_mut() else {
            return XmlEvent::Eof;
        };
        match el.children.get(*next) {
            Some(node) => {
                *next += 1;
                match node {
                    Node::Element(child) => self.start(child),
                    Node::Text(text) => XmlEvent::Text(Cow::Borrowed(text)),
                    Node::Comment(text) => XmlEvent::Comment(text),
                }
            }
            None => {
                self.open.pop();
                XmlEvent::EndElement { name }
            }
        }
    }

    fn start(&mut self, el: &'a Element) -> XmlEvent<'a> {
        let self_closing = el.children.is_empty();
        let (name, pairs) = el.split_tag();
        if !self_closing {
            self.open.push((el, name, 0));
        }
        XmlEvent::StartElement { name, attributes: Attributes::tree(pairs), self_closing }
    }
}

/// The text runs of one element, gathered two ways: `all` takes every run,
/// `kept` leaves out whitespace-only runs. `kept` is `None` while no run has
/// been left out, i.e. while it would equal `all`.
#[derive(Default)]
struct Text<'a> {
    all: Cow<'a, str>,
    kept: Option<Cow<'a, str>>,
}

impl<'a> Text<'a> {
    fn push(&mut self, run: Cow<'a, str>) {
        if run.trim().is_empty() {
            self.kept.get_or_insert_with(|| self.all.clone());
        } else if let Some(kept) = &mut self.kept {
            append(kept, &run);
        }
        if self.all.is_empty() {
            self.all = run;
        } else {
            append(&mut self.all, &run);
        }
    }
}

fn append(acc: &mut Cow<'_, str>, run: &str) {
    if !run.is_empty() {
        acc.to_mut().push_str(run);
    }
}
