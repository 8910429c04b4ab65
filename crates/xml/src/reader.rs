//! Streaming decoding: read a document's elements straight into typed
//! values, as the pull parser reports them, without building a tree. This
//! is the one XML decoder of the platform (kXML, which the paper's handheld
//! used, is a pull parser too).
//!
//! A decoder is handed the root start tag by [`DocReader::read_document`].
//! It walks child elements in document order with
//! [`DocReader::next_child`], and for each child either descends, reads its
//! text with [`DocReader::text`] or passes over it with [`DocReader::skip`];
//! the rest of the document is then checked. The reader's rules:
//!
//! * every element is checked against [`MAX_DEPTH`], skipped ones included;
//! * [`DocReader::text`] is the element's own text and CDATA runs
//!   concatenated, where a whitespace-only run is dropped if (and only if)
//!   the element also has element children, so indentation is not data;
//! * comments and processing instructions are ignored, and the document as
//!   a whole must be well-formed.
//!
//! A decoder keeps the first child it wants of each name and skips the
//! rest, as `Element::child` does; the test oracles hold every decoder to
//! the element tree's answers.

use std::borrow::Cow;

use crate::error::{XmlError, XmlResult};
use crate::pull::{Attributes, PullParser, XmlEvent};

/// Deepest element nesting a document may have (the root is depth 1).
/// Decoders recurse once per element they descend into, so an unbounded
/// depth would let a few KB of hostile input (a Packed Information document
/// compresses `<a><a><a>…` to almost nothing) overflow the stack. Real
/// PDAgent documents nest a handful of levels.
pub const MAX_DEPTH: usize = 256;

/// The error for an element nested deeper than [`MAX_DEPTH`], detected at
/// `offset` (just past its start tag).
pub(crate) fn too_deep(offset: usize) -> XmlError {
    XmlError::Syntax { offset, message: format!("elements nested deeper than {MAX_DEPTH}") }
}

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

    /// The value of attribute `name`, or an error naming the element and
    /// the attribute.
    pub fn require_attr(&self, name: &str) -> XmlResult<Cow<'a, str>> {
        self.attr(name).ok_or_else(|| XmlError::Syntax {
            offset: 0,
            message: format!("element <{}> missing required attribute {name:?}", self.name),
        })
    }

    /// The error for this element having no child named `name`.
    pub fn missing_child(&self, name: &str) -> XmlError {
        XmlError::Syntax {
            offset: 0,
            message: format!("element <{}> missing required child <{name}>", self.name),
        }
    }
}

/// A pull parser wrapped for decoding; see the [module docs](self).
pub struct DocReader<'a> {
    parser: PullParser<'a>,
}

impl<'a> DocReader<'a> {
    /// Decode the whole document `doc`: `decode` reads the root element
    /// (its start tag given), then the rest of the document is checked.
    pub fn read_document<T, E: From<XmlError>>(
        doc: &'a str,
        decode: impl FnOnce(&mut DocReader<'a>, Tag<'a>) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut reader = DocReader { parser: PullParser::new(doc) };
        let root = reader.root()?;
        let value = decode(&mut reader, root)?;
        reader.finish()?;
        Ok(value)
    }

    /// The root element's start tag of `doc`, read without the rest of the
    /// document: what a caller learns from its name and attributes alone,
    /// not whether the document is well-formed past them.
    pub fn read_root(doc: &'a str) -> XmlResult<Tag<'a>> {
        DocReader { parser: PullParser::new(doc) }.root()
    }

    /// The next event, with the nesting cap applied to start tags.
    fn next(&mut self) -> XmlResult<XmlEvent<'a>> {
        let event = self.parser.next_event()?;
        if let XmlEvent::StartElement { self_closing, .. } = event {
            if self.parser.depth() + usize::from(self_closing) > MAX_DEPTH {
                return Err(too_deep(self.parser.offset()));
            }
        }
        Ok(event)
    }

    fn tag(&self, name: &'a str, attributes: Attributes<'a>, self_closing: bool) -> Tag<'a> {
        let depth = self.parser.depth() + usize::from(self_closing);
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
        debug_assert_eq!(self.parser.depth(), parent.depth, "previous child not read to its end");
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

    /// Read `el` to its end and return its text: child elements are
    /// skipped, and whitespace-only runs count only if there are none.
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
