//! # pdagent-xml
//!
//! A lightweight XML library modeled on [kXML], the J2ME pull-parser API that
//! the original PDAgent prototype used for encoding Packed Information (PI),
//! mobile-agent code and result documents.
//!
//! [kXML]: http://kxml.org
//!
//! The platform has one XML encoder and one decoder, both over text:
//!
//! * [`pull`] — an event-based *pull* parser ([`pull::PullParser`]) that yields
//!   [`pull::XmlEvent`]s one at a time, borrowing from the input, as kXML's
//!   does.
//! * [`reader`] — [`reader::DocReader`], which decodes typed values straight
//!   from the pull parser: every format's decoder is one event loop over it.
//! * [`writer`] — [`writer::XmlWriter`] for producing well-formed documents,
//!   with optional pretty-printing, behind the [`writer::XmlSink`] trait
//!   every format's encoder writes into.
//! * [`dom`] — a small in-memory tree ([`dom::Element`]) with convenience
//!   accessors (`child`, `attr`, `text`). No platform code uses it: it is the
//!   reference type of the test oracles, and [`dom::TreeBuilder`] (an
//!   `XmlSink`) builds the trees pdbench's traced replay checks.
//!
//! The dialect supported is the subset the PDAgent wire formats need:
//! elements, attributes (single- or double-quoted), character data, CDATA
//! sections, comments, processing instructions, the XML declaration, and
//! DOCTYPE declarations (skipped, as kXML does in its "relaxed" mode).
//! The five predefined entities (`&lt; &gt; &amp; &apos; &quot;`) and numeric
//! character references (`&#NN;`, `&#xHH;`) are decoded.
//!
//! ```
//! use pdagent_xml::{DocReader, XmlError, XmlWriter};
//!
//! let mut w = XmlWriter::compact();
//! w.start("pi");
//! w.attr("version", "1");
//! w.start("code");
//! w.attr("id", "ma-7");
//! w.text("QkFTRTY0");
//! w.end();
//! w.end();
//! let doc = w.finish();
//! let code = DocReader::read_document(&doc, |r, mut pi| {
//!     assert_eq!(pi.attr("version").as_deref(), Some("1"));
//!     let code = r.next_child(&mut pi)?.expect("a child");
//!     assert_eq!(code.attr("id").as_deref(), Some("ma-7"));
//!     let text = r.text(code)?.into_owned();
//!     assert!(r.next_child(&mut pi)?.is_none());
//!     Ok::<_, XmlError>(text)
//! });
//! assert_eq!(code.unwrap(), "QkFTRTY0");
//! ```

pub mod dom;
pub mod error;
pub mod escape;
#[cfg(test)]
mod oracle;
pub mod pull;
pub mod reader;
pub mod writer;

pub use dom::{Element, TreeBuilder};
pub use error::{XmlError, XmlResult};
pub use pull::{PullParser, XmlEvent};
pub use reader::{DocReader, Tag};
pub use writer::{XmlSink, XmlWriter};
