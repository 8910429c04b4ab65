//! # pdagent-xml
//!
//! A lightweight XML library modeled on [kXML], the J2ME pull-parser API that
//! the original PDAgent prototype used for encoding Packed Information (PI),
//! mobile-agent code and result documents.
//!
//! [kXML]: http://kxml.org
//!
//! The crate provides three layers, mirroring kXML's feature set
//! (pull parsing, a minimal DOM, and document writing):
//!
//! * [`pull`] — an event-based *pull* parser ([`pull::PullParser`]) that yields
//!   [`pull::XmlEvent`]s one at a time, borrowing from the input. This is the
//!   lowest-allocation way to consume a document and is what the higher
//!   layers are built on.
//! * [`dom`] — a small in-memory tree ([`dom::Element`]) with convenience
//!   accessors (`child`, `attr`, `text`), built from the pull parser.
//! * [`writer`] — [`writer::XmlWriter`] for producing well-formed documents,
//!   with optional pretty-printing, and the [`writer::XmlSink`] trait that
//!   lets one encoder write either text or a tree.
//! * [`reader`] — [`reader::DocReader`], which decodes typed values straight
//!   from the pull parser with the DOM's semantics, no tree built.
//!
//! The dialect supported is the subset the PDAgent wire formats need:
//! elements, attributes (single- or double-quoted), character data, CDATA
//! sections, comments, processing instructions, the XML declaration, and
//! DOCTYPE declarations (skipped, as kXML does in its "relaxed" mode).
//! The five predefined entities (`&lt; &gt; &amp; &apos; &quot;`) and numeric
//! character references (`&#NN;`, `&#xHH;`) are decoded.
//!
//! ```
//! use pdagent_xml::dom::Element;
//!
//! let doc = Element::parse_str(
//!     "<pi version=\"1\"><code id=\"ma-7\">QkFTRTY0</code></pi>").unwrap();
//! assert_eq!(doc.name(), "pi");
//! assert_eq!(doc.attr("version"), Some("1"));
//! assert_eq!(doc.child("code").unwrap().text(), "QkFTRTY0");
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
