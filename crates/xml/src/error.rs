//! Error type shared by the parser, DOM and writer layers.

use std::fmt;

/// Result alias used across the crate.
pub type XmlResult<T> = Result<T, XmlError>;

/// An XML processing error.
///
/// Parse errors carry the byte offset at which the problem was detected so
/// callers (the gateway's `XML Writer` stage in the paper's terminology) can
/// report where a malformed Packed Information document broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Input ended in the middle of a construct.
    UnexpectedEof {
        /// What the parser was in the middle of reading.
        context: &'static str,
    },
    /// A syntactic violation at a byte offset.
    Syntax {
        /// Byte offset into the input where the error was detected.
        offset: usize,
        /// Human-readable description of the violation.
        message: String,
    },
    /// End tag did not match the open element.
    MismatchedTag {
        /// Byte offset of the offending end tag.
        offset: usize,
        /// Name of the element that was open.
        expected: String,
        /// Name found in the end tag.
        found: String,
    },
    /// A `&name;` entity reference that is not one of the five predefined
    /// entities and not a character reference.
    UnknownEntity {
        /// Byte offset of the `&`.
        offset: usize,
        /// The entity name as written (without `&`/`;`).
        name: String,
    },
    /// The document contained no root element.
    NoRootElement,
    /// Content found after the close of the root element.
    TrailingContent {
        /// Byte offset of the trailing content.
        offset: usize,
    },
    /// A name (element/attribute) contains a forbidden character.
    InvalidName {
        /// The offending name.
        name: String,
    },
    /// Input is not valid UTF-8.
    InvalidUtf8 {
        /// Byte offset of the first invalid byte.
        offset: usize,
    },
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while reading {context}")
            }
            XmlError::Syntax { offset, message } => {
                write!(f, "XML syntax error at byte {offset}: {message}")
            }
            XmlError::MismatchedTag { offset, expected, found } => write!(
                f,
                "mismatched end tag at byte {offset}: expected </{expected}>, found </{found}>"
            ),
            XmlError::UnknownEntity { offset, name } => {
                write!(f, "unknown entity &{name}; at byte {offset}")
            }
            XmlError::NoRootElement => write!(f, "document has no root element"),
            XmlError::TrailingContent { offset } => {
                write!(f, "content after root element at byte {offset}")
            }
            XmlError::InvalidName { name } => write!(f, "invalid XML name: {name:?}"),
            XmlError::InvalidUtf8 { offset } => {
                write!(f, "input is not valid UTF-8 at byte {offset}")
            }
        }
    }
}

impl std::error::Error for XmlError {}

/// Decoders that report errors as text can use `?` on XML results.
impl From<XmlError> for String {
    fn from(e: XmlError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = XmlError::Syntax { offset: 12, message: "expected '>'".into() };
        assert!(e.to_string().contains("byte 12"));
        assert!(e.to_string().contains("expected '>'"));

        let e = XmlError::MismatchedTag {
            offset: 3,
            expected: "pi".into(),
            found: "code".into(),
        };
        let s = e.to_string();
        assert!(s.contains("</pi>") && s.contains("</code>"));

        let e = XmlError::UnknownEntity { offset: 0, name: "nbsp".into() };
        assert!(e.to_string().contains("&nbsp;"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(XmlError::NoRootElement, XmlError::NoRootElement);
        assert_ne!(
            XmlError::NoRootElement,
            XmlError::TrailingContent { offset: 0 }
        );
    }
}
