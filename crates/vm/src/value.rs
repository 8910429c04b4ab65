//! The dynamic value type agents compute with, and its serialization.

use pdagent_codec::varint;
use pdagent_xml::{DocReader, Element, Tag, TreeBuilder, XmlSink};

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unit / absence.
    Nil,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer. Money in the examples is integer cents.
    Int(i64),
    /// UTF-8 string.
    Str(String),
    /// Heterogeneous list.
    List(Vec<Value>),
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueDecodeError {
    /// Byte offset of the failure.
    pub offset: usize,
}

impl std::fmt::Display for ValueDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed value encoding at byte {}", self.offset)
    }
}

impl std::error::Error for ValueDecodeError {}

/// Deepest list nesting [`Value::decode`] accepts. Decoding recurses once
/// per list level, so an unbounded depth would let a hostile agent transfer
/// (a few bytes per level) overflow the stack. The example agents nest two
/// levels at most (ebank's list of transaction lists).
pub const MAX_DEPTH: usize = 256;

/// ZigZag encoding maps signed to unsigned for varints.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// One decoded scalar, its string borrowed from the input.
pub(crate) enum Scalar<'a> {
    Nil,
    Bool(bool),
    Int(i64),
    Str(&'a str),
}

/// What the one binary value decoder, [`decode_at`], builds: a [`Value`],
/// the interpreter's shared value, or `()`, the allocation-free walk of
/// [`Value::skip`] (a `Vec<()>` never allocates).
pub(crate) trait Decode: Sized {
    fn scalar(s: Scalar<'_>) -> Self;
    fn list(items: Vec<Self>) -> Self;
}

impl Decode for Value {
    fn scalar(s: Scalar<'_>) -> Value {
        match s {
            Scalar::Nil => Value::Nil,
            Scalar::Bool(b) => Value::Bool(b),
            Scalar::Int(i) => Value::Int(i),
            Scalar::Str(s) => Value::Str(s.to_owned()),
        }
    }

    fn list(items: Vec<Value>) -> Value {
        Value::List(items)
    }
}

impl Decode for () {
    fn scalar(_: Scalar<'_>) {}

    fn list(_: Vec<()>) {}
}

/// Decode one value from `input` at `*pos`, inside `depth` enclosing lists.
pub(crate) fn decode_at<T: Decode>(
    input: &[u8],
    pos: &mut usize,
    depth: usize,
) -> Result<T, ValueDecodeError> {
    let err = |pos: usize| ValueDecodeError { offset: pos };
    let tag = *input.get(*pos).ok_or(err(*pos))?;
    *pos += 1;
    match tag {
        0 => Ok(T::scalar(Scalar::Nil)),
        1 => Ok(T::scalar(Scalar::Bool(false))),
        2 => Ok(T::scalar(Scalar::Bool(true))),
        3 => {
            let raw = varint::read_u64(input, pos).map_err(|_| err(*pos))?;
            Ok(T::scalar(Scalar::Int(unzigzag(raw))))
        }
        4 => {
            let s = varint::read_str(input, pos).map_err(|_| err(*pos))?;
            Ok(T::scalar(Scalar::Str(s)))
        }
        5 => {
            if depth == MAX_DEPTH {
                return Err(err(*pos - 1));
            }
            let len = varint::read_usize(input, pos).map_err(|_| err(*pos))?;
            // Guard absurd lengths before allocating.
            if len > input.len().saturating_sub(*pos) {
                return Err(err(*pos));
            }
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(decode_at(input, pos, depth + 1)?);
            }
            Ok(T::list(items))
        }
        _ => Err(err(*pos - 1)),
    }
}

impl Value {
    /// Truthiness: `Nil`, `false`, `0`, `""` and `[]` are false.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Nil => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Str(s) => !s.is_empty(),
            Value::List(l) => !l.is_empty(),
        }
    }

    /// Integer view, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Nil => "nil",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Str(_) => "str",
            Value::List(_) => "list",
        }
    }

    /// Append the binary encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Nil => out.push(0),
            Value::Bool(false) => out.push(1),
            Value::Bool(true) => out.push(2),
            Value::Int(i) => {
                out.push(3);
                varint::write_u64(out, zigzag(*i));
            }
            Value::Str(s) => {
                out.push(4);
                varint::write_usize(out, s.len());
                out.extend_from_slice(s.as_bytes());
            }
            Value::List(items) => {
                out.push(5);
                varint::write_usize(out, items.len());
                for item in items {
                    item.encode(out);
                }
            }
        }
    }

    /// Decode one value from `input` starting at `*pos`. Lists nested more
    /// than [`MAX_DEPTH`] deep are rejected.
    pub fn decode(input: &[u8], pos: &mut usize) -> Result<Value, ValueDecodeError> {
        decode_at(input, pos, 0)
    }

    /// Step `*pos` over one encoded value without building it: the check
    /// [`Value::decode`] makes, by the same rules (tags, varints, UTF-8,
    /// [`MAX_DEPTH`], list counts against the bytes left), allocating
    /// nothing.
    pub fn skip(input: &[u8], pos: &mut usize) -> Result<(), ValueDecodeError> {
        decode_at::<()>(input, pos, 0)
    }

    /// Render for result documents / display.
    pub fn render(&self) -> String {
        match self {
            Value::Nil => "nil".to_owned(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Str(s) => s.clone(),
            Value::List(items) => {
                let inner: Vec<String> = items.iter().map(Value::render).collect();
                format!("[{}]", inner.join(", "))
            }
        }
    }
}

impl Value {
    /// Write the typed XML form `<v t="...">...</v>` (recursive for lists)
    /// — used by the PI parameter encoding, result entries and the verbose
    /// program format. This is the one encoder of the form; a string is
    /// written as text even when empty (`<v t="str"></v>`).
    pub fn write_xml(&self, w: &mut impl XmlSink) {
        w.start("v");
        match self {
            Value::Nil => w.attr("t", "nil"),
            Value::Bool(b) => {
                w.attr("t", "bool");
                w.text(if *b { "true" } else { "false" });
            }
            Value::Int(i) => {
                w.attr("t", "int");
                w.text_int(*i);
            }
            Value::Str(s) => {
                w.attr("t", "str");
                w.text(s);
            }
            Value::List(items) => {
                w.attr("t", "list");
                for item in items {
                    item.write_xml(w);
                }
            }
        }
        w.end();
    }

    /// Read the typed XML form: `tag` is the element's start tag, and the
    /// element is read to its end. This is the one decoder of the form.
    /// List nesting is bounded by the reader's depth cap.
    pub fn read_xml<'a>(r: &mut DocReader<'a>, mut tag: Tag<'a>) -> Result<Value, String> {
        if tag.name != "v" {
            return Err(format!("expected <v>, found <{}>", tag.name));
        }
        let t = tag.attr("t").ok_or("missing t attribute")?;
        match &*t {
            "nil" => {
                r.skip(tag)?;
                Ok(Value::Nil)
            }
            "bool" => match &*r.text(tag)? {
                "true" => Ok(Value::Bool(true)),
                "false" => Ok(Value::Bool(false)),
                other => Err(format!("bad bool {other:?}")),
            },
            "int" => {
                r.text(tag)?.parse::<i64>().map(Value::Int).map_err(|e| format!("bad int: {e}"))
            }
            "str" => Ok(Value::Str(r.text(tag)?.into_owned())),
            "list" => {
                let mut items = Vec::new();
                while let Some(child) = r.next_child(&mut tag)? {
                    items.push(Value::read_xml(r, child)?);
                }
                Ok(Value::List(items))
            }
            other => Err(format!("unknown value type {other:?}")),
        }
    }

    /// The typed XML form as an [`Element`], built by [`Value::write_xml`].
    pub fn to_xml(&self) -> Element {
        let mut tree = TreeBuilder::default();
        self.write_xml(&mut tree);
        tree.finish()
    }

    /// Parse the typed XML form from an [`Element`], walking it with
    /// [`Value::read_xml`].
    pub fn from_xml(el: &Element) -> Result<Value, String> {
        DocReader::read_element(el, Value::read_xml)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut pos = 0;
        let back = Value::decode(&buf, &mut pos).unwrap();
        assert_eq!(&back, v);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(&Value::Nil);
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Bool(false));
        roundtrip(&Value::Int(0));
        roundtrip(&Value::Int(-1));
        roundtrip(&Value::Int(i64::MAX));
        roundtrip(&Value::Int(i64::MIN));
        roundtrip(&Value::Str(String::new()));
        roundtrip(&Value::Str("héllo 中文".into()));
        roundtrip(&Value::List(vec![]));
        roundtrip(&Value::List(vec![
            Value::Int(1),
            Value::Str("two".into()),
            Value::List(vec![Value::Bool(true), Value::Nil]),
        ]));
    }

    #[test]
    fn zigzag_examples() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [0i64, 1, -1, 1000, -1000, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Nil.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(!Value::List(vec![]).truthy());
        assert!(Value::Bool(true).truthy());
        assert!(Value::Int(-5).truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(Value::List(vec![Value::Nil]).truthy());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Value::decode(&[], &mut 0).is_err());
        assert!(Value::decode(&[99], &mut 0).is_err());
        // Str claims 100 bytes but only 2 follow.
        assert!(Value::decode(&[4, 100, b'a', b'b'], &mut 0).is_err());
        // List claims huge length.
        assert!(Value::decode(&[5, 0xff, 0xff, 0x7f], &mut 0).is_err());
        // Invalid UTF-8 payload.
        assert!(Value::decode(&[4, 1, 0xff], &mut 0).is_err());
    }

    fn nested(depth: usize) -> Value {
        (0..depth).fold(Value::Nil, |inner, _| Value::List(vec![inner]))
    }

    fn encoded(v: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        v.encode(&mut out);
        out
    }

    #[test]
    fn max_depth_value_round_trips() {
        let v = nested(MAX_DEPTH);
        let bytes = encoded(&v);
        let mut pos = 0;
        assert_eq!(Value::decode(&bytes, &mut pos).unwrap(), v);
        assert_eq!(pos, bytes.len());
    }

    #[test]
    fn nesting_past_max_depth_is_an_error_not_a_stack_overflow() {
        let bytes = encoded(&nested(MAX_DEPTH + 1));
        assert_eq!(
            Value::decode(&bytes, &mut 0),
            Err(ValueDecodeError { offset: 2 * MAX_DEPTH })
        );
        // 200k one-item lists: two bytes a level, then a nil.
        let mut hostile = [5u8, 1].repeat(200_000);
        hostile.push(0);
        assert!(Value::decode(&hostile, &mut 0).is_err());
    }

    #[test]
    fn bad_string_field_reports_the_offset_after_its_length_prefix() {
        // A string inside a one-item list: tag 5, length 1, then tag 4,
        // length 2 at byte 3, and a non-UTF-8 field at byte 4.
        let bytes = [5, 1, 4, 2, 0xff, 0xfe];
        assert_eq!(Value::decode(&bytes, &mut 0), Err(ValueDecodeError { offset: 4 }));
        // The same offset when the field runs past the end.
        assert_eq!(Value::decode(&bytes[..5], &mut 0), Err(ValueDecodeError { offset: 4 }));
    }

    #[test]
    fn render_forms() {
        assert_eq!(Value::Int(42).render(), "42");
        assert_eq!(Value::Str("hi".into()).render(), "hi");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Str("a".into())]).render(),
            "[1, a]"
        );
        assert_eq!(Value::Nil.to_string(), "nil");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn sequential_decode() {
        let mut buf = Vec::new();
        Value::Int(1).encode(&mut buf);
        Value::Str("x".into()).encode(&mut buf);
        let mut pos = 0;
        assert_eq!(Value::decode(&buf, &mut pos).unwrap(), Value::Int(1));
        assert_eq!(Value::decode(&buf, &mut pos).unwrap(), Value::Str("x".into()));
        assert_eq!(pos, buf.len());
    }
}
