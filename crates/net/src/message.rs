//! The message envelope: everything that crosses a link is bytes plus a kind
//! tag, mirroring the paper's wire-format discipline (XML payloads over
//! HTTP). Protocol layers serialize into [`Message::body`].
//!
//! Both fields are built for the simulator's hot path: [`Kind`] is an
//! interned `Arc<str>` (cloning a message kind is a refcount bump, and
//! repeated kinds — there are only a dozen protocol discriminators — share
//! one allocation process-wide), and the body is a [`Bytes`] buffer, so link
//! transit, retransmission queues, reply slots and trace capture all alias
//! one allocation instead of deep-copying the payload.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

use bytes::Bytes;

use crate::obs::ObsContext;

/// Fixed per-message framing overhead charged by the link model, standing in
/// for transport headers (TCP/IP + HTTP line noise).
pub const FRAME_OVERHEAD: usize = 40;

/// Process-wide intern table. Simulations only ever use a handful of kind
/// strings, so this stays tiny; the lock is taken on construction from a
/// string, never on clone/compare in the event loop.
fn intern_table() -> &'static Mutex<HashSet<Arc<str>>> {
    static TABLE: OnceLock<Mutex<HashSet<Arc<str>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashSet::new()))
}

/// An interned protocol discriminator, e.g. `"http.request"`.
///
/// Equal kinds share one allocation, so `Clone` is a refcount bump and
/// equality is usually a pointer comparison. Compares transparently against
/// `&str` and derefs to `str`.
#[derive(Debug, Clone)]
pub struct Kind(Arc<str>);

impl Kind {
    /// Intern `s`, returning the canonical shared handle for that spelling.
    pub fn intern(s: &str) -> Kind {
        let mut table = intern_table().lock().expect("kind intern table poisoned");
        if let Some(existing) = table.get(s) {
            return Kind(Arc::clone(existing));
        }
        let arc: Arc<str> = Arc::from(s);
        table.insert(Arc::clone(&arc));
        Kind(arc)
    }

    /// The kind as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Length in bytes (contributes to [`Message::wire_size`]).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty kind.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl PartialEq for Kind {
    fn eq(&self, other: &Kind) -> bool {
        // Interning makes pointer equality the common case; the slice
        // comparison only runs for kinds from different intern generations
        // (never happens with a single process-wide table, but stay correct).
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}
impl Eq for Kind {}

impl std::hash::Hash for Kind {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialEq<str> for Kind {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}
impl PartialEq<&str> for Kind {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}
impl PartialEq<Kind> for str {
    fn eq(&self, other: &Kind) -> bool {
        self == &*other.0
    }
}
impl PartialEq<Kind> for &str {
    fn eq(&self, other: &Kind) -> bool {
        *self == &*other.0
    }
}
impl PartialEq<String> for Kind {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl Deref for Kind {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Kind {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Kind {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Kind {
    fn from(s: &str) -> Kind {
        Kind::intern(s)
    }
}

impl From<&String> for Kind {
    fn from(s: &String) -> Kind {
        Kind::intern(s)
    }
}

impl From<String> for Kind {
    fn from(s: String) -> Kind {
        Kind::intern(&s)
    }
}

/// A network message.
///
/// `Clone` is cheap by construction (refcount bumps on both fields); protocol
/// layers hand the same body allocation from serialization through link
/// transit, retransmission buffers and trace capture.
#[derive(Debug, Clone, Eq)]
pub struct Message {
    /// Protocol discriminator, e.g. `"http.request"`, `"mas.transfer"`.
    pub kind: Kind,
    /// Serialized payload (shared, immutable).
    pub body: Bytes,
    /// Observability metadata (trace id + parent span). Rides in the modeled
    /// [`FRAME_OVERHEAD`] headers: a `Copy` of two integers that contributes
    /// nothing to [`Message::wire_size`], the payload serialization, or
    /// message equality — link timing and results are identical with or
    /// without tracing.
    pub obs: ObsContext,
}

/// Equality covers the wire content (kind + body); the [`ObsContext`]
/// metadata is deliberately excluded so traced and untraced runs compare
/// messages identically.
impl PartialEq for Message {
    fn eq(&self, other: &Message) -> bool {
        self.kind == other.kind && self.body == other.body
    }
}

impl Message {
    /// Construct a message (untraced; see [`Message::traced`]).
    pub fn new(kind: impl Into<Kind>, body: impl Into<Bytes>) -> Message {
        Message { kind: kind.into(), body: body.into(), obs: ObsContext::NONE }
    }

    /// A zero-payload message (probes, acks).
    pub fn signal(kind: impl Into<Kind>) -> Message {
        Message { kind: kind.into(), body: Bytes::new(), obs: ObsContext::NONE }
    }

    /// Attach observability metadata (builder-style).
    pub fn traced(mut self, obs: ObsContext) -> Message {
        self.obs = obs;
        self
    }

    /// Bytes this message occupies on the wire, including framing.
    pub fn wire_size(&self) -> usize {
        FRAME_OVERHEAD + self.kind.len() + self.body.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_includes_overhead() {
        let m = Message::new("x", vec![0u8; 100]);
        assert_eq!(m.wire_size(), FRAME_OVERHEAD + 1 + 100);
        let s = Message::signal("ping");
        assert_eq!(s.wire_size(), FRAME_OVERHEAD + 4);
        assert!(s.body.is_empty());
    }

    #[test]
    fn construction() {
        let m = Message::new(String::from("kind"), b"body".to_vec());
        assert_eq!(m.kind, "kind");
        assert_eq!(m.body, b"body"[..]);
    }

    #[test]
    fn kinds_are_interned() {
        let a = Kind::intern("mas.transfer");
        let b = Kind::from("mas.transfer");
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a.0, &b.0), "equal kinds share one allocation");
        assert_ne!(a, Kind::intern("mas.complete"));
        assert_eq!(a.as_str(), "mas.transfer");
        assert_eq!(a, "mas.transfer");
        assert_eq!("mas.transfer", a);
        assert_eq!(format!("{a}"), "mas.transfer");
    }

    #[test]
    fn obs_metadata_is_invisible_on_the_wire() {
        use crate::obs::ObsContext;
        let plain = Message::new("x", b"payload".to_vec());
        let traced = plain.clone().traced(ObsContext { trace: 7, span: 3 });
        assert_eq!(traced.obs.trace, 7);
        assert_eq!(plain.wire_size(), traced.wire_size());
        assert_eq!(plain, traced, "obs metadata must not affect equality");
        assert!(Message::signal("ack").obs.is_none());
    }

    #[test]
    fn message_clone_aliases_body() {
        let m = Message::new("bulk", vec![7u8; 1 << 16]);
        let c = m.clone();
        assert!(m.body.shares_allocation_with(&c.body), "clone must not deep-copy");
        assert_eq!(m, c);
    }
}
