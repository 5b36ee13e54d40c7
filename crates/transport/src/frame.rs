//! The unit of transmission: a tagged byte frame.

use std::sync::Arc;
use std::time::Instant;

/// Frame payload storage. Plain sends own their bytes; shared sends
/// (broadcast fan-out on an in-process backend) put one allocation behind
/// an `Arc` so every destination queues the *same* bytes instead of a
/// per-destination clone.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A payload owned by this frame.
    Owned(Vec<u8>),
    /// A payload shared with other in-flight frames (zero-copy fan-out).
    Shared(Arc<Vec<u8>>),
}

impl Payload {
    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(a) => a,
        }
    }

    /// Number of bytes actually present (may be less than the advertised
    /// [`Frame::full_len`] after an in-flight truncation).
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` when no bytes are present.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Shrink to `keep` bytes (fault-injected truncation). A shared
    /// payload degrades to an owned copy so the other destinations keep
    /// their intact bytes.
    pub fn truncate(&mut self, keep: usize) {
        match self {
            Payload::Owned(v) => v.truncate(keep),
            Payload::Shared(a) => {
                *self = Payload::Owned(a[..keep.min(a.len())].to_vec());
            }
        }
    }

    /// Surrender the bytes. Owned payloads move for free; a shared
    /// payload is reclaimed without a copy when this was the last
    /// reference (the common case for the final broadcast receiver).
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
        }
    }
}

/// One in-flight message: source, tag, payload, and fault metadata.
#[derive(Debug)]
pub struct Frame {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: i32,
    /// The payload bytes (possibly truncated in flight).
    pub payload: Payload,
    /// Advertised length: equals `payload.len()` unless the fault layer
    /// truncated the payload in flight.
    pub full_len: usize,
    /// Fault-injected delivery time; `None` = immediately visible.
    pub visible_at: Option<Instant>,
}

impl Frame {
    /// A plain frame: owned payload, advertised length = actual length,
    /// immediately visible.
    pub fn new(src: usize, tag: i32, payload: Payload) -> Self {
        let full_len = payload.len();
        Frame {
            src,
            tag,
            payload,
            full_len,
            visible_at: None,
        }
    }

    /// Whether the payload was cut short of its advertised length.
    pub fn truncated(&self) -> bool {
        self.payload.len() < self.full_len
    }

    /// Metadata-only copy: same source/tag/length, empty payload. This is
    /// what a probe returns.
    pub fn meta(&self) -> Frame {
        Frame {
            src: self.src,
            tag: self.tag,
            payload: Payload::Owned(Vec::new()),
            full_len: self.full_len,
            visible_at: self.visible_at,
        }
    }
}
