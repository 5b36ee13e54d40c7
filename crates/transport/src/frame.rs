//! The unit of transmission: a tagged byte frame.

use std::time::Instant;

/// Frame payload storage: the bytes a send moved in, which a receive
/// moves out. One variant: the benchmark harness (`perf/`, built outside
/// the workspace) names `Payload::Owned`; once it builds with the
/// workspace this can be a plain `Vec<u8>`.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A payload owned by this frame.
    Owned(Vec<u8>),
}

impl Payload {
    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        let Payload::Owned(v) = self;
        v
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

    /// Shrink to `keep` bytes (fault-injected truncation).
    pub fn truncate(&mut self, keep: usize) {
        let Payload::Owned(v) = self;
        v.truncate(keep);
    }

    /// Surrender the bytes, without a copy.
    pub fn into_vec(self) -> Vec<u8> {
        let Payload::Owned(v) = self;
        v
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
    pub(crate) fn meta(&self) -> Frame {
        Frame {
            src: self.src,
            tag: self.tag,
            payload: Payload::Owned(Vec::new()),
            full_len: self.full_len,
            visible_at: self.visible_at,
        }
    }
}
