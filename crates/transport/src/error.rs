//! Transport-level failures.

use std::fmt;

/// Failures surfaced by a [`crate::Transport`] backend. The communicator
/// layer above maps these onto its own error type.
#[derive(Debug)]
pub enum TransportError {
    /// The named rank is dead: a send to it fails fast, and every
    /// operation *by* it fails carrying its own rank.
    Dead(usize),
    /// The group was torn down while blocked (a peer panicked or the
    /// world is shutting down).
    Disconnected,
    /// The matched frame was truncated in flight: `needed` bytes
    /// advertised, only `capacity` delivered. The frame stays queued.
    Truncated {
        /// Advertised full length of the frame.
        needed: usize,
        /// Bytes actually available.
        capacity: usize,
    },
    /// An I/O failure on a wire-backed transport (socket setup, broken
    /// stream, child spawn).
    Io(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Dead(rank) => write!(f, "rank {rank} is dead"),
            TransportError::Disconnected => write!(f, "transport torn down"),
            TransportError::Truncated { needed, capacity } => {
                write!(
                    f,
                    "frame truncated: {needed} bytes advertised, {capacity} delivered"
                )
            }
            TransportError::Io(msg) => write!(f, "transport i/o error: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e.to_string())
    }
}
