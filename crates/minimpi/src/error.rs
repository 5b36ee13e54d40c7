//! Error type for message-passing operations.

use std::fmt;

/// Failures surfaced by the message-passing layer.
#[derive(Debug)]
pub enum MpiError {
    /// Destination or probed rank outside the communicator.
    InvalidRank(i32),
    /// User tags must be non-negative (negative tags are reserved for
    /// wildcards and internal collectives).
    InvalidTag(i32),
    /// A receive buffer (or in-flight payload mangled by fault injection)
    /// was smaller than the matched message (MPI_ERR_TRUNCATE).
    Truncated {
        /// Size of the matched message in bytes.
        needed: usize,
        /// Capacity of the supplied buffer.
        capacity: usize,
    },
    /// The payload failed to decode as a serialized value.
    Decode(xdrser::XdrError),
    /// The communicator was torn down while blocked (a peer panicked).
    Disconnected,
    /// The given rank is dead: either a fault plan killed it (see
    /// [`crate::FaultPlan`]) or it was administratively severed. A send
    /// to a dead rank fails fast with this error instead of queueing into
    /// a mailbox nobody will drain; every operation *by* a dead rank also
    /// fails with this error (carrying its own rank).
    Poisoned(usize),
    /// The transport backend failed below the messaging layer (an I/O
    /// error). The in-process channel backend every world runs on never
    /// produces this.
    Transport(String),
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::InvalidRank(r) => write!(f, "invalid rank {r}"),
            MpiError::InvalidTag(t) => write!(f, "invalid tag {t}"),
            MpiError::Truncated { needed, capacity } => {
                write!(
                    f,
                    "message truncated: {needed} bytes into {capacity}-byte buffer"
                )
            }
            MpiError::Decode(e) => write!(f, "object decode failed: {e}"),
            MpiError::Disconnected => write!(f, "communicator torn down"),
            MpiError::Poisoned(rank) => write!(f, "rank {rank} is dead (mailbox poisoned)"),
            MpiError::Transport(msg) => write!(f, "transport failure: {msg}"),
        }
    }
}

impl std::error::Error for MpiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpiError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<xdrser::XdrError> for MpiError {
    fn from(e: xdrser::XdrError) -> Self {
        MpiError::Decode(e)
    }
}
