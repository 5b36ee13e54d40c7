//! Receive buffers — the paper's `mpibuf_create(elems)` objects.

/// A fixed-capacity receive buffer.
///
/// Mirrors the Nsp usage pattern of §3.2 / Fig. 4:
///
/// ```text
/// [stat]  = MPI_Probe(-1,-1,MCW)
/// [elems] = MPI_Get_elements(stat,'')
/// B = mpibuf_create(elems);            // create a receive buffer
/// stat = MPI_Recv(B, src, TAG, MCW);   // receive the packed data
/// H1 = MPI_Unpack(B, MCW);
/// ```
///
/// `Comm::recv_into` refuses to overflow the buffer (MPI truncation
/// semantics) — sizing it from a prior `probe` is the caller's job, exactly
/// as in MPI. The capacity is a limit, not an allocation: a buffer holds
/// the received message's own allocation, moved in by the receive, so a
/// script's size cannot reserve memory it never fills.
#[derive(Debug, Clone)]
pub struct MpiBuf {
    data: Vec<u8>,
    capacity: usize,
}

impl MpiBuf {
    /// `mpibuf_create(elems)`: an empty buffer able to hold `capacity`
    /// bytes. Nothing is allocated until a receive fills it.
    pub fn with_capacity(capacity: usize) -> Self {
        MpiBuf {
            data: Vec::new(),
            capacity,
        }
    }

    /// Wrap existing bytes (used by `pack`).
    pub(crate) fn from_bytes(data: Vec<u8>) -> Self {
        let capacity = data.len();
        MpiBuf { data, capacity }
    }

    /// Maximum number of bytes the buffer can hold.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of bytes currently held.
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    pub(crate) fn fill(&mut self, bytes: Vec<u8>) {
        debug_assert!(bytes.len() <= self.capacity);
        self.data = bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_capacity_is_empty() {
        let b = MpiBuf::with_capacity(128);
        assert_eq!(b.capacity(), 128);
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn capacity_is_a_limit_not_an_allocation() {
        let mut b = MpiBuf::with_capacity(usize::MAX);
        assert_eq!(b.capacity(), usize::MAX);
        assert_eq!(b.data.capacity(), 0);
        b.fill(vec![1, 2, 3]);
        assert_eq!(b.bytes(), &[1, 2, 3]);
        assert!(b.data.capacity() < 1024);
    }

    #[test]
    fn fill_replaces_contents() {
        let mut b = MpiBuf::with_capacity(8);
        b.fill(vec![1, 2, 3]);
        assert_eq!(b.bytes(), &[1, 2, 3]);
        b.fill(vec![9]);
        assert_eq!(b.bytes(), &[9]);
        assert_eq!(b.capacity(), 8);
    }

    #[test]
    fn from_bytes_capacity_matches() {
        let b = MpiBuf::from_bytes(vec![5; 10]);
        assert_eq!(b.capacity(), 10);
        assert_eq!(b.len(), 10);
    }
}
