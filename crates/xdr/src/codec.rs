//! XDR primitive codec (RFC 4506 conventions): big-endian integers, IEEE-754
//! doubles, and length-prefixed opaques padded to 4-byte boundaries.
//!
//! All multi-byte quantities are written most-significant byte first so the
//! encoding is identical on any host — that is the property the paper
//! relies on XDR for ("a format which is independent of the computer
//! architecture").

use crate::error::XdrError;

/// Streaming XDR encoder into a growable byte buffer.
#[derive(Debug, Default)]
pub struct XdrWriter {
    buf: Vec<u8>,
}

impl XdrWriter {
    /// Construct with validation; panics on invalid parameters.
    pub fn new() -> Self {
        XdrWriter { buf: Vec::new() }
    }

    /// An empty buffer with the given capacity.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        XdrWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Recycle an existing vector as the output buffer: the contents are
    /// cleared, the allocation is kept. This is how hot encode loops
    /// (e.g. a farm slave packing one result message per job) stay
    /// allocation-free in steady state.
    pub(crate) fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        XdrWriter { buf }
    }

    /// Consume into the raw byte vector.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of contained elements.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Append a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian IEEE-754 double.
    pub(crate) fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    /// Overwrite the big-endian u32 written at byte offset `at` — how a
    /// count that is only known after its items is filled in.
    pub(crate) fn set_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_be_bytes());
    }

    /// The bytes written so far, for a payload to be appended in place
    /// (read straight into the message). The caller restores XDR
    /// alignment.
    pub(crate) fn buf_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Append an XDR boolean (4-byte 0/1).
    pub(crate) fn put_bool(&mut self, v: bool) {
        // XDR booleans are 4-byte integers 0/1.
        self.put_u32(v as u32);
    }

    /// Variable-length opaque: 4-byte length, payload, zero padding to a
    /// 4-byte boundary.
    pub(crate) fn put_opaque(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
        self.pad(bytes.len());
    }

    /// Zero padding after an opaque of `len` bytes, to a 4-byte boundary.
    pub(crate) fn pad(&mut self, len: usize) {
        let pad = (4 - len % 4) % 4;
        self.buf.extend(std::iter::repeat_n(0u8, pad));
    }

    /// XDR string: same wire format as opaque, UTF-8 payload.
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque(s.as_bytes());
    }
}

/// Streaming XDR decoder over a byte slice.
#[derive(Debug)]
pub(crate) struct XdrReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> XdrReader<'a> {
    /// Construct with validation; panics on invalid parameters.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        XdrReader { buf, pos: 0 }
    }

    /// The bytes not read yet.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        if self.rest().len() < n {
            return Err(XdrError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a big-endian u32.
    pub(crate) fn get_u32(&mut self) -> Result<u32, XdrError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read an XDR boolean.
    pub(crate) fn get_bool(&mut self) -> Result<bool, XdrError> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(XdrError::Corrupt(format!("bad boolean {other}"))),
        }
    }

    /// Read a length-prefixed padded opaque.
    pub(crate) fn get_opaque(&mut self) -> Result<&'a [u8], XdrError> {
        let len = self.get_u32()? as usize;
        let payload = self.take(len)?;
        let pad = (4 - len % 4) % 4;
        self.take(pad)?;
        Ok(payload)
    }

    /// Read an XDR string (UTF-8 opaque) borrowed from the buffer.
    pub(crate) fn get_str(&mut self) -> Result<&'a str, XdrError> {
        let bytes = self.get_opaque()?;
        // Keys and names are short and ASCII: one pass over the bytes,
        // where the general validator decodes sequence by sequence.
        if bytes.is_ascii() {
            // SAFETY: every byte is below 0x80, and each such byte is a
            // complete one-byte UTF-8 sequence.
            return Ok(unsafe { std::str::from_utf8_unchecked(bytes) });
        }
        std::str::from_utf8(bytes).map_err(|_| XdrError::Corrupt("invalid UTF-8 in string".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl XdrWriter {
        /// Append a big-endian u64.
        fn put_u64(&mut self, v: u64) {
            self.buf.extend_from_slice(&v.to_be_bytes());
        }
    }

    // Values are read by `Walker` (a real matrix's entries in place); the
    // round trips read them back one at a time.
    impl XdrReader<'_> {
        fn get_u64(&mut self) -> Result<u64, XdrError> {
            Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
        }

        fn get_f64(&mut self) -> Result<f64, XdrError> {
            Ok(f64::from_bits(self.get_u64()?))
        }

        fn get_string(&mut self) -> Result<String, XdrError> {
            self.get_str().map(str::to_owned)
        }
    }

    #[test]
    fn integers_round_trip_big_endian() {
        let mut w = XdrWriter::new();
        w.put_u32(0xDEADBEEF);
        w.put_u64(0x0123456789ABCDEF);
        let bytes = w.into_bytes();
        // Check big-endian layout of the first word.
        assert_eq!(&bytes[..4], &[0xDE, 0xAD, 0xBE, 0xEF]);
        let mut r = XdrReader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123456789ABCDEF);
        assert!(r.rest().is_empty());
    }

    #[test]
    fn doubles_round_trip_exactly() {
        let vals = [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            -123.456e-78,
            f64::INFINITY,
        ];
        let mut w = XdrWriter::new();
        for &v in &vals {
            w.put_f64(v);
        }
        let bytes = w.into_bytes();
        let mut r = XdrReader::new(&bytes);
        for &v in &vals {
            assert_eq!(r.get_f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let mut w = XdrWriter::new();
        w.put_f64(f64::NAN);
        let mut r = XdrReader::new(w.buf.as_slice());
        assert!(r.get_f64().unwrap().is_nan());
    }

    #[test]
    fn opaque_padding_to_four_bytes() {
        for len in 0..9 {
            let payload: Vec<u8> = (0..len as u8).collect();
            let mut w = XdrWriter::new();
            w.put_opaque(&payload);
            assert_eq!(w.len() % 4, 0, "len {len} not aligned");
            let bytes = w.into_bytes();
            let mut r = XdrReader::new(&bytes);
            assert_eq!(r.get_opaque().unwrap(), payload.as_slice());
            assert!(r.rest().is_empty());
        }
    }

    #[test]
    fn strings_round_trip_utf8() {
        let mut w = XdrWriter::new();
        w.put_string("héllo wörld ∂");
        w.put_string("");
        let bytes = w.into_bytes();
        let mut r = XdrReader::new(&bytes);
        assert_eq!(r.get_string().unwrap(), "héllo wörld ∂");
        assert_eq!(r.get_string().unwrap(), "");
    }

    #[test]
    fn ascii_fast_path_stops_exactly_at_0x80() {
        let read = |payload: &[u8]| {
            let mut w = XdrWriter::new();
            w.put_opaque(payload);
            let bytes = w.into_bytes();
            XdrReader::new(&bytes).get_str().map(str::to_owned)
        };
        // Short and long, so a word-at-a-time scan sees the byte in its
        // head, its body and its tail.
        for len in [1usize, 3, 8, 9, 16, 31, 64, 200] {
            for at in [0, len / 2, len - 1] {
                let mut payload = vec![b'a'; len];
                payload[at] = 0x7F;
                let want = String::from_utf8(payload.clone()).unwrap();
                assert_eq!(read(&payload).unwrap(), want, "0x7F at {at} of {len}");
                // 0x80 is a continuation byte with nothing to continue.
                payload[at] = 0x80;
                assert!(
                    matches!(read(&payload), Err(XdrError::Corrupt(_))),
                    "0x80 at {at} of {len}"
                );
                // Non-ASCII but valid: the general validator's call.
                if at + 1 < len {
                    payload[at..at + 2].copy_from_slice("é".as_bytes());
                    let want = String::from_utf8(payload.clone()).unwrap();
                    assert_eq!(read(&payload).unwrap(), want, "é at {at} of {len}");
                }
            }
        }
        assert_eq!(read(&[]).unwrap(), "");
    }

    #[test]
    fn bool_encoding() {
        let mut w = XdrWriter::new();
        w.put_bool(true);
        w.put_bool(false);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0, 0, 0, 1, 0, 0, 0, 0]);
        let mut r = XdrReader::new(&bytes);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let bytes = 7u32.to_be_bytes();
        let mut r = XdrReader::new(&bytes);
        assert!(matches!(r.get_bool(), Err(XdrError::Corrupt(_))));
    }

    #[test]
    fn truncated_read_is_eof() {
        let mut w = XdrWriter::new();
        w.put_f64(1.0);
        let bytes = w.into_bytes();
        let mut r = XdrReader::new(&bytes[..5]);
        assert!(matches!(r.get_f64(), Err(XdrError::UnexpectedEof)));
    }
}
