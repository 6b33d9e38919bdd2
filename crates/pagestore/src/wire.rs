//! The workspace's one byte codec: payload [`Writer`]/[`Reader`] and
//! length-prefixed [`Framing`], shared by the `rqld` client protocol and
//! the `rql-repl` replication stream.
//!
//! A frame is `[u32 len][u8 op][payload][u64 fnv1a]` where `len` counts
//! everything after itself and the checksum — present only when the
//! [`Framing`] asks for it — covers the op byte and the payload. Every
//! multi-byte integer, the length prefix included, is little-endian,
//! matching the store's on-disk logs. A flag is one byte, 0 or 1; an
//! optional field is a flag followed, when 1, by the field; a list is a
//! `u32` count followed by its elements.
//!
//! Both directions treat the peer as hostile: a length prefix is
//! checked against the caller's bound before anything is allocated, the
//! receive buffer grows with the bytes that actually arrive, an element
//! count is refused unless the bytes behind it could hold that many
//! elements, and a decode ends in [`Reader::done`] so a payload is
//! exactly its fields — no field is ever inferred from what is left.

use std::fmt;
use std::io::{self, Read, Write};

use crate::page::{fnv1a, fnv1a_extend};

/// Framing or payload decode failure.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/file error (a stream that ends mid-frame is
    /// `UnexpectedEof`).
    Io(io::Error),
    /// The payload ended before a field was complete, or an element
    /// count promised more than the remaining bytes can hold.
    Truncated,
    /// This many bytes were left after the last field.
    Trailing(usize),
    /// Unknown opcode, value tag or flag byte.
    BadTag(u8),
    /// A string field was not UTF-8.
    BadUtf8,
    /// The declared frame length is outside what the [`Framing`] allows.
    BadLength(u64),
    /// The frame's checksum does not match its contents.
    BadChecksum,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Truncated => write!(f, "truncated frame payload"),
            WireError::Trailing(n) => write!(f, "{n} trailing byte(s) in frame payload"),
            WireError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::BadLength(n) => write!(f, "bad frame length {n}"),
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Result alias for codec operations.
pub type Result<T> = std::result::Result<T, WireError>;

/// Append-only payload builder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Append a flag byte.
    pub fn flag(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Append an optional field: its presence flag, then `put` writes
    /// the field when there is one.
    pub fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.flag(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
    }

    /// Append an element count (read back with [`Reader::count`]). A
    /// count past `u32::MAX` saturates; its payload is then far over
    /// every frame bound and [`Framing::write_frame`] refuses it.
    fn count(&mut self, n: usize) {
        self.u32(u32::try_from(n).unwrap_or(u32::MAX));
    }

    /// Append a list: its count, then `put` writes each element.
    pub fn list<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.count(items.len());
        for item in items {
            put(self, item);
        }
    }

    /// Append a fixed-size field as is, with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.count(bytes.len());
        self.raw(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Bounds-checked cursor over a received payload.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wrap a payload.
    pub fn new(payload: &'a [u8]) -> Self {
        Reader { rest: payload }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes as a fixed-size field.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a flag byte; anything but 0 or 1 is an error.
    pub fn flag(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Read an optional field: its presence flag, then `get` reads the
    /// field when the flag says there is one.
    pub fn opt<T>(&mut self, get: impl FnOnce(&mut Self) -> Result<T>) -> Result<Option<T>> {
        self.flag()?.then(|| get(self)).transpose()
    }

    /// Read an element count, refusing one the remaining bytes cannot
    /// hold at `min_elem_bytes` (≥ 1) per element — so a collection
    /// sized by the result is bounded by the payload that carries it.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.rest.len() / min_elem_bytes.max(1) {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Read a list: its count — checked, as by [`Reader::count`],
    /// against the smallest encoding of one element — then `get` reads
    /// each element.
    pub fn list<T>(
        &mut self,
        min_elem_bytes: usize,
        mut get: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.count(min_elem_bytes)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(get(self)?);
        }
        Ok(items)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// End of decode: the payload must be used up.
    pub fn done(self) -> Result<()> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

/// Length prefix plus op byte: what [`Framing::read_frame`] reads
/// before it knows anything about the frame.
const HEADER: usize = 5;
/// Bytes of the optional checksum trailer.
const CHECKSUM: usize = 8;
/// The receive buffer starts no larger than this however long the
/// frame claims to be, and grows only as bytes arrive.
const FIRST_READ: usize = 64 << 10;

/// How one protocol frames its messages.
#[derive(Debug, Clone, Copy)]
pub struct Framing {
    /// Largest accepted `len` (op + payload + checksum); a longer prefix
    /// is a corrupt or hostile stream, not a real frame.
    pub max_len: u32,
    /// Append and verify an FNV-1a trailer over op + payload.
    pub checksum: bool,
}

impl Framing {
    fn overhead(&self) -> usize {
        1 + if self.checksum { CHECKSUM } else { 0 }
    }

    /// Write one frame with a single `write_all`; returns the bytes put
    /// on the wire.
    pub fn write_frame(&self, w: &mut impl Write, op: u8, payload: &[u8]) -> Result<u64> {
        let len = payload.len() + self.overhead();
        if len > self.max_len as usize {
            return Err(WireError::BadLength(len as u64));
        }
        let mut buf = Vec::with_capacity(4 + len);
        buf.extend_from_slice(&(len as u32).to_le_bytes());
        buf.push(op);
        buf.extend_from_slice(payload);
        if self.checksum {
            let sum = fnv1a(&buf[4..]);
            buf.extend_from_slice(&sum.to_le_bytes());
        }
        w.write_all(&buf)?;
        w.flush()?;
        Ok(buf.len() as u64)
    }

    /// Read one frame; returns `(op, payload, bytes taken off the wire)`.
    pub fn read_frame(&self, r: &mut impl Read) -> Result<(u8, Vec<u8>, u64)> {
        let mut header = [0u8; HEADER];
        r.read_exact(&mut header)?;
        let [l0, l1, l2, l3, op] = header;
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        if len > self.max_len || (len as usize) < self.overhead() {
            return Err(WireError::BadLength(u64::from(len)));
        }
        let body = len as usize - 1;
        let mut payload = Vec::with_capacity(body.min(FIRST_READ));
        if r.by_ref().take(body as u64).read_to_end(&mut payload)? < body {
            return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
        }
        if self.checksum {
            let (data, stored) = payload.split_at(body - CHECKSUM);
            if stored != fnv1a_extend(fnv1a(&[op]), data).to_le_bytes() {
                return Err(WireError::BadChecksum);
            }
            payload.truncate(body - CHECKSUM);
        }
        Ok((op, payload, 4 + u64::from(len)))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use proptest::test_runner::TestRng;

    const PLAIN: Framing = Framing {
        max_len: 1 << 20,
        checksum: false,
    };
    const SUMMED: Framing = Framing {
        max_len: 1 << 20,
        checksum: true,
    };

    #[test]
    fn fields_round_trip_and_done_refuses_leftovers() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.raw(&[9; 16]);
        w.flag(true);
        w.opt(Some(5u32), Writer::u32);
        w.opt(None, Writer::u32);
        w.bytes(b"\x00\xff");
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.array::<16>().unwrap(), [9; 16]);
        assert!(r.flag().unwrap());
        assert_eq!(r.opt(Reader::u32).unwrap(), Some(5));
        assert_eq!(r.opt(Reader::u32).unwrap(), None);
        assert_eq!(r.bytes().unwrap(), b"\x00\xff");
        assert_eq!(r.str().unwrap(), "héllo");
        r.done().unwrap();

        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        assert!(matches!(r.done(), Err(WireError::Trailing(n)) if n == bytes.len() - 1));
        assert!(matches!(
            Reader::new(&[1, 2, 3]).u32(),
            Err(WireError::Truncated)
        ));
        assert!(matches!(
            Reader::new(&[2]).flag(),
            Err(WireError::BadTag(2))
        ));
        let mut w = Writer::new();
        w.bytes(&[0xff, 0xfe]);
        assert!(matches!(
            Reader::new(&w.into_bytes()).str(),
            Err(WireError::BadUtf8)
        ));
    }

    #[test]
    fn count_refuses_what_the_payload_cannot_hold() {
        // 12 bytes claiming u32::MAX elements: refused before anything
        // is sized by it.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        w.u64(0);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).count(1),
            Err(WireError::Truncated)
        ));
        // Eight bytes remain: two 4-byte elements fit, three do not.
        for (claimed, ok) in [(2u32, true), (3, false)] {
            let mut w = Writer::new();
            w.u32(claimed);
            w.u64(0);
            let bytes = w.into_bytes();
            assert_eq!(Reader::new(&bytes).count(4).is_ok(), ok, "{claimed}");
        }
        assert_eq!(Reader::new(&0u32.to_le_bytes()).count(4).unwrap(), 0);

        let mut w = Writer::new();
        w.list(&[7u64, 8], |w, v| w.u64(*v));
        let mut bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).list(8, Reader::u64).unwrap(), [7, 8]);
        bytes[0] = 3;
        assert!(matches!(
            Reader::new(&bytes).list(8, Reader::u64),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn frames_round_trip_and_report_the_bytes_moved() {
        for framing in [PLAIN, SUMMED] {
            for payload in [&b""[..], b"x", &[0xAB; 70_000]] {
                let mut buf = Vec::new();
                let wrote = framing.write_frame(&mut buf, 0x42, payload).unwrap();
                assert_eq!(wrote, buf.len() as u64);
                buf.extend_from_slice(b"next frame");
                let mut stream = buf.as_slice();
                let (op, got, read) = framing.read_frame(&mut stream).unwrap();
                assert_eq!((op, got.as_slice(), read), (0x42, payload, wrote));
                assert_eq!(stream, b"next frame");
            }
        }
    }

    #[test]
    fn bad_lengths_checksums_and_short_streams_are_errors() {
        let mut buf = Vec::new();
        SUMMED.write_frame(&mut buf, 1, b"payload").unwrap();
        for flip in 4..buf.len() {
            let mut bad = buf.clone();
            bad[flip] ^= 0x10;
            assert!(
                matches!(
                    SUMMED.read_frame(&mut bad.as_slice()),
                    Err(WireError::BadChecksum)
                ),
                "flip at {flip}"
            );
        }
        for cut in 0..buf.len() {
            assert!(
                matches!(SUMMED.read_frame(&mut &buf[..cut]), Err(WireError::Io(_))),
                "cut at {cut}"
            );
        }
        // Too long for the bound, too short to hold op (+ checksum).
        for (framing, len) in [(PLAIN, (1 << 20) + 1), (PLAIN, 0), (SUMMED, 8)] {
            let mut header = u32::to_le_bytes(len).to_vec();
            header.push(0);
            assert!(matches!(
                framing.read_frame(&mut header.as_slice()),
                Err(WireError::BadLength(n)) if n == u64::from(len)
            ));
        }
        assert!(matches!(
            PLAIN.write_frame(&mut Vec::new(), 0, &vec![0; 1 << 20]),
            Err(WireError::BadLength(_))
        ));
    }

    /// A stream that delivers a frame header and then stalls, recording
    /// the largest buffer it was ever asked to fill.
    struct HeaderOnly {
        header: Vec<u8>,
        largest_ask: usize,
    }

    impl Read for HeaderOnly {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_ask = self.largest_ask.max(buf.len());
            let n = buf.len().min(self.header.len());
            buf[..n].copy_from_slice(&self.header[..n]);
            self.header.drain(..n);
            Ok(n)
        }
    }

    #[test]
    fn a_declared_length_alone_reserves_no_buffer() {
        let framing = Framing {
            max_len: 256 << 20,
            checksum: true,
        };
        let mut header = u32::to_le_bytes(framing.max_len).to_vec();
        header.push(5);
        let mut stream = HeaderOnly {
            header,
            largest_ask: 0,
        };
        assert!(matches!(
            framing.read_frame(&mut stream),
            Err(WireError::Io(_))
        ));
        assert!(
            stream.largest_ask <= FIRST_READ,
            "asked the stream to fill {} bytes off an unverified prefix",
            stream.largest_ask
        );
    }

    /// Hostile-bytes loop over the framing layer: random streams, and
    /// valid frames with one bit flipped, must decode or error — never
    /// panic, never loop.
    #[test]
    fn read_frame_survives_arbitrary_streams() {
        let rounds = if cfg!(miri) { 40 } else { 4_000 };
        let mut rng = TestRng::from_seed(0x5157_1e57);
        for round in 0..rounds {
            let framing = if round % 2 == 0 { PLAIN } else { SUMMED };
            let mut noise: Vec<u8> = (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect();
            let _ = framing.read_frame(&mut noise.as_slice());

            let op = rng.next_u64() as u8;
            noise.truncate(32);
            let mut frame = Vec::new();
            framing.write_frame(&mut frame, op, &noise).unwrap();
            let bit = rng.below(frame.len() as u64 * 8) as usize;
            frame[bit / 8] ^= 1 << (bit % 8);
            // A checksummed frame never survives a flip; a plain one may
            // (a shorter length prefix, another op, another payload byte).
            let survived = framing.read_frame(&mut frame.as_slice()).is_ok();
            assert!(!(survived && framing.checksum), "round {round}: bit {bit}");
        }
    }
}
