//! Checksummed replication frames.
//!
//! Frames and payload primitives are [`rql_pagestore::wire`]'s: every
//! frame is `[u32 len][u8 op][payload][u64 fnv1a]` where `len` counts
//! everything after itself and the checksum covers the op byte and the
//! payload; all integers are little-endian, matching the store's
//! on-disk logs. This module adds the replication opcodes and the field
//! list of each [`Frame`]; a payload is exactly its fields and a decode
//! that leaves bytes over is an error.
//!
//! The checksum is not paranoia: the stream crosses process and machine
//! boundaries, and a follower applies what it reads directly into its
//! durable store. A corrupt frame must fail loudly at the boundary, not
//! surface later as a diverged replica.

use std::io::{Read, Write};

use rql_pagestore::wire::{Framing, Reader, WireError, Writer};
use rql_pagestore::{CommittedSegment, Page, PageId};

use crate::Result;

/// Protocol version carried in [`Frame::Hello`]; bumped on any wire
/// change. A leader refuses a follower that says another number; there
/// is no negotiation.
pub const PROTO_VERSION: u32 = 2;

/// Upper bound on a single frame body. A segment frame carries one whole
/// committed transaction, so this is generous; anything larger indicates
/// a corrupt length prefix, not a real frame.
pub const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// How replication frames travel: bounded and checksummed.
pub const FRAMING: Framing = Framing {
    max_len: MAX_FRAME,
    checksum: true,
};

/// Seed sub-stream identifiers: which log a [`Frame::SeedChunk`] extends.
pub mod log_id {
    /// The write-ahead log.
    pub const WAL: u8 = 0;
    /// The Pagelog archive.
    pub const PAGELOG: u8 = 1;
    /// The Maplog index.
    pub const MAPLOG: u8 = 2;
}

/// Provenance of a [`Frame::Segment`] or [`Frame::Spt`]: which leader
/// commit produced the data and when, for cross-node trace stitching and
/// time-lag measurement. The leader stamps every such frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitOrigin {
    /// The leader's commit span identifier: the committing transaction
    /// id, which is the `arg` of the leader's `commit` trace span.
    pub span_id: u64,
    /// Leader wall clock when the frame was shipped, in microseconds
    /// since the Unix epoch. Followers subtract this from their own
    /// clock to produce `repl_lag_seconds` (subject to clock skew,
    /// like any cross-machine lag measure).
    pub wall_micros: u64,
}

mod op {
    pub const HELLO: u8 = 0x01;
    pub const SEED_START: u8 = 0x02;
    pub const SEED_CHUNK: u8 = 0x03;
    pub const SEED_DONE: u8 = 0x04;
    pub const SEGMENT: u8 = 0x05;
    pub const SPT: u8 = 0x06;
    pub const HEARTBEAT: u8 = 0x07;
    pub const ACK: u8 = 0x08;
}

/// One replication protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Follower → leader greeting: who I am and where my WAL ends.
    /// `wal_len == 0` requests a full seed.
    Hello {
        /// Must equal [`PROTO_VERSION`].
        proto: u32,
        /// Length of the follower's durable WAL (resume point).
        wal_len: u64,
        /// Follower page size; must match the leader's.
        page_size: u32,
        /// Pagelog format tag (0 = raw); must match the leader's.
        format: u8,
    },
    /// Leader → follower: a snapshot-consistent seed follows, cut at
    /// these log lengths.
    SeedStart {
        /// WAL bytes that will be shipped.
        wal_len: u64,
        /// Pagelog bytes that will be shipped.
        pagelog_len: u64,
        /// Maplog bytes that will be shipped.
        maplog_len: u64,
        /// Snapshots declared within the cut.
        snapshot_count: u64,
    },
    /// One contiguous run of seed bytes for one log.
    SeedChunk {
        /// Which log (see [`log_id`]).
        log: u8,
        /// Offset of these bytes within the log.
        offset: u64,
        /// The raw log bytes.
        bytes: Vec<u8>,
    },
    /// Seed complete; live segments follow.
    SeedDone,
    /// One committed transaction.
    Segment {
        /// The transaction exactly as parsed off the leader WAL: its log
        /// span, the id to replay under (keeps WALs byte-identical), the
        /// snapshot it declared and its page after-images in log order.
        segment: CommittedSegment,
        /// The commit this segment is.
        origin: CommitOrigin,
    },
    /// Post-declaration verification: the follower must agree on the
    /// snapshot's page count before acking further work.
    Spt {
        /// The declared snapshot.
        snapshot_id: u64,
        /// Universe size the SPT covers on the leader.
        page_count: u64,
        /// The commit that declared the snapshot.
        origin: CommitOrigin,
    },
    /// Leader → follower liveness + lag reference when no commits flow.
    Heartbeat {
        /// Leader WAL length.
        wal_len: u64,
        /// Leader snapshot count.
        snapshot_count: u64,
    },
    /// Follower → leader progress: everything up to here is applied.
    Ack {
        /// Follower WAL length after apply.
        wal_len: u64,
        /// Follower snapshot count after apply.
        snapshot_count: u64,
    },
}

impl CommitOrigin {
    fn put(&self, w: &mut Writer) {
        w.u64(self.span_id);
        w.u64(self.wall_micros);
    }

    fn get(r: &mut Reader<'_>) -> std::result::Result<CommitOrigin, WireError> {
        Ok(CommitOrigin {
            span_id: r.u64()?,
            wall_micros: r.u64()?,
        })
    }
}

impl Frame {
    /// Encode to `(opcode, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = Writer::new();
        let opcode = match self {
            Frame::Hello {
                proto,
                wal_len,
                page_size,
                format,
            } => {
                w.u32(*proto);
                w.u64(*wal_len);
                w.u32(*page_size);
                w.u8(*format);
                op::HELLO
            }
            Frame::SeedStart {
                wal_len,
                pagelog_len,
                maplog_len,
                snapshot_count,
            } => {
                w.u64(*wal_len);
                w.u64(*pagelog_len);
                w.u64(*maplog_len);
                w.u64(*snapshot_count);
                op::SEED_START
            }
            Frame::SeedChunk { log, offset, bytes } => {
                w.u8(*log);
                w.u64(*offset);
                w.bytes(bytes);
                op::SEED_CHUNK
            }
            Frame::SeedDone => op::SEED_DONE,
            Frame::Segment { segment, origin } => {
                w.u64(segment.start);
                w.u64(segment.end);
                w.u64(segment.txn_id);
                w.opt(segment.snapshot, Writer::u64);
                w.list(&segment.pages, |w, (pid, page)| {
                    w.u64(pid.0);
                    w.bytes(page.bytes());
                });
                origin.put(&mut w);
                op::SEGMENT
            }
            Frame::Spt {
                snapshot_id,
                page_count,
                origin,
            } => {
                w.u64(*snapshot_id);
                w.u64(*page_count);
                origin.put(&mut w);
                op::SPT
            }
            Frame::Heartbeat {
                wal_len,
                snapshot_count,
            }
            | Frame::Ack {
                wal_len,
                snapshot_count,
            } => {
                w.u64(*wal_len);
                w.u64(*snapshot_count);
                match self {
                    Frame::Heartbeat { .. } => op::HEARTBEAT,
                    _ => op::ACK,
                }
            }
        };
        (opcode, w.into_bytes())
    }

    /// Decode from a received frame.
    pub fn decode(opcode: u8, payload: &[u8]) -> std::result::Result<Frame, WireError> {
        let mut r = Reader::new(payload);
        let frame = match opcode {
            op::HELLO => Frame::Hello {
                proto: r.u32()?,
                wal_len: r.u64()?,
                page_size: r.u32()?,
                format: r.u8()?,
            },
            op::SEED_START => Frame::SeedStart {
                wal_len: r.u64()?,
                pagelog_len: r.u64()?,
                maplog_len: r.u64()?,
                snapshot_count: r.u64()?,
            },
            op::SEED_CHUNK => Frame::SeedChunk {
                log: r.u8()?,
                offset: r.u64()?,
                bytes: r.bytes()?.to_vec(),
            },
            op::SEED_DONE => Frame::SeedDone,
            op::SEGMENT => {
                let start = r.u64()?;
                let end = r.u64()?;
                let txn_id = r.u64()?;
                let snapshot = r.opt(Reader::u64)?;
                // A page is at least its id and its length prefix.
                let pages = r.list(12, |r| {
                    Ok((PageId(r.u64()?), Page::from_bytes(r.bytes()?.to_vec())))
                })?;
                Frame::Segment {
                    segment: CommittedSegment {
                        txn_id,
                        snapshot,
                        pages,
                        start,
                        end,
                    },
                    origin: CommitOrigin::get(&mut r)?,
                }
            }
            op::SPT => Frame::Spt {
                snapshot_id: r.u64()?,
                page_count: r.u64()?,
                origin: CommitOrigin::get(&mut r)?,
            },
            op::HEARTBEAT => Frame::Heartbeat {
                wal_len: r.u64()?,
                snapshot_count: r.u64()?,
            },
            op::ACK => Frame::Ack {
                wal_len: r.u64()?,
                snapshot_count: r.u64()?,
            },
            t => return Err(WireError::BadTag(t)),
        };
        r.done()?;
        Ok(frame)
    }
}

/// Write one frame; returns the bytes put on the wire — what the
/// shipped-bytes metrics count.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<u64> {
    let (opcode, payload) = frame.encode();
    Ok(FRAMING.write_frame(w, opcode, &payload)?)
}

/// Read one frame, verifying its checksum; returns it with the bytes it
/// took off the wire.
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, u64)> {
    let (opcode, payload, size) = FRAMING.read_frame(r)?;
    Ok((Frame::decode(opcode, &payload)?, size))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::ReplError;

    const ORIGIN: CommitOrigin = CommitOrigin {
        span_id: 7,
        wall_micros: 1_723_000_000_000_000,
    };

    /// A segment frame over 64-byte pages, each `(page id, fill byte)`.
    fn segment(snapshot: Option<u64>, pages: &[(u64, u8)]) -> Frame {
        Frame::Segment {
            segment: CommittedSegment {
                txn_id: 7,
                snapshot,
                pages: pages
                    .iter()
                    .map(|&(pid, fill)| (PageId(pid), Page::from_bytes(vec![fill; 64])))
                    .collect(),
                start: 10,
                end: 99,
            },
            origin: ORIGIN,
        }
    }

    fn roundtrip(frame: Frame) {
        let mut buf = Vec::new();
        let wrote = write_frame(&mut buf, &frame).unwrap();
        assert_eq!(wrote, buf.len() as u64);
        buf.extend_from_slice(b"rest of the stream");
        let mut stream = buf.as_slice();
        let (got, read) = read_frame(&mut stream).unwrap();
        assert_eq!((got, read), (frame, wrote));
        assert_eq!(stream, b"rest of the stream");
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(Frame::Hello {
            proto: PROTO_VERSION,
            wal_len: 12345,
            page_size: 4096,
            format: 0,
        });
        roundtrip(Frame::SeedStart {
            wal_len: 1,
            pagelog_len: 2,
            maplog_len: 3,
            snapshot_count: 4,
        });
        roundtrip(Frame::SeedChunk {
            log: log_id::PAGELOG,
            offset: 777,
            bytes: vec![1, 2, 3, 4, 5],
        });
        roundtrip(Frame::SeedDone);
        roundtrip(segment(Some(3), &[(0, 0), (5, 9)]));
        roundtrip(segment(None, &[]));
        roundtrip(Frame::Spt {
            snapshot_id: 3,
            page_count: 40,
            origin: ORIGIN,
        });
        roundtrip(Frame::Heartbeat {
            wal_len: 5,
            snapshot_count: 6,
        });
        roundtrip(Frame::Ack {
            wal_len: 5,
            snapshot_count: 6,
        });
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame::Heartbeat {
                wal_len: 5,
                snapshot_count: 6,
            },
        )
        .unwrap();
        // Flip one payload byte: checksum must catch it.
        let mut bad = buf.clone();
        bad[6] ^= 0xff;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(ReplError::Protocol(_))
        ));
        // Truncated stream: an io error, not a hang.
        let short = &buf[..buf.len() - 3];
        assert!(matches!(read_frame(&mut &short[..]), Err(ReplError::Io(_))));
        // Absurd length prefix.
        let mut huge = buf;
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(ReplError::Protocol(_))
        ));
    }

    #[test]
    fn segment_frame_carries_the_wal_segment() {
        let (opcode, payload) = segment(Some(2), &[(3, 7)]).encode();
        let Frame::Segment { segment: seg, .. } = Frame::decode(opcode, &payload).unwrap() else {
            panic!("not a segment");
        };
        assert_eq!((seg.start, seg.end, seg.txn_id), (10, 99, 7));
        assert_eq!(seg.snapshot, Some(2));
        assert_eq!(seg.pages.len(), 1);
        assert_eq!(seg.pages[0].0 .0, 3);
        assert_eq!(seg.pages[0].1.bytes(), [7u8; 64]);
    }

    #[test]
    fn short_long_and_overcounted_payloads_are_decode_errors() {
        let spt = Frame::Spt {
            snapshot_id: 3,
            page_count: 40,
            origin: ORIGIN,
        };
        for frame in [segment(Some(3), &[(0, 0)]), spt] {
            let (opcode, payload) = frame.encode();
            // What a proto-1 leader sent: the same fields without the
            // origin. It used to decode as "no origin"; now it is short.
            let without_origin = &payload[..payload.len() - 16];
            assert!(matches!(
                Frame::decode(opcode, without_origin),
                Err(WireError::Truncated)
            ));
            let longer = [payload.as_slice(), &[0]].concat();
            assert!(matches!(
                Frame::decode(opcode, &longer),
                Err(WireError::Trailing(1))
            ));
        }
        // A segment claiming four billion pages in a 45-byte payload:
        // refused, not used to size a Vec.
        let mut w = Writer::new();
        for _ in 0..3 {
            w.u64(1);
        }
        w.u8(0);
        w.u32(u32::MAX);
        ORIGIN.put(&mut w);
        assert!(matches!(
            Frame::decode(op::SEGMENT, &w.into_bytes()),
            Err(WireError::Truncated)
        ));
    }
}
