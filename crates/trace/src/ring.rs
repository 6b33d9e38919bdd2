//! The lock-free bounded event ring.
//!
//! Writers claim a slot with one `fetch_add` on the head counter and
//! publish through a per-slot version word (seqlock discipline), so
//! recording is wait-free, allocation-free, and safe from any number of
//! threads. The ring *is* the flight recorder: it always holds the last
//! `capacity` events, old entries overwritten in claim order.
//!
//! Every slot field is an `AtomicU64`, which keeps readers and writers
//! data-race-free in the language-semantics sense (ThreadSanitizer- and
//! Miri-clean) even while racing. A reader validates the version word
//! before and after copying the payload and discards the slot on any
//! mismatch; the only theoretical hazard left — a full ring lap between
//! the two version reads racing the payload copy — loses one event from
//! a diagnostic dump, never corrupts the program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::event::{EventKind, SpanId, TraceEvent};
use crate::label;

/// Version-word sentinel: slot is mid-write.
const WRITING: u64 = u64::MAX;

/// Default global ring capacity (events); override with `RQL_TRACE_RING`.
pub const DEFAULT_CAPACITY: usize = 65_536;

struct Slot {
    /// `0` = never written, [`WRITING`] = in progress, else `claim + 1`.
    version: AtomicU64,
    /// `kind (8) | span (16) | label (32)` packed little-endian-ish.
    packed: AtomicU64,
    tid: AtomicU64,
    start_nanos: AtomicU64,
    dur_nanos: AtomicU64,
    arg: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            packed: AtomicU64::new(0),
            tid: AtomicU64::new(0),
            start_nanos: AtomicU64::new(0),
            dur_nanos: AtomicU64::new(0),
            arg: AtomicU64::new(0),
        }
    }
}

fn pack(kind: EventKind, span: SpanId, label_id: u32) -> u64 {
    (kind as u64) | ((span as u64) << 8) | (u64::from(label_id) << 32)
}

fn unpack(packed: u64) -> Option<(EventKind, SpanId, u32)> {
    let kind = EventKind::from_u8((packed & 0xFF) as u8)?;
    let span = SpanId::from_u16(((packed >> 8) & 0xFFFF) as u16)?;
    Some((kind, span, (packed >> 32) as u32))
}

/// A bounded multi-producer event ring. One global instance backs the
/// whole process ([`global`]); tests may build private rings.
pub struct Ring {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl Ring {
    /// Ring holding the last `capacity` events (minimum 8).
    pub fn with_capacity(capacity: usize) -> Ring {
        let capacity = capacity.max(8);
        Ring {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever claimed (≥ events currently retained).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Record one event. Wait-free; no allocation.
    // Flat scalar parameters keep the hot path free of any aggregate
    // construction; a params struct here would be pure ceremony.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        kind: EventKind,
        span: SpanId,
        tid: u64,
        start_nanos: u64,
        dur_nanos: u64,
        arg: u64,
        label_id: u32,
    ) {
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(claim % self.slots.len() as u64) as usize];
        slot.version.store(WRITING, Ordering::SeqCst);
        slot.packed
            .store(pack(kind, span, label_id), Ordering::Relaxed);
        slot.tid.store(tid, Ordering::Relaxed);
        slot.start_nanos.store(start_nanos, Ordering::Relaxed);
        slot.dur_nanos.store(dur_nanos, Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        slot.version.store(claim + 1, Ordering::SeqCst);
    }

    /// Copy out every currently-valid event, oldest first. Racing
    /// writers may invalidate individual slots mid-copy; those slots are
    /// skipped, never returned torn.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let v1 = slot.version.load(Ordering::SeqCst);
            if v1 == 0 || v1 == WRITING {
                continue;
            }
            let packed = slot.packed.load(Ordering::Relaxed);
            let tid = slot.tid.load(Ordering::Relaxed);
            let start_nanos = slot.start_nanos.load(Ordering::Relaxed);
            let dur_nanos = slot.dur_nanos.load(Ordering::Relaxed);
            let arg = slot.arg.load(Ordering::Relaxed);
            if slot.version.load(Ordering::SeqCst) != v1 {
                continue; // overwritten while copying
            }
            let Some((kind, span, label_id)) = unpack(packed) else {
                continue;
            };
            events.push(TraceEvent {
                seq: v1 - 1,
                kind,
                span,
                tid,
                start_nanos,
                dur_nanos,
                arg,
                label: label::resolve(label_id),
            });
        }
        events.sort_by_key(|e| e.seq);
        events
    }
}

/// The process-wide ring. Capacity is read from `RQL_TRACE_RING` (an
/// event count) once, at first use.
pub fn global() -> &'static Ring {
    static GLOBAL: OnceLock<Ring> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let capacity = std::env::var("RQL_TRACE_RING")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_CAPACITY);
        Ring::with_capacity(capacity)
    })
}

/// Nanoseconds since the process trace epoch (first call wins).
pub fn now_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Current wall-clock time as microseconds since the Unix epoch.
/// Replication frames carry this so followers can compute time lag
/// and `stitch_trace.py` can align per-node timelines.
pub fn unix_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_micros().min(u128::from(u64::MAX)) as u64)
}

/// Wall-clock time (microseconds since the Unix epoch) of this
/// process's trace epoch — the instant `ts` 0 in the Chrome export
/// corresponds to. Anchored once, at first call; the pairing with
/// [`now_nanos`] is only as precise as the two clock reads, which is
/// far below the cross-node skew stitching already tolerates.
pub fn wall_anchor_micros() -> u64 {
    static ANCHOR: OnceLock<u64> = OnceLock::new();
    *ANCHOR.get_or_init(|| {
        let rel_micros = now_nanos() / 1_000;
        unix_micros().saturating_sub(rel_micros)
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn records_and_snapshots_in_order() {
        let ring = Ring::with_capacity(16);
        for i in 0..5 {
            ring.record(EventKind::Instant, SpanId::CacheHit, 1, i, 0, i, 0);
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.arg, i as u64);
            assert_eq!(e.span, SpanId::CacheHit);
            assert_eq!(e.kind, EventKind::Instant);
        }
    }

    #[test]
    fn wraparound_keeps_only_the_newest() {
        let ring = Ring::with_capacity(8);
        for i in 0..20u64 {
            ring.record(EventKind::Instant, SpanId::DbRead, 7, i, 0, i, 0);
        }
        assert_eq!(ring.recorded(), 20);
        let events = ring.snapshot();
        assert_eq!(events.len(), 8);
        assert_eq!(events.first().unwrap().seq, 12);
        assert_eq!(events.last().unwrap().seq, 19);
        // Sequence numbers stay strictly increasing after the wrap.
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn labels_survive_the_ring() {
        let ring = Ring::with_capacity(8);
        let id = crate::label::intern("phase_x");
        ring.record(EventKind::Exit, SpanId::BenchPhase, 1, 0, 42, 0, id);
        let events = ring.snapshot();
        assert_eq!(events[0].label, Some("phase_x"));
        assert_eq!(events[0].dur_nanos, 42);
    }

    #[test]
    fn tiny_capacity_is_floored() {
        let ring = Ring::with_capacity(1);
        assert!(ring.capacity() >= 8);
    }
}
