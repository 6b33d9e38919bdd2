//! Deterministic decoder fuzz lane (ROADMAP hardening item 2).
//!
//! Every byte that reaches `Request::decode`, `Response::decode`, the
//! replication `Frame::decode` or either protocol's `read_frame` comes
//! from another process. Whatever those bytes are, a decode must return
//! — `Ok` or `Err`, never a panic — and must not allocate more than a
//! small multiple of the bytes it was handed, so a 12-byte payload can
//! not ask the allocator for gigabytes.
//!
//! Inputs, per opcode: random payloads; and per valid encoding (one of
//! every variant, `wire_samples`): every single-bit flip, every
//! truncation point, and `u32::MAX` forced over every four-byte window
//! (which covers every count and length field). Seeds are fixed and no
//! clock is read, so a failure replays.
//!
//! The counting allocator is this file's own; the lane is one `#[test]`
//! so no concurrent test moves the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::test_runner::TestRng;
use rql_pagestore::wire::Framing;
use rql_repl::Frame;
use rql_repro::rqld::protocol::FRAMING as RQLD_FRAMING;
use rql_repro::rqld::{Request, Response};
use rql_sqlengine::Value;

mod wire_samples;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are bookkeeping on the side
// and touch no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` (dropping what it returns) and report the most bytes that
/// were live above the level it started at.
fn peak_during<T>(f: impl FnOnce() -> T) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    drop(f());
    PEAK.load(Ordering::Relaxed).saturating_sub(before)
}

/// A decoded value can outweigh its encoding — a NULL is one byte on the
/// wire and one `Value` in memory — but by no more than that ratio; the
/// factor of two leaves room for the error path's own strings.
const PER_BYTE: usize = 2 * std::mem::size_of::<Value>();
const SLACK: usize = 512;

fn check_decode<T>(what: &str, opcode: u8, payload: &[u8], decode: fn(u8, &[u8]) -> T) {
    let peak = peak_during(|| decode(opcode, payload));
    assert!(
        peak <= PER_BYTE * payload.len() + SLACK,
        "{what} op {opcode:#04x}: {peak} bytes allocated decoding {} ({payload:02x?})",
        payload.len()
    );
}

/// The three mutation families over one valid encoding.
fn mutations(payload: &[u8], mut visit: impl FnMut(&[u8])) {
    for bit in 0..payload.len() * 8 {
        let mut flipped = payload.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        visit(&flipped);
    }
    for cut in 0..payload.len() {
        visit(&payload[..cut]);
    }
    for at in 0..payload.len().saturating_sub(3) {
        let mut forced = payload.to_vec();
        forced[at..at + 4].fill(0xff);
        visit(&forced);
    }
}

fn fuzz_decoder<T>(
    what: &str,
    samples: Vec<(u8, Vec<u8>)>,
    decode: fn(u8, &[u8]) -> T,
    rng: &mut TestRng,
) {
    for opcode in 0..=u8::MAX {
        for _ in 0..32 {
            let noise: Vec<u8> = (0..rng.below(96)).map(|_| rng.next_u64() as u8).collect();
            check_decode(what, opcode, &noise, decode);
        }
    }
    for (opcode, payload) in samples {
        mutations(&payload, |bytes| check_decode(what, opcode, bytes, decode));
    }
}

/// A stream must be refused or read without reserving more than the
/// bytes it actually supplied warrant (the receive buffer may double as
/// it grows, and starts at no more than 64 KiB).
fn check_stream<T>(what: &str, mut stream: &[u8], read: impl Fn(&mut &[u8]) -> T) {
    let supplied = stream.len();
    let peak = peak_during(|| read(&mut stream));
    assert!(
        peak <= PER_BYTE * supplied + (64 << 10) + SLACK,
        "{what}: {peak} bytes allocated reading a {supplied}-byte stream"
    );
}

fn fuzz_framing<T>(
    what: &str,
    framing: Framing,
    samples: &[(u8, Vec<u8>)],
    read: impl Fn(&mut &[u8]) -> T,
    rng: &mut TestRng,
) {
    for _ in 0..2_000 {
        let noise: Vec<u8> = (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect();
        check_stream(what, &noise, &read);
    }
    // A header that promises the largest frame, or more, and delivers
    // nothing.
    for len in [framing.max_len, framing.max_len - 1, u32::MAX] {
        let mut header = len.to_le_bytes().to_vec();
        header.push(samples[0].0);
        check_stream(what, &header, &read);
    }
    for (opcode, payload) in samples {
        let mut stream = Vec::new();
        framing
            .write_frame(&mut stream, *opcode, payload)
            .expect("encode");
        mutations(&stream, |bytes| check_stream(what, bytes, &read));
    }
}

#[test]
fn hostile_bytes_neither_panic_nor_overallocate() {
    let mut rng = TestRng::from_seed(0x5eed_b175);
    let requests: Vec<_> = wire_samples::requests()
        .iter()
        .map(|(_, r)| r.encode())
        .collect();
    let responses: Vec<_> = wire_samples::responses()
        .iter()
        .map(|(_, r)| r.encode())
        .collect();
    let frames: Vec<_> = wire_samples::frames()
        .iter()
        .map(|(_, f)| f.encode())
        .collect();

    fuzz_framing(
        "rqld read_frame",
        RQLD_FRAMING,
        &responses,
        |r| RQLD_FRAMING.read_frame(r),
        &mut rng,
    );
    fuzz_framing(
        "repl read_frame",
        rql_repl::frame::FRAMING,
        &frames,
        |r| rql_repl::read_frame(r),
        &mut rng,
    );
    fuzz_decoder("Request::decode", requests, Request::decode, &mut rng);
    fuzz_decoder("Response::decode", responses, Response::decode, &mut rng);
    fuzz_decoder("Frame::decode", frames, Frame::decode, &mut rng);
}
