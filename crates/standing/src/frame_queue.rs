//! A Mutex + Condvar frame channel for push subscriptions.
//!
//! `std::sync::mpsc` would do the job functionally, but its crossbeam
//! lineage synchronizes with `SeqCst` fences, which ThreadSanitizer
//! does not model — every cross-thread hand-off through it reports as a
//! race, keeping the TSan CI lane permanently unclean. This queue uses
//! only lock/condvar synchronization (fully TSan-modelable), so the
//! standing-query concurrency suite runs clean and the lane can block.
//!
//! Semantics match what the engine needs from a channel: unbounded
//! (sends never block the committing thread), single producer, single
//! consumer, with disconnect detection on both ends.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::PushFrame;

struct State {
    frames: VecDeque<PushFrame>,
    sender_gone: bool,
    receiver_gone: bool,
}

struct Inner {
    state: Mutex<State>,
    ready: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Producer half; held by the engine's subscriber list. Dropping it
/// wakes a blocked receiver with "disconnected".
pub struct FrameSender(Arc<Inner>);

/// Consumer half; owned by the [`Subscription`](crate::Subscription).
pub struct FrameReceiver(Arc<Inner>);

/// Why [`FrameReceiver::try_recv`] returned no frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No frame queued right now; the sender is still live.
    Empty,
    /// The sender is gone and the queue is drained; no frame will come.
    Disconnected,
}

/// An unbounded single-producer single-consumer frame queue.
pub fn channel() -> (FrameSender, FrameReceiver) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            frames: VecDeque::new(),
            sender_gone: false,
            receiver_gone: false,
        }),
        ready: Condvar::new(),
    });
    (FrameSender(Arc::clone(&inner)), FrameReceiver(inner))
}

impl FrameSender {
    /// Queue `frame`; never blocks. `false` when the receiver is gone
    /// (the caller prunes the subscription).
    pub fn send(&self, frame: PushFrame) -> bool {
        let mut state = self.0.lock();
        if state.receiver_gone {
            return false;
        }
        state.frames.push_back(frame);
        drop(state);
        self.0.ready.notify_one();
        true
    }
}

impl Drop for FrameSender {
    fn drop(&mut self) {
        self.0.lock().sender_gone = true;
        self.0.ready.notify_one();
    }
}

impl FrameReceiver {
    /// Block until a frame arrives; `None` once the sender is gone and
    /// every queued frame has been taken.
    pub fn recv(&self) -> Option<PushFrame> {
        let mut state = self.0.lock();
        loop {
            if let Some(frame) = state.frames.pop_front() {
                return Some(frame);
            }
            if state.sender_gone {
                return None;
            }
            state = self
                .0
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<PushFrame, TryRecvError> {
        let mut state = self.0.lock();
        match state.frames.pop_front() {
            Some(frame) => Ok(frame),
            None if state.sender_gone => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Blocking iterator over frames; ends when the sender disconnects.
    pub fn iter(&self) -> impl Iterator<Item = PushFrame> + '_ {
        std::iter::from_fn(|| self.recv())
    }
}

impl Drop for FrameReceiver {
    fn drop(&mut self) {
        self.0.lock().receiver_gone = true;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::EndReason;

    #[test]
    fn frames_arrive_in_order_and_disconnect_is_reported() {
        let (tx, rx) = channel();
        assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Empty);
        assert!(tx.send(PushFrame::End(EndReason::Drained)));
        match rx.try_recv().unwrap() {
            PushFrame::End(r) => assert_eq!(r, EndReason::Drained),
            other => panic!("unexpected {other:?}"),
        }
        drop(tx);
        assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Disconnected);
        assert!(rx.recv().is_none());
    }

    #[test]
    fn send_fails_once_receiver_dropped() {
        let (tx, rx) = channel();
        drop(rx);
        assert!(!tx.send(PushFrame::End(EndReason::Drained)));
    }

    #[test]
    fn blocking_recv_wakes_on_send_across_threads() {
        let (tx, rx) = channel();
        let handle = std::thread::spawn(move || rx.iter().count());
        for _ in 0..3 {
            assert!(tx.send(PushFrame::End(EndReason::Drained)));
        }
        drop(tx);
        assert_eq!(handle.join().unwrap(), 3);
    }
}
