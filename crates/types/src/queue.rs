//! The one channel SyD uses: an unbounded multi-producer multi-consumer
//! FIFO queue — a `Mutex<VecDeque>`, one `Condvar`, and sender/receiver
//! counts for disconnect.
//!
//! Every message is received by exactly one receiver; the queue
//! disconnects when its last [`Sender`] or last [`Receiver`] drops, and
//! messages buffered before the senders went away can still be received.
//! A queue allocates nothing until its first message, which matters when
//! there is one per simulated device.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sync::{Condvar, Mutex, Rank};

struct State<T> {
    items: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled on every push and when the last sender drops.
    ready: Condvar,
}

/// Creates a queue and returns its two halves.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(
            Rank::Leaf,
            State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
            },
        ),
        ready: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

/// The sending half; clone it for more producers.
pub struct Sender<T>(Arc<Shared<T>>);

/// The receiving half; clone it for more consumers.
pub struct Receiver<T>(Arc<Shared<T>>);

/// `send` failed because every receiver is gone; carries the message.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Why a receive returned no message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// Nothing is buffered (for `recv_timeout`: nothing arrived in time).
    Empty,
    /// Nothing is buffered and every sender is gone.
    Disconnected,
}

impl<T> Sender<T> {
    /// Enqueues `msg`; never blocks.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut state = self.0.state.lock();
        if state.receivers == 0 {
            return Err(SendError(msg));
        }
        state.items.push_back(msg);
        drop(state);
        self.0.ready.notify_one();
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives or every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None)
    }

    /// [`Receiver::recv`] bounded by `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvError> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// Takes a message if one is buffered.
    pub fn try_recv(&self) -> Result<T, RecvError> {
        self.recv_until(Some(Instant::now()))
    }

    /// A buffered message, else `Disconnected` without senders, else
    /// `Empty` once `deadline` has passed (`None`: wait for ever).
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvError> {
        let mut state = self.0.state.lock();
        loop {
            if let Some(msg) = state.items.pop_front() {
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvError::Disconnected);
            }
            state = match deadline.map(|at| at.saturating_duration_since(Instant::now())) {
                None => self.0.ready.wait(state),
                Some(Duration::ZERO) => return Err(RecvError::Empty),
                Some(left) => self.0.ready.wait_timeout(state, left).0,
            };
        }
    }

    /// Messages currently buffered.
    pub fn len(&self) -> usize {
        self.0.state.lock().items.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            self.0.ready.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.0.state.lock().receivers -= 1;
    }
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}
