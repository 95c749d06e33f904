//! std-only stand-in for the `crossbeam-channel` subset the SyD workspace
//! uses: multi-producer multi-consumer [`bounded`] and [`unbounded`]
//! channels over a `Mutex<VecDeque>` and two `Condvar`s.
//!
//! Semantics kept from the real crate: FIFO order, every message is
//! received by exactly one receiver, a channel disconnects when its last
//! `Sender` or last `Receiver` drops, and messages buffered before the
//! senders went away can still be received. Not kept: `select!`,
//! zero-capacity rendezvous channels, lock-freedom.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Chan<T> {
    state: Mutex<State<T>>,
    /// `None` = unbounded.
    cap: Option<usize>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Chan<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_full(&self, state: &State<T>) -> bool {
        self.cap.is_some_and(|cap| state.queue.len() >= cap)
    }
}

fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        cap,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&chan)), Receiver(chan))
}

/// A channel holding at most `cap` messages; `send` blocks while full.
///
/// # Panics
/// Panics on `cap == 0`: rendezvous channels are outside this subset.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "zero-capacity channels are not part of this shim");
    channel(Some(cap))
}

/// A channel of unlimited capacity; `send` never blocks.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

/// The sending half; clone it for more producers.
pub struct Sender<T>(Arc<Chan<T>>);

/// The receiving half; clone it for more consumers.
pub struct Receiver<T>(Arc<Chan<T>>);

impl<T> Sender<T> {
    /// Blocks while the channel is full, then enqueues `msg`.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut state = self.0.lock();
        loop {
            if state.receivers == 0 {
                return Err(SendError(msg));
            }
            if !self.0.is_full(&state) {
                state.queue.push_back(msg);
                drop(state);
                self.0.not_empty.notify_one();
                return Ok(());
            }
            state = self
                .0
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Enqueues `msg` unless the channel is full or disconnected.
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        let mut state = self.0.lock();
        if state.receivers == 0 {
            return Err(TrySendError::Disconnected(msg));
        }
        if self.0.is_full(&state) {
            return Err(TrySendError::Full(msg));
        }
        state.queue.push_back(msg);
        drop(state);
        self.0.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Receiver<T> {
    fn pop(&self, state: &mut MutexGuard<'_, State<T>>) -> Option<T> {
        let msg = state.queue.pop_front()?;
        self.0.not_full.notify_one();
        Some(msg)
    }

    /// Blocks until a message arrives or every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.0.lock();
        loop {
            if let Some(msg) = self.pop(&mut state) {
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self
                .0
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Takes a message if one is buffered.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.0.lock();
        match self.pop(&mut state) {
            Some(msg) => Ok(msg),
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// [`Receiver::recv`] bounded by `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.0.lock();
        loop {
            if let Some(msg) = self.pop(&mut state) {
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            state = self
                .0
                .not_empty
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Messages currently buffered.
    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.receivers -= 1;
        if state.receivers == 0 {
            drop(state);
            self.0.not_full.notify_all();
        }
    }
}

/// `send` failed because every receiver is gone; carries the message.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Why `try_send` did not enqueue; carries the message.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity.
    Full(T),
    /// Every receiver is gone.
    Disconnected(T),
}

/// `recv` failed: the channel is empty and every sender is gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

/// Why `try_recv` returned nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing buffered right now.
    Empty,
    /// Nothing buffered and every sender is gone.
    Disconnected,
}

/// Why `recv_timeout` returned nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed first.
    Timeout,
    /// Nothing buffered and every sender is gone.
    Disconnected,
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TrySendError::Full(_) => "Full(..)",
            TrySendError::Disconnected(_) => "Disconnected(..)",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn fifo_and_len() {
        let (tx, rx) = unbounded();
        assert!(rx.is_empty());
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.len(), 5);
        let got: Vec<i32> = (0..5).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, [0, 1, 2, 3, 4]);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn bounded_reports_full_and_send_blocks_until_room() {
        let (tx, rx) = bounded(1);
        tx.try_send(1).unwrap();
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        let sender = std::thread::spawn(move || tx.send(3));
        // The blocked sender can only finish once this receive makes room.
        assert_eq!(rx.recv(), Ok(1));
        sender.join().unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn last_sender_drop_disconnects_after_the_buffer_drains() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx2.send(2).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn last_receiver_drop_fails_senders_and_returns_the_message() {
        let (tx, rx) = bounded(1);
        let rx2 = rx.clone();
        drop(rx);
        tx.send(1).unwrap();
        drop(rx2);
        assert_eq!(tx.send(2), Err(SendError(2)));
        assert_eq!(tx.try_send(3), Err(TrySendError::Disconnected(3)));
    }

    #[test]
    fn a_blocked_receiver_wakes_on_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        let receiver = std::thread::spawn(move || rx.recv());
        drop(tx);
        assert_eq!(receiver.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = bounded(1);
        let t = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(t.elapsed() >= Duration::from_millis(20));
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::ZERO), Ok(9));
    }

    #[test]
    fn every_message_reaches_exactly_one_of_many_consumers() {
        let (tx, rx) = unbounded();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..250 {
                        tx.send(p * 250 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        for p in producers {
            p.join().unwrap();
        }
        let all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        assert_eq!(all.len(), 1000);
        assert_eq!(all.iter().copied().collect::<BTreeSet<_>>().len(), 1000);
    }
}
