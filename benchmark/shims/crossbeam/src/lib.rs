//! std-only stand-in for the one `crossbeam` item the SyD workspace uses:
//! [`queue::ArrayQueue`], the bounded MPMC queue behind `syd-trace`'s span
//! rings. A mutex-guarded `VecDeque` replaces the lock-free array, so
//! span-recording costs measured on it are an upper bound.

/// Concurrent queues.
pub mod queue {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// A bounded multi-producer multi-consumer FIFO queue.
    pub struct ArrayQueue<T> {
        buf: Mutex<VecDeque<T>>,
        cap: usize,
    }

    impl<T> ArrayQueue<T> {
        /// Creates a queue holding at most `cap` elements.
        ///
        /// # Panics
        /// Panics on `cap == 0`, as the real crate does.
        pub fn new(cap: usize) -> Self {
            assert!(cap > 0, "capacity must be non-zero");
            ArrayQueue {
                buf: Mutex::new(VecDeque::with_capacity(cap)),
                cap,
            }
        }

        fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
            self.buf.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Appends `value`, or hands it back when the queue is full.
        pub fn push(&self, value: T) -> Result<(), T> {
            let mut buf = self.lock();
            if buf.len() >= self.cap {
                return Err(value);
            }
            buf.push_back(value);
            Ok(())
        }

        /// Removes the oldest element.
        pub fn pop(&self) -> Option<T> {
            self.lock().pop_front()
        }

        /// Elements currently queued.
        pub fn len(&self) -> usize {
            self.lock().len()
        }

        /// True when nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> fmt::Debug for ArrayQueue<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("ArrayQueue { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn push_hands_the_value_back_when_full_and_pop_is_fifo() {
            let q = ArrayQueue::new(2);
            assert!(q.is_empty());
            q.push(1).unwrap();
            q.push(2).unwrap();
            assert_eq!(q.push(3), Err(3));
            assert_eq!(q.len(), 2);
            assert_eq!(q.pop(), Some(1));
            q.push(3).unwrap();
            assert_eq!((q.pop(), q.pop(), q.pop()), (Some(2), Some(3), None));
        }

        #[test]
        fn concurrent_pushes_never_exceed_capacity_or_lose_elements() {
            let q = ArrayQueue::new(64);
            let rejected: usize = std::thread::scope(|s| {
                let workers: Vec<_> = (0..4)
                    .map(|_| s.spawn(|| (0..100).filter(|&i| q.push(i).is_err()).count()))
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            assert_eq!(q.len(), 64);
            assert_eq!(rejected, 400 - 64);
        }
    }
}
