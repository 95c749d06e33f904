//! A shared timer wheel: one thread services every periodic task in a
//! fleet.
//!
//! A single min-heap of `(due, seq, id)` entries serviced by one
//! `syd-timer` thread: every device's link-expiry and stale-session
//! sweeps, the pool watchdog, and anything else the runtime repeats. An
//! RPC's deadline is not here — it is the wait of the thread that made
//! the call ([`crate::Node::call_many`]).
//!
//! Tasks that fall due together are collected under one lock hold and
//! run as a batch ([`TimerWheel::batches`] counts them), so a burst of
//! 10k simultaneous sweeps costs one wake-up, not 10k. Cancelled ids may
//! leave stale heap entries behind; they are skipped at pop time, which
//! keeps [`TimerWheel::cancel`] O(1).
//!
//! Actions run on the timer thread and must not block: hand heavy work
//! to a [`crate::pool::WorkerPool`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use syd_telemetry::trace;
use syd_types::sync::{Condvar, Mutex};

/// Handle to a scheduled entry; used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(u64);

type Action = Arc<dyn Fn() + Send + Sync>;

/// Re-armed after every firing until cancelled.
struct Task {
    interval: Duration,
    action: Action,
}

struct TimerState {
    /// Min-heap of (due, seq, id). `seq` makes ordering total and FIFO
    /// among entries with identical deadlines.
    heap: BinaryHeap<Reverse<(Instant, u64, TimerId)>>,
    /// Live entries; an id present in `heap` but absent here was
    /// cancelled and is skipped at pop time.
    tasks: HashMap<TimerId, Task>,
    shutdown: bool,
}

struct TimerInner {
    state: Mutex<TimerState>,
    cv: Condvar,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    fired: AtomicU64,
    batches: AtomicU64,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// Cloneable handle to a shared timer wheel. All clones talk to the same
/// heap and thread; the wheel stops on [`TimerWheel::shutdown`] (the
/// owning runtime calls it when the last device is gone).
#[derive(Clone)]
pub struct TimerWheel {
    inner: Arc<TimerInner>,
}

impl TimerWheel {
    /// Creates a wheel and starts its service thread.
    #[must_use]
    pub fn new(name: &str) -> Self {
        let inner = Arc::new(TimerInner {
            state: Mutex::new(TimerState {
                heap: BinaryHeap::new(),
                tasks: HashMap::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            next_seq: AtomicU64::new(0),
            fired: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            thread: Mutex::new(None),
        });
        let loop_inner = Arc::clone(&inner);
        // A wheel without its thread never fires anything; construction
        // failure is unrecoverable, so panicking is the contract.
        #[allow(clippy::expect_used)]
        let handle = std::thread::Builder::new()
            .name(format!("syd-timer-{name}"))
            .spawn(move || timer_loop(&loop_inner))
            .expect("spawn timer thread");
        *inner.thread.lock() = Some(handle);
        TimerWheel { inner }
    }

    /// Files `task` with its first firing at `due`. A `due` already in
    /// the past (clock skew, slow caller) fires on the next wake-up rather
    /// than being dropped.
    fn insert(&self, due: Instant, task: Task) -> TimerId {
        let id = TimerId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut state = self.inner.state.lock();
            state.tasks.insert(id, task);
            state.heap.push(Reverse((due, seq, id)));
        }
        self.inner.cv.notify_all();
        id
    }

    /// Schedules `action` to run every `interval`, first firing one
    /// `interval` from now. Re-armed from completion time, so a slow
    /// action delays its next firing instead of bursting to catch up.
    ///
    /// The scheduler's trace context is captured here and re-entered
    /// around every firing on the timer thread, so periodic work stays
    /// attributed to its trace.
    pub fn schedule_periodic(
        &self,
        interval: Duration,
        action: impl Fn() + Send + Sync + 'static,
    ) -> TimerId {
        let ctx = trace::current();
        self.insert(
            Instant::now() + interval,
            Task {
                interval,
                action: Arc::new(move || {
                    let _span = ctx.map(trace::enter);
                    action();
                }),
            },
        )
    }

    /// Cancels an entry. Returns whether it was still scheduled (an id
    /// cancelled twice returns `false`). A firing already collected into
    /// the running batch still runs; none is collected after `cancel`
    /// returns.
    pub fn cancel(&self, id: TimerId) -> bool {
        self.inner.state.lock().tasks.remove(&id).is_some()
    }

    /// Number of live (scheduled, not yet cancelled) entries.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.inner.state.lock().tasks.len()
    }

    /// Total actions run since creation.
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.inner.fired.load(Ordering::Relaxed)
    }

    /// Wake-ups that ran at least one action — `fired() / batches()`
    /// is the coalescing factor.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.inner.batches.load(Ordering::Relaxed)
    }

    /// Stops the service thread, dropping all pending entries. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.inner.state.lock();
            if state.shutdown {
                return;
            }
            state.shutdown = true;
            state.tasks.clear();
            state.heap.clear();
        }
        self.inner.cv.notify_all();
        let handle = self.inner.thread.lock().take();
        if let Some(handle) = handle {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

fn timer_loop(inner: &TimerInner) {
    loop {
        let mut due: Vec<Action> = Vec::new();
        {
            let mut state = inner.state.lock();
            loop {
                if state.shutdown {
                    return;
                }
                let now = Instant::now();
                collect_due(&mut state, now, &mut due);
                if !due.is_empty() {
                    break;
                }
                match state.heap.peek() {
                    Some(&Reverse((at, _, _))) => {
                        let wait = at.saturating_duration_since(Instant::now());
                        if !wait.is_zero() {
                            state = inner.cv.wait_timeout(state, wait).0;
                        }
                    }
                    None => state = inner.cv.wait(state),
                }
            }
        }
        // Run outside the lock: actions may schedule or cancel freely.
        inner.batches.fetch_add(1, Ordering::Relaxed);
        inner.fired.fetch_add(due.len() as u64, Ordering::Relaxed);
        for action in due {
            action();
        }
    }
}

/// Pops every entry due at `now` into `out` and re-arms it, silently
/// dropping cancelled ids.
fn collect_due(state: &mut TimerState, now: Instant, out: &mut Vec<Action>) {
    let mut seq_bump = 0u64;
    while let Some(&Reverse((at, seq, id))) = state.heap.peek() {
        if at > now {
            break;
        }
        state.heap.pop();
        // A missing id was cancelled: a stale heap entry.
        if let Some(task) = state.tasks.get(&id) {
            out.push(Arc::clone(&task.action));
            // Re-arm relative to now so a stalled wheel doesn't
            // burst to catch up; bump seq to keep ordering total.
            seq_bump += 1;
            state
                .heap
                .push(Reverse((now + task.interval, seq + seq_bump, id)));
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A task whose first firing is at `due` and whose second is too far
    /// off to matter: what the tests below count is first firings.
    fn fire_at(wheel: &TimerWheel, due: Instant, action: impl Fn() + Send + Sync + 'static) {
        wheel.insert(
            due,
            Task {
                interval: Duration::from_secs(3600),
                action: Arc::new(action),
            },
        );
    }

    #[test]
    fn timer_actions_inherit_the_schedulers_trace_context() {
        let wheel = TimerWheel::new("t");
        let ctx = trace::root_span();
        let observed = Arc::new(Mutex::new(None));
        {
            let _g = trace::enter(ctx);
            let o = Arc::clone(&observed);
            wheel.schedule_periodic(ms(10), move || {
                *o.lock() = Some(trace::current());
            });
        }
        std::thread::sleep(ms(100));
        assert_eq!(*observed.lock(), Some(Some(ctx)), "lost the trace ctx");
        wheel.shutdown();
    }

    #[test]
    fn deadlines_fire_in_order() {
        let wheel = TimerWheel::new("t");
        let order = Arc::new(Mutex::new(Vec::new()));
        // Schedule out of order; absolute deadlines must sort them.
        let base = Instant::now() + ms(30);
        for (label, offset) in [(3u32, 40), (1, 0), (2, 20)] {
            let o = Arc::clone(&order);
            fire_at(&wheel, base + ms(offset), move || o.lock().push(label));
        }
        std::thread::sleep(ms(200));
        assert_eq!(*order.lock(), vec![1, 2, 3]);
        wheel.shutdown();
    }

    #[test]
    fn identical_deadlines_coalesce_into_one_batch() {
        let wheel = TimerWheel::new("t");
        let hits = Arc::new(AtomicUsize::new(0));
        let due = Instant::now() + ms(40);
        for _ in 0..64 {
            let h = Arc::clone(&hits);
            fire_at(&wheel, due, move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        std::thread::sleep(ms(200));
        assert_eq!(hits.load(Ordering::SeqCst), 64);
        assert_eq!(wheel.fired(), 64);
        // All 64 shared one deadline: far fewer wake-ups than firings.
        assert!(
            wheel.batches() <= 4,
            "64 coincident deadlines took {} batches",
            wheel.batches()
        );
        wheel.shutdown();
    }

    #[test]
    fn cancel_prevents_firing_and_reports_liveness() {
        let wheel = TimerWheel::new("t");
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let id = wheel.schedule_periodic(ms(50), move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert!(wheel.cancel(id), "entry was pending");
        assert!(!wheel.cancel(id), "second cancel is a no-op");
        std::thread::sleep(ms(120));
        assert_eq!(hits.load(Ordering::SeqCst), 0, "cancelled action ran");
        assert_eq!(wheel.pending(), 0);
        wheel.shutdown();
    }

    #[test]
    fn past_deadline_fires_instead_of_being_dropped() {
        // Clock-skew tolerance: a deadline computed from a stale or
        // skewed monotonic reading may already be in the past.
        let wheel = TimerWheel::new("t");
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        fire_at(&wheel, Instant::now() - Duration::from_secs(5), move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        std::thread::sleep(ms(100));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        wheel.shutdown();
    }

    #[test]
    fn periodic_fires_repeatedly_until_cancelled() {
        let wheel = TimerWheel::new("t");
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let id = wheel.schedule_periodic(ms(10), move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        std::thread::sleep(ms(150));
        let seen = hits.load(Ordering::SeqCst);
        assert!(seen >= 3, "periodic fired only {seen} times");
        assert!(wheel.cancel(id));
        let at_cancel = hits.load(Ordering::SeqCst);
        std::thread::sleep(ms(60));
        assert!(
            hits.load(Ordering::SeqCst) <= at_cancel + 1,
            "periodic kept firing after cancel"
        );
        assert_eq!(wheel.pending(), 0);
        wheel.shutdown();
    }

    #[test]
    fn shutdown_drops_pending_and_is_idempotent() {
        let wheel = TimerWheel::new("t");
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        wheel.schedule_periodic(ms(50), move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        wheel.shutdown();
        wheel.shutdown();
        std::thread::sleep(ms(100));
        assert_eq!(hits.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn actions_can_reschedule_from_the_timer_thread() {
        let wheel = TimerWheel::new("t");
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let w = wheel.clone();
        // The outer task's first firing schedules the inner one, from the
        // timer thread and with the state lock released.
        fire_at(&wheel, Instant::now() + ms(10), move || {
            let h = Arc::clone(&h);
            w.schedule_periodic(ms(10), move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        });
        std::thread::sleep(ms(150));
        assert!(hits.load(Ordering::SeqCst) >= 2, "inner task never ran");
        assert_eq!(wheel.pending(), 2);
        wheel.shutdown();
    }
}
