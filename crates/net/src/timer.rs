//! The runtime loop's clock: one due-ordered heap of periodic tasks and
//! endpoint wake-ups.
//!
//! [`Timers`] is plain data — no thread, no lock. The runtime keeps one
//! under its loop's lock ([`crate::runtime`]), sleeps until
//! [`Timers::next_due`], and runs what [`Timers::collect_due`] hands back
//! outside the lock. Two kinds of entry share the heap:
//!
//! * **periodic tasks** — every device's link-expiry and stale-session
//!   sweeps and the pool watchdog, re-armed after each firing until
//!   cancelled by id. Cancelled ids leave stale heap entries behind that
//!   are skipped at pop time, which keeps [`Timers::cancel`] O(1).
//! * **wake-ups** — an endpoint whose next event falls due later (a sim
//!   frame in flight) asks to be drained then; the drain re-arms for
//!   whatever is still in flight. Wake-ups that fall due together drain
//!   their endpoint once.
//!
//! An RPC's deadline is not here — it is the wait of the thread that made
//! the call ([`crate::Node::call_many`]).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use syd_types::NodeAddr;

/// Handle to a periodic task; used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(u64);

/// A periodic task's body.
pub(crate) type Action = Arc<dyn Fn() + Send + Sync>;

/// Re-armed after every firing until cancelled.
struct Task {
    interval: Duration,
    action: Action,
}

/// What falls due at a heap entry.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Entry {
    Task(TimerId),
    Wake(NodeAddr),
}

/// The heap and its live entries.
#[derive(Default)]
pub(crate) struct Timers {
    /// Min-heap of (due, seq, entry). `seq` makes ordering total and FIFO
    /// among entries with identical deadlines.
    heap: BinaryHeap<Reverse<(Instant, u64, Entry)>>,
    /// Live tasks; an id present in `heap` but absent here was cancelled.
    tasks: HashMap<TimerId, Task>,
    next_seq: u64,
    next_id: u64,
}

impl Timers {
    fn push(&mut self, at: Instant, entry: Entry) {
        self.next_seq += 1;
        self.heap.push(Reverse((at, self.next_seq, entry)));
    }

    /// Files a task whose first firing is at `first` and which re-arms
    /// `interval` after each firing. A `first` already in the past fires
    /// on the next collection rather than being dropped.
    pub(crate) fn schedule(
        &mut self,
        first: Instant,
        interval: Duration,
        action: Action,
    ) -> TimerId {
        self.next_id += 1;
        let id = TimerId(self.next_id);
        self.tasks.insert(id, Task { interval, action });
        self.push(first, Entry::Task(id));
        id
    }

    /// Cancels a task, handing back its action if it was still scheduled
    /// (the caller drops it once its lock is released).
    pub(crate) fn cancel(&mut self, id: TimerId) -> Option<Action> {
        self.tasks.remove(&id).map(|task| task.action)
    }

    /// Number of live (scheduled, not yet cancelled) tasks.
    pub(crate) fn pending(&self) -> usize {
        self.tasks.len()
    }

    /// Arms a wake-up for `addr` at `at`.
    pub(crate) fn wake_at(&mut self, addr: NodeAddr, at: Instant) {
        self.push(at, Entry::Wake(addr));
    }

    /// When the head entry falls due, if there is one.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((at, ..))| *at)
    }

    /// Pops every entry due at `now`: task actions go to `run`, re-armed
    /// `interval` from `now` (a stalled loop does not burst to catch up);
    /// endpoints whose wake-up fell due go to `woken`.
    pub(crate) fn collect_due(
        &mut self,
        now: Instant,
        run: &mut Vec<Action>,
        woken: &mut impl FnMut(NodeAddr),
    ) {
        while let Some(Reverse((at, _, _))) = self.heap.peek() {
            if *at > now {
                break;
            }
            let Some(Reverse((_, _, entry))) = self.heap.pop() else {
                break;
            };
            match entry {
                Entry::Task(id) => {
                    if let Some(task) = self.tasks.get(&id) {
                        run.push(Arc::clone(&task.action));
                        let next = now + task.interval;
                        self.push(next, Entry::Task(id));
                    }
                }
                Entry::Wake(addr) => woken(addr),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use syd_telemetry::trace;
    use syd_types::sync::Mutex;

    use crate::runtime::SharedRuntime;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A task whose first firing is at `due` and whose second is too far
    /// off to matter: what the tests below count is first firings.
    fn fire_at(timers: &mut Timers, due: Instant, action: impl Fn() + Send + Sync + 'static) {
        timers.schedule(due, Duration::from_secs(3600), Arc::new(action));
    }

    /// Runs what is due at `now`; returns how many actions ran.
    fn tick(timers: &mut Timers, now: Instant) -> usize {
        let mut run = Vec::new();
        timers.collect_due(now, &mut run, &mut |_| {});
        for action in &run {
            action();
        }
        run.len()
    }

    /// Waits up to 2 s for `cond`.
    fn eventually(cond: impl Fn() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while !cond() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(ms(2));
        }
    }

    #[test]
    fn timer_actions_inherit_the_schedulers_trace_context() {
        let rt = SharedRuntime::new("t");
        let ctx = trace::root_span();
        let observed = Arc::new(Mutex::new(None));
        {
            let _g = trace::enter(ctx);
            let o = Arc::clone(&observed);
            rt.schedule_periodic(ms(10), move || {
                *o.lock() = Some(trace::current());
            });
        }
        eventually(|| observed.lock().is_some(), "the task never ran");
        assert_eq!(*observed.lock(), Some(Some(ctx)), "lost the trace ctx");
    }

    #[test]
    fn deadlines_fire_in_order() {
        let mut timers = Timers::default();
        let order = Arc::new(Mutex::new(Vec::new()));
        // Schedule out of order; absolute deadlines must sort them.
        let base = Instant::now();
        for (label, offset) in [(3u32, 40), (1, 0), (2, 20)] {
            let o = Arc::clone(&order);
            fire_at(&mut timers, base + ms(offset), move || o.lock().push(label));
        }
        for offset in [0, 20, 40] {
            assert_eq!(tick(&mut timers, base + ms(offset)), 1);
        }
        assert_eq!(*order.lock(), vec![1, 2, 3]);
        // Each re-armed an interval after its firing; the first is next.
        assert_eq!(timers.next_due(), Some(base + Duration::from_secs(3600)));
    }

    #[test]
    fn identical_deadlines_coalesce_into_one_batch() {
        let mut timers = Timers::default();
        let due = Instant::now() + ms(40);
        for _ in 0..64 {
            fire_at(&mut timers, due, || {});
        }
        assert_eq!(tick(&mut timers, due - ms(1)), 0, "nothing is due yet");
        // One collection takes all 64: one wake-up of the loop, not 64.
        assert_eq!(tick(&mut timers, due), 64);
    }

    #[test]
    fn cancel_prevents_firing_and_reports_liveness() {
        let mut timers = Timers::default();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let now = Instant::now();
        let id = timers.schedule(
            now + ms(50),
            ms(50),
            Arc::new(move || {
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert!(timers.cancel(id).is_some(), "entry was pending");
        assert!(timers.cancel(id).is_none(), "second cancel is a no-op");
        assert_eq!(tick(&mut timers, now + ms(120)), 0);
        assert_eq!(hits.load(Ordering::SeqCst), 0, "cancelled action ran");
        assert_eq!(timers.pending(), 0);
        assert_eq!(timers.next_due(), None, "the stale entry was popped");
    }

    #[test]
    fn past_deadline_fires_instead_of_being_dropped() {
        // Clock-skew tolerance: a deadline computed from a stale or
        // skewed monotonic reading may already be in the past.
        let mut timers = Timers::default();
        let now = Instant::now();
        fire_at(&mut timers, now - Duration::from_secs(5), || {});
        assert_eq!(tick(&mut timers, now), 1);
    }

    #[test]
    fn periodic_fires_repeatedly_until_cancelled() {
        let mut timers = Timers::default();
        let base = Instant::now();
        let id = timers.schedule(base + ms(10), ms(10), Arc::new(|| {}));
        let mut fired = 0;
        for step in 1..=5 {
            fired += tick(&mut timers, base + ms(10 * step));
        }
        assert_eq!(fired, 5, "re-armed from each firing");
        assert!(timers.cancel(id).is_some());
        assert_eq!(tick(&mut timers, base + ms(100)), 0);
        assert_eq!(timers.pending(), 0);
    }

    #[test]
    fn shutdown_drops_pending_and_is_idempotent() {
        let rt = SharedRuntime::new("t");
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        rt.schedule_periodic(ms(50), move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        // Dropping the last handle stops the loop and drops its tasks.
        drop(rt);
        std::thread::sleep(ms(100));
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert_eq!(Arc::strong_count(&hits), 1, "the task was not dropped");
    }

    #[test]
    fn actions_can_reschedule_from_the_timer_thread() {
        let rt = SharedRuntime::new("t");
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let inner_rt = rt.clone();
        // The outer task's first firing schedules the inner one, from the
        // loop thread and with the loop's lock released.
        let outer = Arc::new(Mutex::new(None));
        let o = Arc::clone(&outer);
        *outer.lock() = Some(rt.schedule_periodic(ms(10), move || {
            if let Some(id) = o.lock().take() {
                inner_rt.cancel_periodic(id);
                let h = Arc::clone(&h);
                inner_rt.schedule_periodic(ms(10), move || {
                    h.fetch_add(1, Ordering::SeqCst);
                });
            }
        }));
        eventually(|| hits.load(Ordering::SeqCst) >= 2, "inner task never ran");
        // The watchdog and the inner task.
        assert_eq!(rt.periodic_tasks(), 2);
    }

    #[test]
    fn wake_ups_fall_due_in_order() {
        let mut timers = Timers::default();
        let (a, b, now) = (NodeAddr::new(1), NodeAddr::new(2), Instant::now());
        timers.wake_at(a, now + ms(20));
        timers.wake_at(b, now + ms(10));
        let woken = |timers: &mut Timers, at: Instant| {
            let mut out = Vec::new();
            timers.collect_due(at, &mut Vec::new(), &mut |addr| out.push(addr));
            out
        };
        assert_eq!(woken(&mut timers, now + ms(10)), vec![b]);
        assert_eq!(woken(&mut timers, now + ms(30)), vec![a]);
        assert_eq!(timers.next_due(), None);
    }
}
