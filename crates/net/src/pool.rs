//! Grow-on-demand worker pool for request dispatch.
//!
//! SyD request handlers routinely perform *nested* remote calls: deleting a
//! link cascades `deleteLink` invocations to peer devices (§4.2 op. 4), and
//! a negotiation triggered inside a handler fans out to every linked entity.
//! If a device served requests on one thread, a call cycle (A serves a
//! request, calls B, B calls back into A) would deadlock. The pool therefore
//! grows a new worker whenever a job arrives and no worker is idle, up to a
//! generous cap, and idle workers retire after a keep-alive — the classic
//! "cached thread pool" shape.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use syd_telemetry::trace;
use syd_types::queue::{self, Receiver, RecvError, Sender};
use syd_types::sync::Mutex;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolInner {
    tx: Mutex<Option<Sender<Job>>>,
    rx: Receiver<Job>,
    idle: AtomicUsize,
    live: AtomicUsize,
    peak_live: AtomicUsize,
    executed: AtomicUsize,
    max_workers: usize,
    keepalive: Duration,
    name: String,
    shutdown: AtomicBool,
    /// `executed` as of the previous [`WorkerPool::kick`]; a kick that
    /// sees no progress and no idle worker grows the pool past the cap.
    last_kick_executed: AtomicUsize,
}

/// A dynamically sized thread pool. Cloning shares the pool.
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl WorkerPool {
    /// Creates a pool that may grow to `max_workers` threads. Workers idle
    /// for longer than `keepalive` retire (one worker is always retained
    /// while the pool is live).
    pub fn new(name: impl Into<String>, max_workers: usize, keepalive: Duration) -> Self {
        assert!(max_workers >= 1, "pool needs at least one worker");
        let (tx, rx) = queue::channel();
        WorkerPool {
            inner: Arc::new(PoolInner {
                tx: Mutex::new(Some(tx)),
                rx,
                idle: AtomicUsize::new(0),
                live: AtomicUsize::new(0),
                peak_live: AtomicUsize::new(0),
                executed: AtomicUsize::new(0),
                max_workers,
                keepalive,
                name: name.into(),
                shutdown: AtomicBool::new(false),
                last_kick_executed: AtomicUsize::new(0),
            }),
        }
    }

    /// Pool sized for a shared fleet runtime: a small fixed budget that
    /// many devices multiplex over. The cap is soft — see
    /// [`WorkerPool::kick`] — so nested call cycles between devices on
    /// the *same* pool cannot deadlock it.
    pub fn for_runtime(name: impl Into<String>) -> Self {
        Self::new(name, 48, Duration::from_millis(500))
    }

    /// Submits a job. Returns `false` if the pool is shut down.
    ///
    /// The submitter's trace context (if any) is captured here and
    /// re-entered around the job on the worker thread, so work handed
    /// across the pool boundary stays attributed to its trace.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> bool {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return false;
        }
        let ctx = trace::current();
        let job = move || {
            let _span = ctx.map(trace::enter);
            job();
        };
        {
            let guard = inner.tx.lock();
            let Some(tx) = guard.as_ref() else {
                return false;
            };
            if tx.send(Box::new(job)).is_err() {
                return false;
            }
        }
        // Grow if nobody is idle to pick the job up. The check is racy in
        // the benign direction: at worst we spawn one extra worker (capped),
        // never strand a job — a busy worker will still drain the queue.
        if inner.idle.load(Ordering::Acquire) == 0 {
            self.try_spawn_worker();
        }
        true
    }

    fn try_spawn_worker(&self) {
        let inner = &self.inner;
        let mut live = inner.live.load(Ordering::Acquire);
        loop {
            if live >= inner.max_workers {
                return;
            }
            match inner
                .live
                .compare_exchange(live, live + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(actual) => live = actual,
            }
        }
        self.spawn_worker(live + 1);
    }

    fn spawn_worker(&self, live_after: usize) {
        let inner = &self.inner;
        inner.peak_live.fetch_max(live_after, Ordering::AcqRel);
        let worker_inner = Arc::clone(inner);
        let name = format!("{}-w{}", inner.name, live_after - 1);
        // A pool that cannot grow a worker deadlocks its callers:
        // spawn failure is unrecoverable, panicking is the contract.
        #[allow(clippy::expect_used)]
        std::thread::Builder::new()
            .name(name)
            .spawn(move || worker_loop(worker_inner))
            .expect("spawn pool worker");
    }

    /// Liveness watchdog hook for shared pools (called periodically by
    /// the runtime's loop). When jobs are queued, no worker is
    /// idle, and *nothing has completed since the previous kick*, every
    /// worker is blocked inside a job — for SyD that means nested RPCs
    /// whose replies are themselves stuck in this queue. One extra
    /// worker is spawned **past the cap** to restore progress; surplus
    /// workers retire through the normal keep-alive path.
    pub fn kick(&self) {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) || inner.rx.is_empty() {
            return;
        }
        if inner.idle.load(Ordering::Acquire) > 0 {
            return;
        }
        let executed = inner.executed.load(Ordering::Acquire);
        if inner.last_kick_executed.swap(executed, Ordering::AcqRel) != executed {
            return; // progress since the last kick: not stalled
        }
        let live = inner.live.fetch_add(1, Ordering::AcqRel);
        self.spawn_worker(live + 1);
    }

    /// Jobs accepted but not yet picked up by a worker.
    pub fn queued_jobs(&self) -> usize {
        self.inner.rx.len()
    }

    /// Number of threads currently alive.
    pub fn live_workers(&self) -> usize {
        self.inner.live.load(Ordering::Acquire)
    }

    /// Highest number of threads ever alive at once.
    pub fn peak_workers(&self) -> usize {
        self.inner.peak_live.load(Ordering::Acquire)
    }

    /// Total jobs completed.
    pub fn jobs_executed(&self) -> usize {
        self.inner.executed.load(Ordering::Acquire)
    }

    /// Stops accepting jobs and lets workers drain the queue and exit.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Dropping the sender disconnects the channel once drained.
        self.inner.tx.lock().take();
    }
}

fn worker_loop(inner: Arc<PoolInner>) {
    /// Takes the thread off `live` however it ends: a job that unwinds
    /// costs the pool a thread, not one of its `max_workers` slots.
    struct Live<'a>(&'a AtomicUsize);
    impl Drop for Live<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::AcqRel);
        }
    }
    let _live = Live(&inner.live);
    loop {
        inner.idle.fetch_add(1, Ordering::AcqRel);
        let job = inner.rx.recv_timeout(inner.keepalive);
        inner.idle.fetch_sub(1, Ordering::AcqRel);
        match job {
            Ok(job) => {
                job();
                inner.executed.fetch_add(1, Ordering::AcqRel);
            }
            Err(RecvError::Empty) => {
                // Retire surplus workers; keep one resident while live.
                if inner.live.load(Ordering::Acquire) > 1 || inner.shutdown.load(Ordering::Acquire)
                {
                    break;
                }
            }
            Err(RecvError::Disconnected) => break,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Last application handle (workers hold `PoolInner`, not the pool):
        // shut down so worker threads exit instead of idling forever.
        if Arc::strong_count(&self.inner) <= 1 {
            self.shutdown();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    #[test]
    fn executes_jobs() {
        let pool = WorkerPool::new("t", 4, Duration::from_millis(100));
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..20 {
            let c = Arc::clone(&counter);
            assert!(pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while counter.load(Ordering::SeqCst) < 20 {
            assert!(std::time::Instant::now() < deadline, "jobs did not finish");
            std::thread::yield_now();
        }
        assert_eq!(pool.jobs_executed(), 20);
    }

    #[test]
    fn jobs_inherit_the_submitters_trace_context() {
        let pool = WorkerPool::new("t", 2, Duration::from_millis(100));
        let ctx = trace::root_span();
        let _g = trace::enter(ctx);
        let (tx, rx) = queue::channel();
        pool.execute(move || {
            let _ = tx.send(trace::current());
        });
        let observed = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(observed, Some(ctx), "trace ctx lost across pool dispatch");
    }

    #[test]
    fn untraced_jobs_stay_untraced() {
        let pool = WorkerPool::new("t", 2, Duration::from_millis(100));
        let (tx, rx) = queue::channel();
        pool.execute(move || {
            let _ = tx.send(trace::current());
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), None);
    }

    #[test]
    fn grows_under_blocking_load() {
        let pool = WorkerPool::new("t", 16, Duration::from_millis(100));
        let (release_tx, release_rx) = queue::channel::<()>();
        let started = Arc::new(AtomicU32::new(0));
        // 8 jobs that all block until released: pool must grow past 1 worker.
        for _ in 0..8 {
            let rx = release_rx.clone();
            let started = Arc::clone(&started);
            pool.execute(move || {
                started.fetch_add(1, Ordering::SeqCst);
                let _ = rx.recv();
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while started.load(Ordering::SeqCst) < 8 {
            assert!(std::time::Instant::now() < deadline, "pool failed to grow");
            std::thread::yield_now();
        }
        assert!(pool.peak_workers() >= 8);
        drop(release_tx);
    }

    #[test]
    fn respects_max_workers() {
        let pool = WorkerPool::new("t", 2, Duration::from_millis(50));
        let (release_tx, release_rx) = queue::channel::<()>();
        for _ in 0..6 {
            let rx = release_rx.clone();
            pool.execute(move || {
                let _ = rx.recv();
            });
        }
        std::thread::sleep(Duration::from_millis(100));
        assert!(pool.live_workers() <= 2);
        drop(release_tx);
    }

    #[test]
    fn shutdown_rejects_new_jobs() {
        let pool = WorkerPool::new("t", 2, Duration::from_millis(50));
        pool.shutdown();
        assert!(!pool.execute(|| {}));
    }

    #[test]
    fn shutdown_completes_accepted_jobs_and_rejects_later_ones() {
        // The drain contract: every job accepted before shutdown runs to
        // completion; every submission after returns `false`. Nothing is
        // silently dropped in between.
        let pool = WorkerPool::new("t", 2, Duration::from_millis(50));
        let done = Arc::new(AtomicU32::new(0));
        let mut accepted = 0u32;
        for _ in 0..50 {
            let d = Arc::clone(&done);
            if pool.execute(move || {
                std::thread::sleep(Duration::from_millis(1));
                d.fetch_add(1, Ordering::SeqCst);
            }) {
                accepted += 1;
            }
        }
        pool.shutdown();
        assert!(!pool.execute(|| {}), "job accepted after shutdown");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        // A job is counted after it returns, so the counter trails `done`.
        while pool.jobs_executed() < accepted as usize {
            assert!(
                std::time::Instant::now() < deadline,
                "accepted jobs dropped: {}/{accepted}",
                done.load(Ordering::SeqCst)
            );
            std::thread::yield_now();
        }
        assert_eq!(done.load(Ordering::SeqCst), accepted);
    }

    #[test]
    fn shutdown_lets_workers_exit() {
        let pool = WorkerPool::new("t", 4, Duration::from_secs(60));
        for _ in 0..4 {
            pool.execute(|| {});
        }
        pool.shutdown();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.live_workers() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "{} workers outlived shutdown",
                pool.live_workers()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn kick_grows_past_the_cap_only_when_stalled() {
        let pool = WorkerPool::new("t", 2, Duration::from_millis(100));
        // Empty queue: kick must not spawn anything.
        pool.kick();
        assert_eq!(pool.live_workers(), 0);

        // Wedge both workers and queue a third job.
        let (release_tx, release_rx) = queue::channel::<()>();
        let started = Arc::new(AtomicU32::new(0));
        for _ in 0..3 {
            let rx = release_rx.clone();
            let s = Arc::clone(&started);
            pool.execute(move || {
                s.fetch_add(1, Ordering::SeqCst);
                let _ = rx.recv();
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while started.load(Ordering::SeqCst) < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "workers never started"
            );
            std::thread::yield_now();
        }
        assert_eq!(pool.live_workers(), 2, "cap respected before kick");
        assert_eq!(pool.queued_jobs(), 1);
        // Genuine stall (no progress, nobody idle, work queued): the
        // watchdog's kick breaks it by spawning one worker past the cap.
        pool.kick();
        while started.load(Ordering::SeqCst) < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "kick did not spawn an overflow worker"
            );
            std::thread::yield_now();
        }
        assert!(pool.peak_workers() >= 3, "overflow worker not counted");
        drop(release_tx);
    }

    #[test]
    fn a_job_that_unwinds_costs_a_thread_not_a_pool_slot() {
        // One slot: if the dead worker kept it, nothing could run again.
        let pool = WorkerPool::new("t", 1, Duration::from_millis(50));
        assert_eq!(pool.live_workers(), 0);
        pool.execute(|| panic!("job unwinds (expected by this test)"));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while pool.live_workers() != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the pool still counts its dead worker as alive"
            );
            std::thread::yield_now();
        }
        let (tx, rx) = queue::channel();
        pool.execute(move || {
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(2))
            .expect("the slot of the dead worker was not reused");
    }

    #[test]
    fn workers_retire_after_keepalive() {
        let pool = WorkerPool::new("t", 8, Duration::from_millis(20));
        let (release_tx, release_rx) = queue::channel::<()>();
        for _ in 0..4 {
            let rx = release_rx.clone();
            pool.execute(move || {
                let _ = rx.recv();
            });
        }
        std::thread::sleep(Duration::from_millis(50));
        drop(release_tx); // release all workers
        std::thread::sleep(Duration::from_millis(300));
        assert!(
            pool.live_workers() <= 1,
            "expected retirement, {} live",
            pool.live_workers()
        );
    }
}
