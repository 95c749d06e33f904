//! The worker pool request dispatch runs on: one running worker per core,
//! and a turn handed on by every job that waits.
//!
//! SyD request handlers routinely perform *nested* remote calls: deleting a
//! link cascades `deleteLink` invocations to peer devices (§4.2 op. 4), and
//! a negotiation triggered inside a handler fans out to every linked entity.
//! If a device served requests on one thread, a call cycle (A serves a
//! request, calls B, B calls back into A) would deadlock. So a job that
//! waits must not hold one of the pool's turns while it does.
//!
//! The pool keeps at most `workers` (N) workers *running*. A worker that
//! finishes a job takes the next one without a wake-up while no more than
//! N run; otherwise it parks. Every wait a job makes through
//! [`syd_types::sync`] — a condvar wait, or a call wrapped in
//! [`syd_types::sync::blocking`] — is announced to the pool through the
//! worker's blocking hook: the waiting worker stops counting as running
//! and, with work queued, a parked or a new worker takes its turn. When the
//! wait is over the worker runs on alongside the others until the count
//! falls back to N. Workers exist only for turns and announced waits, up to
//! `max_workers` alive; parked workers retire after a keep-alive.
//!
//! A job is submitted with a hand-off of its own ([`WorkerPool::execute`])
//! or queued without one ([`WorkerPool::queue`]), to be handed out with
//! the jobs queued beside it by one [`WorkerPool::hand_off`]: the runtime's
//! loop queues what it drains and hands off once per pass, so a burst of
//! requests costs the wake-ups of the turns it needs, not one per request.
//!
//! A request to serve is queued as it is, a typed `Job::Serve` that
//! enters the request's own trace context; every other job is a boxed
//! closure run under the trace context its submitter had.
//!
//! A wait nobody announced (a bare `thread::sleep`, a foreign channel)
//! keeps its turn. For those, [`WorkerPool::kick`] is the backstop: queued
//! work and no job finished since the previous kick grows the pool by one
//! turn, past both caps.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use syd_telemetry::{trace, SpanCtx};
use syd_types::sync::{set_blocking_hook, BlockingHook, Condvar, Mutex, MutexGuard, Rank};
use syd_types::SimClock;

use crate::node::Serve;

/// What a worker runs.
// A request is moved into the queue and out once; boxing it is the
// allocation the typed job exists to save.
#[allow(clippy::large_enum_variant)]
enum Job {
    /// A request received or made to oneself: one per request, so it is
    /// queued without a box of its own.
    Serve(Serve),
    /// Any other work, and the trace context its submitter had.
    Run(Option<SpanCtx>, Box<dyn FnOnce() + Send + 'static>),
}

impl Job {
    fn run(self) {
        match self {
            Job::Serve(serve) => serve.run(),
            Job::Run(ctx, job) => {
                let _span = ctx.map(trace::enter);
                job();
            }
        }
    }
}

struct State {
    queue: VecDeque<Job>,
    /// Workers holding a turn: running a job, about to take one, or just
    /// started or woken to. A worker inside an announced wait holds none.
    running: usize,
    /// Workers parked on `wake` that no turn was handed to yet.
    parked: usize,
    /// Turns handed to parked workers that none has woken to take yet.
    wakeups: usize,
    live: usize,
    shutdown: bool,
    peak_live: usize,
    executed: usize,
    /// `executed` as of the previous [`WorkerPool::kick`]; a kick that
    /// sees no progress grows the pool past its caps.
    last_kick_executed: usize,
}

struct PoolInner {
    /// The innermost lock ([`Rank::Pool`]): taken by the blocking hook
    /// while the waiter still holds its own mutex.
    state: Mutex<State>,
    /// Waited on unannounced ([`Condvar::idle`]): a parked worker holds
    /// no turn to hand on.
    wake: Condvar,
    workers: usize,
    max_workers: usize,
    keepalive: Duration,
    name: String,
    /// Its runtime's virtual clock, told when the pool falls quiet.
    sim: Option<SimClock>,
}

/// A thread pool that runs at most N jobs at once but never lets a waiting
/// job hold up the queue. Cloning shares the pool.
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl WorkerPool {
    /// Creates a pool that runs at most `workers` jobs at once and keeps
    /// at most `max_workers` threads alive. Workers parked for longer than
    /// `keepalive` retire (one is retained while the pool is live).
    pub fn new(
        name: impl Into<String>,
        workers: usize,
        max_workers: usize,
        keepalive: Duration,
    ) -> Self {
        assert!(
            workers >= 1 && max_workers >= workers,
            "pool needs at least one worker"
        );
        WorkerPool {
            inner: Arc::new(PoolInner {
                state: Mutex::new(
                    Rank::Pool,
                    State {
                        queue: VecDeque::new(),
                        running: 0,
                        parked: 0,
                        wakeups: 0,
                        live: 0,
                        shutdown: false,
                        peak_live: 0,
                        executed: 0,
                        last_kick_executed: 0,
                    },
                ),
                wake: Condvar::new(),
                workers,
                max_workers,
                keepalive,
                name: name.into(),
                sim: None,
            }),
        }
    }

    /// Pool for a shared fleet runtime: one running worker per hardware
    /// thread, and up to 48 alive for the jobs that wait. The second cap
    /// is soft — see [`WorkerPool::kick`] — so nested call cycles between
    /// devices on the *same* pool cannot deadlock it.
    /// On a virtual clock `sim`, it tells it each time it falls quiet.
    pub fn for_runtime(name: impl Into<String>, sim: Option<SimClock>) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let mut pool = Self::new(name, cores, 48.max(cores), Duration::from_millis(500));
        if let Some(inner) = Arc::get_mut(&mut pool.inner) {
            inner.sim = sim;
        }
        pool
    }

    /// Submits a job and hands it a turn if the pool has one free.
    /// Returns `false` if the pool is shut down.
    ///
    /// The submitter's trace context (if any) is captured here and
    /// re-entered around the job on the worker thread, so work handed
    /// across the pool boundary stays attributed to its trace.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> bool {
        self.submit(Job::Run(trace::current(), Box::new(job)), 1)
    }

    /// Queues a job without a hand-off: a running worker picks it up
    /// without a wake, and the submitter's next [`WorkerPool::hand_off`]
    /// hands out the turns it still needs. Returns `false` if the pool is
    /// shut down. Captures the trace context as [`WorkerPool::execute`]
    /// does.
    pub fn queue(&self, job: impl FnOnce() + Send + 'static) -> bool {
        self.submit(Job::Run(trace::current(), Box::new(job)), 0)
    }

    /// Submits a request to serve, queued as [`WorkerPool::queue`] does
    /// when `queued`, else handed a turn as [`WorkerPool::execute`] does.
    /// Returns `false` if the pool is shut down. The request carries its
    /// own trace context; nothing is captured here.
    pub(crate) fn serve(&self, job: Serve, queued: bool) -> bool {
        self.submit(Job::Serve(job), usize::from(!queued))
    }

    /// Hands out the turns the queued jobs need — one per queued job while
    /// the pool runs fewer than N — waking parked workers or starting new
    /// ones. Allocates nothing.
    pub fn hand_off(&self) {
        let mut state = self.inner.state.lock();
        let start = self.inner.hand_on(&mut state, usize::MAX);
        drop(state);
        self.inner.start(start);
    }

    /// Queues `job` and hands out at most `turns` turns.
    fn submit(&self, job: Job, turns: usize) -> bool {
        let inner = &self.inner;
        let mut state = inner.state.lock();
        if state.shutdown {
            return false;
        }
        state.queue.push_back(job);
        let start = inner.hand_on(&mut state, turns);
        drop(state);
        inner.start(start);
        true
    }

    /// Liveness watchdog hook for shared pools (called periodically by
    /// the runtime's loop). When jobs are queued and *nothing has
    /// completed since the previous kick*, every turn is held by a job
    /// that waits without announcing it, or every worker the cap allows
    /// is in an announced wait — for SyD, nested RPCs whose replies are
    /// themselves stuck in this queue. One more turn is handed out
    /// **past both caps** to restore progress; the extra worker parks or
    /// retires through the normal paths.
    pub fn kick(&self) {
        let mut state = self.inner.state.lock();
        if state.shutdown || state.queue.is_empty() {
            return;
        }
        let executed = state.executed;
        if std::mem::replace(&mut state.last_kick_executed, executed) != executed {
            return; // progress since the last kick: not stalled
        }
        let live = state.live;
        self.inner.add_turn(&mut state);
        let start = live..state.live;
        drop(state);
        self.inner.start(start);
    }

    /// No job holds a turn or waits for one.
    pub fn is_quiet(&self) -> bool {
        let state = self.inner.state.lock();
        state.running == 0 && state.queue.is_empty()
    }

    /// Jobs accepted but not yet picked up by a worker.
    pub fn queued_jobs(&self) -> usize {
        self.inner.state.lock().queue.len()
    }

    /// Number of threads currently alive.
    pub fn live_workers(&self) -> usize {
        self.inner.state.lock().live
    }

    /// Highest number of threads ever alive at once.
    pub fn peak_workers(&self) -> usize {
        self.inner.state.lock().peak_live
    }

    /// Total jobs completed.
    pub fn jobs_executed(&self) -> usize {
        self.inner.state.lock().executed
    }

    /// Stops accepting jobs and lets workers drain the queue and exit.
    pub fn shutdown(&self) {
        self.inner.state.lock().shutdown = true;
        self.inner.wake.notify_all();
    }
}

impl PoolInner {
    /// Starts the workers `hand_on` or `add_turn` counted in, outside the
    /// pool's lock.
    fn start(self: &Arc<Self>, workers: Range<usize>) {
        for index in workers {
            let inner = Arc::clone(self);
            // A pool that cannot grow a worker deadlocks its callers:
            // spawn failure is unrecoverable, panicking is the contract.
            #[allow(clippy::expect_used)]
            std::thread::Builder::new()
                .name(format!("{}-w{index}", self.name))
                .spawn(move || worker_loop(&inner))
                .expect("spawn pool worker");
        }
    }

    /// Gives up the calling worker's turn, and with `retire` its thread:
    /// with work queued, a parked or a new worker takes the turn.
    fn pass_turn(self: &Arc<Self>, retire: bool) {
        let mut state = self.state.lock();
        state.running -= 1;
        state.live -= usize::from(retire);
        let start = self.hand_on(&mut state, 1);
        let quiet = state.running == 0;
        drop(state);
        self.start(start);
        if quiet {
            self.fell_quiet();
        }
    }

    /// Tells a virtual clock's loop that the pool fell quiet.
    fn fell_quiet(&self) {
        if let Some(sim) = &self.sim {
            sim.kick();
        }
    }

    /// Hands up to `turns` turns to queued jobs, one per job, while the
    /// pool runs fewer than N jobs and may wake or start a worker. Returns
    /// the indices of the workers to start.
    fn hand_on(&self, state: &mut State, turns: usize) -> Range<usize> {
        let live = state.live;
        for _ in 0..turns.min(state.queue.len()) {
            let free =
                state.running < self.workers && (state.parked > 0 || state.live < self.max_workers);
            if !free {
                break;
            }
            self.add_turn(state);
        }
        live..state.live
    }

    /// One more turn: to a parked worker if there is one, else to a new
    /// worker, counted into `live` for `start`.
    fn add_turn(&self, state: &mut State) {
        state.running += 1;
        if state.parked > 0 {
            state.parked -= 1;
            state.wakeups += 1;
            self.wake.notify_one();
            return;
        }
        state.live += 1;
        state.peak_live = state.peak_live.max(state.live);
    }

    /// Parks a worker that gave up its turn until it is handed one
    /// (returns the lock) or retires (`None`, its thread ends).
    fn park<'a>(&'a self, mut state: MutexGuard<'a, State>) -> Option<MutexGuard<'a, State>> {
        loop {
            if state.shutdown {
                if state.queue.is_empty() {
                    state.live -= 1;
                    return None;
                }
                // Draining after shutdown: every worker helps.
                state.running += 1;
                return Some(state);
            }
            state.parked += 1;
            let timed_out;
            (state, timed_out) = self.wake.idle(state, Some(self.keepalive));
            if state.wakeups > 0 {
                state.wakeups -= 1;
                return Some(state); // handed a turn, already counted
            }
            state.parked -= 1;
            if !state.queue.is_empty() && state.running < self.workers {
                state.running += 1;
                return Some(state);
            }
            // Retire surplus workers; keep one resident while live.
            if timed_out && state.queue.is_empty() && state.live > 1 {
                state.live -= 1;
                return None;
            }
        }
    }
}

/// A worker's blocking hook: the pool it holds its turns of.
struct Worker(Arc<PoolInner>);

impl BlockingHook for Worker {
    /// The worker's job is about to wait: its turn goes to the queue.
    fn enter(&self) {
        self.0.pass_turn(false);
    }

    /// The wait is over: the worker runs again, over the cap if need be.
    fn leave(&self) {
        self.0.state.lock().running += 1;
    }
}

fn worker_loop(inner: &Arc<PoolInner>) {
    /// Gives up the turn and the thread of a worker whose job unwound: a
    /// job that panics costs the pool a thread, not one of its turns.
    struct Unwound<'a>(&'a Arc<PoolInner>);
    impl Drop for Unwound<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.pass_turn(true);
            }
        }
    }
    set_blocking_hook(Some(Arc::new(Worker(Arc::clone(inner)))));
    let _unwound = Unwound(inner);
    let mut state = inner.state.lock();
    loop {
        // This worker holds a turn: run jobs while no more than N do.
        while let Some(job) = state.queue.pop_front() {
            drop(state);
            job.run();
            state = inner.state.lock();
            state.executed += 1;
            if state.running > inner.workers && !state.shutdown {
                break;
            }
        }
        state.running -= 1;
        if state.running == 0 && inner.sim.is_some() {
            drop(state);
            inner.fell_quiet();
            state = inner.state.lock();
        }
        match inner.park(state) {
            Some(turn) => state = turn,
            None => return,
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
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
    use std::time::Instant;
    use syd_types::queue::{self, Sender};
    use syd_types::sync::Rank;

    /// Polls `done` until it holds, failing with `what` after `limit`.
    fn await_until(limit: Duration, what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + limit;
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn executes_jobs() {
        let pool = WorkerPool::new("t", 4, 4, Duration::from_millis(100));
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..20 {
            let c = Arc::clone(&counter);
            assert!(pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        await_until(Duration::from_secs(2), "jobs did not finish", || {
            pool.jobs_executed() == 20
        });
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn jobs_inherit_the_submitters_trace_context() {
        let pool = WorkerPool::new("t", 2, 2, Duration::from_millis(100));
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
        let pool = WorkerPool::new("t", 2, 2, Duration::from_millis(100));
        let (tx, rx) = queue::channel();
        pool.execute(move || {
            let _ = tx.send(trace::current());
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), None);
    }

    #[test]
    fn a_burst_of_short_jobs_runs_on_n_workers() {
        let pool = WorkerPool::new("t", 2, 48, Duration::from_secs(60));
        let now = Arc::new(AtomicUsize::new(0));
        let most = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let (now, most) = (Arc::clone(&now), Arc::clone(&most));
            pool.execute(move || {
                most.fetch_max(now.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                let spin = Instant::now();
                while spin.elapsed() < Duration::from_micros(200) {
                    std::hint::spin_loop();
                }
                now.fetch_sub(1, Ordering::SeqCst);
            });
        }
        await_until(Duration::from_secs(5), "burst did not finish", || {
            pool.jobs_executed() == 32
        });
        assert!(
            most.load(Ordering::SeqCst) <= 2,
            "more than N jobs ran at once"
        );
        assert!(
            pool.peak_workers() <= 2,
            "{} workers started for 2 turns",
            pool.peak_workers()
        );
        pool.shutdown();
    }

    #[test]
    fn a_waiting_job_hands_its_turn_to_the_job_it_waits_for() {
        // One turn and no watchdog: the first job can finish only if its
        // wait lets the second one run.
        let pool = WorkerPool::new("t", 1, 48, Duration::from_secs(60));
        let signal = Arc::new((Mutex::new(Rank::Engine, false), Condvar::new()));
        let (done_tx, done_rx) = queue::channel();
        let waiter = Arc::clone(&signal);
        pool.execute(move || {
            let (flag, cv) = &*waiter;
            let mut set = flag.lock();
            let deadline = Instant::now() + Duration::from_secs(5);
            while !*set && Instant::now() < deadline {
                let wall = &**syd_types::time::wall();
                set = cv
                    .wait_until(set, wall, wall.instant() + Duration::from_millis(50))
                    .0;
            }
            let _ = done_tx.send(*set);
        });
        pool.execute(move || {
            *signal.0.lock() = true;
            signal.1.notify_all();
        });
        let signalled = done_rx.recv_timeout(Duration::from_secs(2));
        assert_eq!(signalled, Ok(true), "the waiting job kept the only turn");
        pool.shutdown();
    }

    /// Frees the jobs parked on its channel and shuts the pool down when it
    /// goes out of scope — on a failed assertion's unwind as on success —
    /// so a failing test leaves no worker parked behind it.
    struct ReleaseParked<'a> {
        pool: &'a WorkerPool,
        release: Option<Sender<()>>,
    }

    impl Drop for ReleaseParked<'_> {
        fn drop(&mut self) {
            drop(self.release.take());
            self.pool.shutdown();
        }
    }

    /// Submits `n` jobs that each count themselves started, then wait on
    /// `release` (an announced wait); returns the started count.
    fn blocking_jobs(
        pool: &WorkerPool,
        release: &queue::Receiver<()>,
        n: usize,
    ) -> Arc<(Mutex<usize>, Condvar)> {
        let started = Arc::new((Mutex::new(Rank::Leaf, 0), Condvar::new()));
        for _ in 0..n {
            let rx = release.clone();
            let started = Arc::clone(&started);
            pool.execute(move || {
                *started.0.lock() += 1;
                started.1.notify_all();
                let _ = rx.recv();
            });
        }
        started
    }

    /// Waits (woken by each start, not spinning) until `n` have started.
    fn await_started(started: &(Mutex<usize>, Condvar), n: usize, limit: Duration) {
        let deadline = Instant::now() + limit;
        let (count, cv) = started;
        let mut seen = count.lock();
        while *seen < n {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "{} of {n} jobs started", *seen);
            let wall = &**syd_types::time::wall();
            seen = cv.wait_until(seen, wall, wall.instant() + left).0;
        }
    }

    #[test]
    fn grows_under_blocking_load() {
        let pool = WorkerPool::new("t", 2, 16, Duration::from_millis(100));
        let (release_tx, release_rx) = queue::channel::<()>();
        let _release = ReleaseParked {
            pool: &pool,
            release: Some(release_tx),
        };
        // 8 jobs that all wait until released: each wait hands its turn
        // on, so the pool grows past its 2 turns. The deadline is
        // generous: a loaded host is slow to start threads, and only a
        // pool that does not grow misses it.
        let started = blocking_jobs(&pool, &release_rx, 8);
        await_started(&started, 8, Duration::from_secs(30));
        assert!(pool.peak_workers() >= 8);
    }

    #[test]
    fn a_burst_behind_an_idle_worker_is_not_stranded() {
        let pool = WorkerPool::new("t", 2, 16, Duration::from_secs(60));
        let (release_tx, release_rx) = queue::channel::<()>();
        let _release = ReleaseParked {
            pool: &pool,
            release: Some(release_tx),
        };
        // One warm worker, parked.
        pool.execute(|| {});
        await_until(Duration::from_secs(2), "no parked worker", || {
            let state = pool.inner.state.lock();
            state.executed == 1 && state.parked == 1
        });
        // Asleep in its wait by now.
        std::thread::sleep(Duration::from_millis(20));
        // A burst of 8 waiting jobs lands before that worker wakes for the
        // first: each must still find a worker. Nothing kicks this pool.
        let started = blocking_jobs(&pool, &release_rx, 8);
        await_started(&started, 8, Duration::from_secs(2));
    }

    #[test]
    fn respects_max_workers() {
        let pool = WorkerPool::new("t", 2, 2, Duration::from_millis(50));
        let (release_tx, release_rx) = queue::channel::<()>();
        let _release = ReleaseParked {
            pool: &pool,
            release: Some(release_tx),
        };
        let started = blocking_jobs(&pool, &release_rx, 6);
        await_started(&started, 2, Duration::from_secs(2));
        std::thread::sleep(Duration::from_millis(100));
        assert!(pool.live_workers() <= 2);
        assert_eq!(*started.0.lock(), 2, "a job ran past the thread cap");
    }

    #[test]
    fn shutdown_rejects_new_jobs() {
        let pool = WorkerPool::new("t", 2, 2, Duration::from_millis(50));
        pool.shutdown();
        assert!(!pool.execute(|| {}));
    }

    #[test]
    fn shutdown_completes_accepted_jobs_and_rejects_later_ones() {
        // The drain contract: every job accepted before shutdown runs to
        // completion; every submission after returns `false`. Nothing is
        // silently dropped in between.
        let pool = WorkerPool::new("t", 2, 2, Duration::from_millis(50));
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
        // A job is counted after it returns, so the counter trails `done`.
        await_until(Duration::from_secs(5), "accepted jobs dropped", || {
            pool.jobs_executed() == accepted as usize
        });
        assert_eq!(done.load(Ordering::SeqCst), accepted);
    }

    #[test]
    fn shutdown_lets_workers_exit() {
        let pool = WorkerPool::new("t", 4, 4, Duration::from_secs(60));
        for _ in 0..4 {
            pool.execute(|| {});
        }
        pool.shutdown();
        await_until(Duration::from_secs(5), "workers outlived shutdown", || {
            pool.live_workers() == 0
        });
    }

    #[test]
    fn kick_grows_past_the_cap_only_when_stalled() {
        let pool = WorkerPool::new("t", 2, 2, Duration::from_millis(100));
        // Empty queue: kick must not spawn anything.
        pool.kick();
        assert_eq!(pool.live_workers(), 0);

        // Wedge both workers and queue a third job.
        let (release_tx, release_rx) = queue::channel::<()>();
        let _release = ReleaseParked {
            pool: &pool,
            release: Some(release_tx),
        };
        let started = blocking_jobs(&pool, &release_rx, 3);
        await_started(&started, 2, Duration::from_secs(2));
        assert_eq!(pool.live_workers(), 2, "cap respected before kick");
        assert_eq!(pool.queued_jobs(), 1);
        // Genuine stall (no progress, every worker waiting, work queued):
        // the watchdog's kick breaks it by starting one worker past the cap.
        pool.kick();
        await_started(&started, 3, Duration::from_secs(2));
        assert!(pool.peak_workers() >= 3, "overflow worker not counted");
    }

    #[test]
    fn a_job_that_unwinds_costs_a_thread_not_a_pool_slot() {
        // One turn: if the dead worker kept it, nothing could run again.
        let pool = WorkerPool::new("t", 1, 1, Duration::from_millis(50));
        assert_eq!(pool.live_workers(), 0);
        pool.execute(|| panic!("job unwinds (expected by this test)"));
        await_until(
            Duration::from_secs(2),
            "the pool still counts its dead worker as alive",
            || pool.live_workers() == 0,
        );
        let (tx, rx) = queue::channel();
        pool.execute(move || {
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(2))
            .expect("the slot of the dead worker was not reused");
    }

    #[test]
    fn workers_retire_after_keepalive() {
        let pool = WorkerPool::new("t", 2, 8, Duration::from_millis(20));
        let (release_tx, release_rx) = queue::channel::<()>();
        let started = blocking_jobs(&pool, &release_rx, 4);
        await_started(&started, 4, Duration::from_secs(2));
        drop(release_tx); // release all workers
        std::thread::sleep(Duration::from_millis(300));
        assert!(
            pool.live_workers() <= 1,
            "expected retirement, {} live",
            pool.live_workers()
        );
    }
}
