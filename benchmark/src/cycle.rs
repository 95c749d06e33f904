//! One benchmark cycle — two meetings, six timed and checked operations in
//! five steps — and the quiesce that separates it from the next.
//!
//! The client is a closed loop of one: each operation is issued when the
//! previous one has returned. The only second thread runs A's cancel in
//! step 4 while the client polls for B's promotion.

use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use syd_calendar::{CalendarApp, MeetingId, MeetingSpec, MeetingStatus};
use syd_net::SharedRuntime;
use syd_telemetry::{names, Counter};
use syd_types::{TimeSlot, UserId};

use crate::deploy::{window, Deployment, Rng};
use crate::proc;
use crate::spans::{Recorder, SpanId};
use crate::spec::Workload;

/// The timed operations of a cycle, in order of issue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Step 1: `A.find_common_slots` over A's group.
    Find,
    /// Step 2: `A.schedule` into a free slot → confirmed.
    Schedule,
    /// Step 3: `B.schedule` into the taken slot → tentative.
    Blocked,
    /// Step 4: `A.cancel`, the call itself.
    Cancel,
    /// Step 4: start of A's cancel → B's meeting reads confirmed.
    Promote,
    /// Step 5: `B.cancel` of the promoted meeting.
    CancelPromoted,
}

impl Op {
    /// Checked operations per cycle.
    pub const COUNT: usize = 6;

    /// Name of the benchmark span around the operation.
    pub fn span(self) -> &'static str {
        match self {
            Op::Find => "calendar.find",
            Op::Schedule => "calendar.schedule",
            Op::Blocked => "calendar.blocked",
            Op::Cancel => "calendar.cancel",
            Op::Promote => "calendar.promote",
            Op::CancelPromoted => "calendar.cancel_promoted",
        }
    }
}

/// The promotion must follow the cancel within this, or the cycle failed.
const PROMOTE_DEADLINE: Duration = Duration::from_secs(5);
const PROMOTE_POLL: Duration = Duration::from_micros(500);
/// Quiet means no frame sent for this long, and the deployment idle.
const QUIET: Duration = Duration::from_millis(25);
const QUIESCE_POLL: Duration = Duration::from_millis(1);
/// How long a thread count above the lowest seen holds a quiesce back
/// before it is taken as the new normal: a count read while the pool was
/// changing size must not fail every later cycle.
const THREAD_PATIENCE: Duration = Duration::from_millis(250);
/// A quiesce longer than this fails the cycle.
const QUIESCE_DEADLINE: Duration = Duration::from_secs(1);

/// What one completed cycle measured.
pub struct CycleRecord {
    /// Duration of each [`Op`], ms, indexed by `Op as usize`.
    pub op_ms: [f64; Op::COUNT],
    /// Time spent in the cycle's three quiesces, ms (outside every op).
    pub quiesce_ms: f64,
    /// A's meeting, to find its tree among the program's span trees.
    pub meeting_a: MeetingId,
}

impl CycleRecord {
    pub fn ms(&self, op: Op) -> f64 {
        self.op_ms[op as usize]
    }

    /// Time the client was waiting on the program: the five operations,
    /// the promotion overlapping the cancel it follows.
    pub fn busy_ms(&self) -> f64 {
        self.ms(Op::Find)
            + self.ms(Op::Schedule)
            + self.ms(Op::Blocked)
            + self.ms(Op::Cancel).max(self.ms(Op::Promote))
            + self.ms(Op::CancelPromoted)
    }
}

/// A cycle that did not complete: which operation failed its check, how
/// many operations had passed before it, and why.
pub struct CycleFailure {
    pub passed_ops: u32,
    pub what: String,
}

/// Drives cycles against one deployment.
pub struct Driver<'a> {
    dep: &'a Deployment,
    a: Arc<CalendarApp>,
    b: Arc<CalendarApp>,
    group_a: Vec<UserId>,
    group_b: Vec<UserId>,
    /// The groups as indices among the calendar users.
    range_a: Range<usize>,
    range_b: Range<usize>,
    /// Calendar users in either group: where the slot is checked.
    members: Vec<usize>,
    expected_common: Vec<TimeSlot>,
    /// Slots meetings are drawn from; a failed cycle retires its slot.
    pool: Vec<TimeSlot>,
    frames_out: Counter,
    runtime: SharedRuntime,
    /// Threads of the process that are neither pool workers nor spawned by
    /// the calendar for background work: the lowest count seen when quiet.
    fixed_threads: Cell<u64>,
    rng: Rng,
    pub cycles_run: u32,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

impl<'a> Driver<'a> {
    pub fn new(dep: &'a Deployment, w: &Workload, seed: u64) -> Driver<'a> {
        let members = (0..w.users)
            .filter(|i| w.group_a.contains(i) || w.group_b.contains(i))
            .collect();
        Driver {
            dep,
            a: Arc::clone(&dep.apps[w.group_a.start]),
            b: Arc::clone(&dep.apps[w.b]),
            group_a: dep.users[w.group_a.clone()].to_vec(),
            group_b: dep.users[w.group_b.clone()].to_vec(),
            range_a: w.group_a.clone(),
            range_b: w.group_b.clone(),
            members,
            expected_common: dep.calendars.common_free(w.group_a.clone()),
            pool: dep.calendars.pool.clone(),
            frames_out: dep
                .env
                .transport()
                .metrics()
                .counter(names::TRANSPORT_FRAMES_OUT),
            runtime: dep.env.runtime(),
            fixed_threads: Cell::new(u64::MAX),
            // Slot draws use their own stream, apart from the calendars'.
            rng: Rng::new(seed ^ 0x5107_D4A3),
            cycles_run: 0,
        }
    }

    /// Waits until the deployment has gone quiet: no frame sent for
    /// [`QUIET`], and [`Driver::idle`].
    ///
    /// `CalendarApp::cancel` does not take the reconcile guard, so a
    /// cancel issued while a promotion's reconcile thread is still in its
    /// housekeeping leaves slots reserved for good; waiting keeps every
    /// cycle starting from the same state.
    pub fn quiesce(&self) -> Result<Duration, String> {
        let start = Instant::now();
        let mut frames = self.frames_out.get();
        let mut quiet_since = start;
        loop {
            std::thread::sleep(QUIESCE_POLL);
            let now = Instant::now();
            let seen = self.frames_out.get();
            if seen != frames {
                frames = seen;
                quiet_since = now;
            } else if now - quiet_since >= QUIET && self.idle(now - quiet_since) {
                return Ok(now - start);
            }
            if now - start > QUIESCE_DEADLINE {
                return Err(format!(
                    "no quiet after {} ms: {seen} frames sent, {} row locks held, {} jobs queued",
                    QUIESCE_DEADLINE.as_millis(),
                    self.row_locks_held(),
                    self.runtime.pool().queued_jobs(),
                ));
            }
        }
    }

    fn row_locks_held(&self) -> usize {
        self.dep
            .devices()
            .map(|d| d.store().locks().held_count())
            .sum()
    }

    /// No row lock held at any calendar user, no job queued for the worker
    /// pool, and no thread alive beyond the runtime's own. The calendar
    /// runs its background work (firing links, reconciling a promoted
    /// meeting) on threads it spawns for the purpose; a silent network
    /// alone does not show that the host has let them finish.
    fn idle(&self, silent_for: Duration) -> bool {
        let pool = self.runtime.pool();
        if self.row_locks_held() != 0 || pool.queued_jobs() != 0 {
            return false;
        }
        let other_threads = proc::threads().saturating_sub(pool.live_workers() as u64);
        if other_threads > self.fixed_threads.get() && silent_for < THREAD_PATIENCE {
            return false;
        }
        self.fixed_threads.set(other_threads);
        true
    }

    /// Runs one cycle, recording its spans into `rec`. A failed cycle
    /// cancels what it had scheduled and retires its slot, so that the
    /// cycles after it still run the stated workload.
    pub fn cycle(&mut self, rec: &mut Recorder) -> Result<CycleRecord, CycleFailure> {
        let cycle = self.cycles_run;
        self.cycles_run += 1;
        let root = rec.open("bench.cycle", cycle, Instant::now());
        let mut run = CycleRun {
            rec,
            root,
            cycle,
            op_ms: [0.0; Op::COUNT],
            quiesce: Duration::ZERO,
            passed_ops: 0,
            slot: None,
            meeting_a: None,
            meeting_b: None,
        };
        let result = self.steps(&mut run);
        if result.is_err() {
            if let Some(m) = run.meeting_a {
                let _ = self.a.cancel(m);
            }
            if let Some(m) = run.meeting_b {
                let _ = self.b.cancel(m);
            }
            let _ = self.quiesce();
            if let Some(slot) = run.slot {
                self.pool.retain(|&s| s != slot);
                // The slot may have been left reserved for good: then A's
                // later searches rightly no longer find it.
                let free_at = |app: &Arc<CalendarApp>| {
                    app.slot_state(slot.ordinal()).is_ok_and(|s| s.is_free())
                };
                if !self.dep.apps[self.range_a.clone()].iter().all(free_at) {
                    self.expected_common.retain(|&s| s != slot);
                }
            }
        }
        run.rec.close(root, Instant::now());
        match result {
            Ok(meeting_a) => Ok(CycleRecord {
                op_ms: run.op_ms,
                quiesce_ms: run.quiesce.as_secs_f64() * 1e3,
                meeting_a,
            }),
            Err(what) => Err(CycleFailure {
                passed_ops: run.passed_ops,
                what,
            }),
        }
    }

    fn steps(&mut self, run: &mut CycleRun<'_>) -> Result<MeetingId, String> {
        let cycle = run.cycle;

        // 1. A looks for a slot its whole group has free.
        let t0 = Instant::now();
        let found = self.a.find_common_slots(&self.group_a, window());
        run.timed(Op::Find, t0, Instant::now());
        let found = found.map_err(|e| format!("find_common_slots: {e}"))?;
        if found != self.expected_common {
            return Err(format!(
                "find_common_slots returned {} slots, the filled calendars have {}",
                found.len(),
                self.expected_common.len()
            ));
        }
        run.passed_ops += 1;
        let candidates: Vec<TimeSlot> = self
            .pool
            .iter()
            .copied()
            .filter(|s| found.contains(s))
            .collect();
        if candidates.is_empty() {
            return Err("no pool slot left in the answer".into());
        }
        let slot = candidates[self.rng.below(candidates.len())];
        run.slot = Some(slot);

        // 2. A schedules into it: every member must end up reserved.
        let spec = MeetingSpec::plain(format!("a-{cycle}"), slot, self.group_a.clone());
        let t0 = Instant::now();
        let outcome = self.a.schedule(spec);
        run.timed(Op::Schedule, t0, Instant::now());
        let outcome = outcome.map_err(|e| format!("A.schedule: {e}"))?;
        let meeting_a = outcome.meeting;
        run.meeting_a = Some(meeting_a);
        if outcome.status != MeetingStatus::Confirmed
            || outcome.reserved.len() != self.group_a.len()
        {
            return Err(format!(
                "A.schedule: {:?} with {} of {} reserved",
                outcome.status,
                outcome.reserved.len(),
                self.group_a.len()
            ));
        }
        self.check_holders(slot, &self.range_a, meeting_a)?;
        run.passed_ops += 1;

        // 3. B asks for the same slot and must be held tentatively: its
        //    waiting links queue behind A's meeting (§4.2).
        let spec = MeetingSpec::plain(format!("b-{cycle}"), slot, self.group_b.clone());
        let t0 = Instant::now();
        let outcome = self.b.schedule(spec);
        run.timed(Op::Blocked, t0, Instant::now());
        let outcome = outcome.map_err(|e| format!("B.schedule: {e}"))?;
        let meeting_b = outcome.meeting;
        run.meeting_b = Some(meeting_b);
        if outcome.status != MeetingStatus::Tentative {
            return Err(format!("B.schedule on a taken slot: {:?}", outcome.status));
        }
        run.passed_ops += 1;
        self.timed_quiesce(run)?;

        // 4. A cancels on a helper thread; the client watches B's meeting
        //    turn confirmed by itself (§4.4).
        let start = Instant::now();
        let (cancelled, cancel_end, promoted_at) = std::thread::scope(|s| {
            let a = &self.a;
            let helper = s.spawn(move || (a.cancel(meeting_a), Instant::now()));
            let promoted_at = loop {
                let status = self.b.meeting(meeting_b).map(|m| m.map(|m| m.status));
                if matches!(status, Ok(Some(MeetingStatus::Confirmed))) {
                    break Some(Instant::now());
                }
                if start.elapsed() > PROMOTE_DEADLINE {
                    break None;
                }
                std::thread::sleep(PROMOTE_POLL);
            };
            let (cancelled, cancel_end) = helper.join().expect("cancel thread panicked");
            (cancelled, cancel_end, promoted_at)
        });
        run.timed(Op::Cancel, start, cancel_end);
        cancelled.map_err(|e| format!("A.cancel: {e}"))?;
        run.meeting_a = None;
        run.passed_ops += 1;
        let promoted_at = promoted_at.ok_or_else(|| {
            format!(
                "B's meeting not confirmed {} s after A's cancel",
                PROMOTE_DEADLINE.as_secs()
            )
        })?;
        run.timed(Op::Promote, start, promoted_at);
        run.passed_ops += 1;
        self.timed_quiesce(run)?;
        self.check_holders(slot, &self.range_b, meeting_b)?;

        // 5. B cancels the promoted meeting; the slot must be free again
        //    at every member of either group.
        let t0 = Instant::now();
        let cancelled = self.b.cancel(meeting_b);
        run.timed(Op::CancelPromoted, t0, Instant::now());
        cancelled.map_err(|e| format!("B.cancel: {e}"))?;
        run.meeting_b = None;
        self.timed_quiesce(run)?;
        for &i in &self.members {
            let state = self.dep.apps[i]
                .slot_state(slot.ordinal())
                .map_err(|e| format!("slot_state: {e}"))?;
            if !state.is_free() {
                return Err(format!("slot {slot} left {state:?} at user {i}"));
            }
        }
        run.passed_ops += 1;
        Ok(meeting_a)
    }

    fn timed_quiesce(&self, run: &mut CycleRun<'_>) -> Result<(), String> {
        let t0 = Instant::now();
        let waited = self.quiesce()?;
        run.rec
            .push("bench.quiesce", run.root, run.cycle, t0, t0 + waited);
        run.quiesce += waited;
        Ok(())
    }

    /// Every calendar user in `group` must hold `slot` for `meeting`.
    fn check_holders(
        &self,
        slot: TimeSlot,
        group: &Range<usize>,
        meeting: MeetingId,
    ) -> Result<(), String> {
        for app in &self.dep.apps[group.clone()] {
            let state = app
                .slot_state(slot.ordinal())
                .map_err(|e| format!("slot_state: {e}"))?;
            if state.meeting() != Some(meeting) {
                return Err(format!(
                    "slot {slot} is {state:?} at {}, not {meeting}",
                    app.user()
                ));
            }
        }
        Ok(())
    }
}

/// The cycle in progress: where its spans go and how far it has come.
struct CycleRun<'r> {
    rec: &'r mut Recorder,
    root: SpanId,
    cycle: u32,
    op_ms: [f64; Op::COUNT],
    quiesce: Duration,
    passed_ops: u32,
    slot: Option<TimeSlot>,
    /// Meetings the cycle has scheduled and not yet cancelled.
    meeting_a: Option<MeetingId>,
    meeting_b: Option<MeetingId>,
}

impl CycleRun<'_> {
    fn timed(&mut self, op: Op, start: Instant, end: Instant) {
        self.op_ms[op as usize] = ms(start, end);
        self.rec.push(op.span(), self.root, self.cycle, start, end);
    }
}
