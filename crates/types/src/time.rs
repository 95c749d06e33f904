//! Time: calendar slots for the application, timestamps for the middleware.
//!
//! Two notions of time coexist, as in the paper:
//!
//! * **Calendar time** — users schedule meetings into discrete slots
//!   ([`TimeSlot`] = [`Day`] × [`SlotIndex`]). The prototype's GUI offered
//!   day/hour granularity; we default to [`SLOTS_PER_DAY`] = 24 slots per
//!   day but nothing depends on that constant except formatting.
//! * **Middleware time** — link creation/expiry times, lock leases, sim
//!   delivery times and RPC deadlines are read from the deployment's one
//!   [`Clock`]. Tests that would otherwise wait out deadlines use the
//!   virtual [`SimClock`], which the deployment's loop moves itself; live
//!   runs and the benchmark use [`SystemClock`].

use core::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Number of schedulable slots per calendar day (one per hour).
pub const SLOTS_PER_DAY: u16 = 24;

/// A calendar day, counted from an arbitrary epoch day 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Day(pub u32);

impl Day {
    /// Day `n` of the simulation epoch.
    pub const fn new(n: u32) -> Self {
        Self(n)
    }

    /// The next calendar day.
    pub const fn next(self) -> Day {
        Day(self.0 + 1)
    }
}

impl fmt::Display for Day {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "day {}", self.0)
    }
}

/// An intra-day slot index, `0..SLOTS_PER_DAY`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SlotIndex(pub u16);

impl SlotIndex {
    /// Slot `n` within a day. Panics in debug builds if out of range.
    pub fn new(n: u16) -> Self {
        debug_assert!(n < SLOTS_PER_DAY, "slot index {n} out of range");
        Self(n)
    }
}

impl fmt::Display for SlotIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02}:00", self.0)
    }
}

/// One schedulable calendar slot: a (day, slot) pair.
///
/// `TimeSlot` has a total order (day-major) and a dense encoding
/// ([`TimeSlot::ordinal`]) used as a store key and for range scans — "free
/// slots between dates d1 and d2" (§5) is an ordinal range query.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TimeSlot {
    /// Calendar day.
    pub day: Day,
    /// Slot within the day.
    pub slot: SlotIndex,
}

impl TimeSlot {
    /// Builds a slot from day and intra-day indices.
    pub fn new(day: u32, slot: u16) -> Self {
        Self {
            day: Day::new(day),
            slot: SlotIndex::new(slot),
        }
    }

    /// Dense ordinal: `day * SLOTS_PER_DAY + slot`.
    pub fn ordinal(self) -> u64 {
        self.day.0 as u64 * SLOTS_PER_DAY as u64 + self.slot.0 as u64
    }

    /// Inverse of [`TimeSlot::ordinal`].
    pub fn from_ordinal(ordinal: u64) -> Self {
        TimeSlot::new(
            (ordinal / SLOTS_PER_DAY as u64) as u32,
            (ordinal % SLOTS_PER_DAY as u64) as u16,
        )
    }

    /// The immediately following slot (rolls over at midnight).
    pub fn succ(self) -> TimeSlot {
        TimeSlot::from_ordinal(self.ordinal() + 1)
    }
}

impl fmt::Display for TimeSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.day, self.slot)
    }
}

/// A half-open range of calendar slots `[start, end)`, e.g. "between dates
/// d1 and d2" in the paper's meeting-setup scenario.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SlotRange {
    /// First slot included in the range.
    pub start: TimeSlot,
    /// First slot excluded from the range.
    pub end: TimeSlot,
}

impl SlotRange {
    /// Builds a range; `start` must not exceed `end`.
    pub fn new(start: TimeSlot, end: TimeSlot) -> Self {
        assert!(
            start.ordinal() <= end.ordinal(),
            "slot range start {start} after end {end}"
        );
        Self { start, end }
    }

    /// All slots of `day`.
    pub fn whole_day(day: u32) -> Self {
        SlotRange::new(TimeSlot::new(day, 0), TimeSlot::new(day + 1, 0))
    }

    /// All slots from day `d1` up to but excluding day `d2`.
    pub fn days(d1: u32, d2: u32) -> Self {
        SlotRange::new(TimeSlot::new(d1, 0), TimeSlot::new(d2, 0))
    }

    /// Number of slots in the range.
    pub fn len(&self) -> u64 {
        self.end.ordinal() - self.start.ordinal()
    }

    /// True iff the range contains no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff `slot` falls inside the range.
    pub fn contains(&self, slot: TimeSlot) -> bool {
        let o = slot.ordinal();
        self.start.ordinal() <= o && o < self.end.ordinal()
    }

    /// Iterates over every slot in the range, in order.
    pub fn iter(&self) -> impl Iterator<Item = TimeSlot> {
        (self.start.ordinal()..self.end.ordinal()).map(TimeSlot::from_ordinal)
    }
}

impl fmt::Display for SlotRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {})", self.start, self.end)
    }
}

/// Middleware timestamp: microseconds since the clock's epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Timestamp at `micros` microseconds past the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        Self(micros)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This timestamp advanced by `d` (saturating).
    pub fn after(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.as_micros() as u64))
    }

    /// Duration from `earlier` to `self`; zero if `earlier` is later.
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}µs", self.0)
    }
}

/// Source of middleware time: a deployment has one, chosen where its
/// network is built, and all that decides by time reads it (DESIGN.md
/// §13). [`Clock::now`] is the monotonic [`Clock::instant`] counted from
/// the clock's origin.
pub trait Clock: Send + Sync + 'static {
    /// The reading [`Clock::now`] counts from.
    fn origin(&self) -> Instant;

    /// The monotonic reading every due time, deadline and lease is on.
    fn instant(&self) -> Instant;

    /// Current time: microseconds since [`Clock::origin`].
    fn now(&self) -> Timestamp {
        Timestamp(
            self.instant()
                .saturating_duration_since(self.origin())
                .as_micros() as u64,
        )
    }

    /// The virtual clock, if time moves only as its deployment moves it.
    fn as_sim(&self) -> Option<&SimClock> {
        None
    }
}

/// Wall-clock time relative to process start.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose epoch is the moment of construction.
    pub fn new() -> Self {
        Self {
            origin: wall().instant(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn origin(&self) -> Instant {
        self.origin
    }

    #[allow(clippy::disallowed_methods)] // the wall clock itself
    fn instant(&self) -> Instant {
        Instant::now()
    }
}

/// The process's wall clock: TCP's, and the bound of waits that are no
/// deployment's decision (a queue's receive, a row lock's wait).
pub fn wall() -> &'static Arc<dyn Clock> {
    static WALL: OnceLock<Arc<dyn Clock>> = OnceLock::new();
    #[allow(clippy::disallowed_methods)] // the wall clock's origin
    WALL.get_or_init(|| {
        Arc::new(SystemClock {
            origin: Instant::now(),
        })
    })
}

/// Virtual time, moved only by [`SimClock::advance`] or by the loop of
/// the deployment whose network is built on it, to the next frame or
/// deadline once nothing else can run (DESIGN.md §13); never back.
/// Cloning shares the clock.
#[derive(Clone, Debug)]
pub struct SimClock {
    pub(crate) time: Arc<crate::sync::VirtualTime>,
}

impl SimClock {
    /// A clock at its epoch.
    pub fn new() -> Self {
        let origin = wall().instant();
        SimClock {
            time: Arc::new(crate::sync::VirtualTime::new(origin)),
        }
    }

    /// Jumps the clock forward by `d`, waking the threads it makes due.
    pub fn advance(&self, d: Duration) {
        crate::sync::advance_to(&self.time, self.instant() + d);
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SimClock {
    fn origin(&self) -> Instant {
        self.time.origin
    }

    fn instant(&self) -> Instant {
        self.time.instant()
    }

    fn as_sim(&self) -> Option<&SimClock> {
        Some(self)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    #[test]
    fn slot_ordinal_round_trip() {
        for day in [0u32, 1, 7, 365] {
            for slot in 0..SLOTS_PER_DAY {
                let ts = TimeSlot::new(day, slot);
                assert_eq!(TimeSlot::from_ordinal(ts.ordinal()), ts);
            }
        }
    }

    #[test]
    fn slot_order_is_day_major() {
        assert!(TimeSlot::new(0, 23) < TimeSlot::new(1, 0));
        assert!(TimeSlot::new(2, 5) < TimeSlot::new(2, 6));
        assert_eq!(TimeSlot::new(0, 23).succ(), TimeSlot::new(1, 0));
    }

    #[test]
    fn range_contains_and_len() {
        let r = SlotRange::days(1, 3);
        assert_eq!(r.len(), 2 * SLOTS_PER_DAY as u64);
        assert!(!r.is_empty());
        assert!(r.contains(TimeSlot::new(1, 0)));
        assert!(r.contains(TimeSlot::new(2, 23)));
        assert!(!r.contains(TimeSlot::new(3, 0)));
        assert!(!r.contains(TimeSlot::new(0, 23)));
    }

    #[test]
    fn range_iterates_in_order() {
        let r = SlotRange::new(TimeSlot::new(0, 22), TimeSlot::new(1, 2));
        let slots: Vec<_> = r.iter().collect();
        assert_eq!(
            slots,
            vec![
                TimeSlot::new(0, 22),
                TimeSlot::new(0, 23),
                TimeSlot::new(1, 0),
                TimeSlot::new(1, 1),
            ]
        );
    }

    #[test]
    fn empty_range() {
        let r = SlotRange::new(TimeSlot::new(1, 1), TimeSlot::new(1, 1));
        assert!(r.is_empty());
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "after end")]
    fn reversed_range_panics() {
        let _ = SlotRange::new(TimeSlot::new(2, 0), TimeSlot::new(1, 0));
    }

    #[test]
    fn sim_clock_advances_deterministically() {
        let clock = SimClock::new();
        let handle = clock.clone();
        assert_eq!(clock.now(), Timestamp::from_micros(0));
        handle.advance(Duration::from_millis(5));
        assert_eq!(clock.now(), Timestamp::from_micros(5_000));
        assert_eq!(clock.instant(), clock.origin() + Duration::from_millis(5));
    }

    #[test]
    fn virtual_time_never_moves_back() {
        let clock = SimClock::new();
        clock.advance(Duration::from_millis(10));
        let at = clock.instant();
        // A loop that advances to a due time already behind the clock —
        // a frame filed before a test's own advance — leaves it where it is.
        crate::sync::advance_to(&clock.time, at - Duration::from_millis(4));
        assert_eq!(clock.instant(), at);
        crate::sync::advance_to(&clock.time, at + Duration::from_millis(1));
        assert_eq!(clock.now(), Timestamp::from_micros(11_000));
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_micros(100);
        let later = t.after(Duration::from_micros(50));
        assert_eq!(later.as_micros(), 150);
        assert_eq!(later.since(t), Duration::from_micros(50));
        assert_eq!(t.since(later), Duration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", TimeSlot::new(3, 9)), "day 3 09:00");
        assert_eq!(
            format!("{}", SlotRange::whole_day(2)),
            "[day 2 00:00 .. day 3 00:00)"
        );
        assert_eq!(format!("{}", Timestamp::from_micros(7)), "t+7µs");
    }
}
