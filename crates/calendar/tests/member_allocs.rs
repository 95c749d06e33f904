//! What a wave member's handler costs, counted: every member of a
//! meeting runs the §4.3 commit of a reservation and the `release_slot`
//! of a cancel, so an allocation that creeps into either is paid 31 times
//! by a 32-member meeting. A counting allocator counts every allocation
//! of the process over a run of schedules and cancels of one 32-member
//! meeting on an ideal network, per remote member (DESIGN.md §19, "What a
//! request allocates").

#![allow(unsafe_code)] // the counting allocator
#![allow(clippy::unwrap_used)] // test code

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use syd_calendar::{CalendarApp, MeetingSpec, MeetingStatus};
use syd_core::SydEnv;
use syd_net::NetConfig;
use syd_types::{TimeSlot, UserId};

/// Allocations made since the process started, reallocations included.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations a member of a 32-member `schedule` may cost: the measured
/// 18.19 + 10 %, the initiator's share included. Each member serves a
/// mark and a reserve commit, two requests of two frames each; the
/// commit writes the slot row, stores the record it carries (the bytes
/// its request decoded, shared into the row) and installs the back link
/// (its refs as sent, inline when short, and the row). It cost 18.35
/// while every bytes cell was a `Vec<u8>`, 18.5 while the record was copied out of
/// the decoded change, 23.7 while the commit decoded the record and the
/// link and encoded both again, and the store's update cloned the
/// record's cell into the new row.
const SCHEDULE_CEILING: f64 = 20.0;

/// Allocations a member of a 32-member `cancel` may cost: the measured
/// 7.82 + 10 %, the initiator's share included. Each member serves one
/// `release_slot`, a request of two frames, which writes the status into
/// the stored record's bytes (the new bytes and the row) and deletes the
/// slot row and the back link. It cost 13.2 while the release decoded the
/// record, encoded it again, the update cloned its cell and the link
/// deletion was handed the roster as a `Vec`.
const CANCEL_CEILING: f64 = 8.6;

/// Meetings scheduled and cancelled to warm up, then counted.
const MEETINGS: u64 = 30;

/// The allocations `f` makes.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn a_member_commit_and_release_make_a_bounded_number_of_allocations() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let apps: Vec<Arc<CalendarApp>> = (0..32)
        .map(|i| CalendarApp::install(&env.device(&format!("m{i}"), "").unwrap()).unwrap())
        .collect();
    let members: Vec<UserId> = apps[1..].iter().map(|app| app.user()).collect();
    let remote = members.len() as u64;
    let (mut scheduled, mut cancelled) = (0, 0);
    for n in 0..2 * MEETINGS {
        let slot = TimeSlot::from_ordinal(100 + n);
        let spec = MeetingSpec::plain("m", slot, members.clone());
        let mut outcome = None;
        let made = allocs(|| outcome = Some(apps[0].schedule(spec).unwrap()));
        let outcome = outcome.unwrap();
        assert_eq!(outcome.status, MeetingStatus::Confirmed);
        let freed = allocs(|| apps[0].cancel(outcome.meeting).unwrap());
        // The first meetings resolve the members, start pool workers and
        // reserve the span rings.
        if n >= MEETINGS {
            (scheduled, cancelled) = (scheduled + made, cancelled + freed);
        }
    }
    let per = |made: u64| made as f64 / (MEETINGS * remote) as f64;
    let (schedule, cancel) = (per(scheduled), per(cancelled));
    println!("allocations per member: schedule {schedule:.2}, cancel {cancel:.2}");
    assert!(
        schedule <= SCHEDULE_CEILING,
        "a schedule costs {schedule:.2} allocations per member, over {SCHEDULE_CEILING}"
    );
    assert!(
        cancel <= CANCEL_CEILING,
        "a cancel costs {cancel:.2} allocations per member, over {CANCEL_CEILING}"
    );
}
