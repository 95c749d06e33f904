//! E1/E3/E4 (§3.3, §5, §6): the meeting lifecycle — SyD vs the baseline
//! "current practice" calendar, participant-count and calendar-density
//! sweeps, and quorum scheduling.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::sync::Arc;

use syd_bench::timing::Group;
use syd_bench::{calendar_rig, env_ideal, prefill_density, users_of, SlotAlloc};
use syd_calendar::{BaselineCalendar, GroupSpec, MeetingSpec, MeetingStatus};
use syd_types::UserId;

fn main() {
    let group = Group("e3_meetings");

    // Schedule+cancel vs participant count (everyone free → confirmed).
    for n in [2usize, 4, 8, 16] {
        let env = env_ideal();
        let apps = calendar_rig(&env, n);
        let attendees: Vec<UserId> = users_of(&apps)[1..].to_vec();
        let slots = SlotAlloc::new();
        group.bench_function(format!("schedule_cancel/{n}"), |b| {
            b.iter(|| {
                let outcome = apps[0]
                    .schedule(MeetingSpec::plain("b", slots.next(), attendees.clone()))
                    .unwrap();
                assert_eq!(outcome.status, MeetingStatus::Confirmed);
                apps[0].cancel(outcome.meeting).unwrap();
            });
        });
    }

    // Free-slot search vs calendar density (the §5 find-empty-slots step
    // over one week).
    for density in [0u64, 30, 60, 90] {
        let env = env_ideal();
        let apps = calendar_rig(&env, 4);
        prefill_density(&apps, 7 * 24, density);
        let users = users_of(&apps);
        group.bench_function(format!("find_common_slots_density/{density}"), |b| {
            b.iter(|| {
                apps[0]
                    .find_common_slots(&users, syd_types::SlotRange::days(0, 7))
                    .unwrap()
            });
        });
    }

    // Quorum scheduling (E4): musts + two OR-groups.
    for group_size in [4usize, 8, 16] {
        let env = env_ideal();
        let apps = calendar_rig(&env, 2 + 2 * group_size);
        let musts = vec![apps[1].user()];
        let g1: Vec<UserId> = apps[2..2 + group_size].iter().map(|a| a.user()).collect();
        let g2: Vec<UserId> = apps[2 + group_size..].iter().map(|a| a.user()).collect();
        let k = (group_size / 2) as u32;
        let slots = SlotAlloc::new();
        group.bench_function(format!("quorum_schedule_cancel/{group_size}"), |b| {
            b.iter(|| {
                let spec = MeetingSpec::plain("q", slots.next(), musts.clone())
                    .with_group(GroupSpec::new(g1.clone(), k))
                    .with_group(GroupSpec::new(g2.clone(), 2));
                let outcome = apps[0].schedule(spec).unwrap();
                assert_eq!(outcome.status, MeetingStatus::Confirmed);
                apps[0].cancel(outcome.meeting).unwrap();
            });
        });
    }

    // E1: the same "set up a meeting" task on the baseline calendar
    // (invite + manual accepts + commit), for the latency comparison; the
    // message/byte comparison is in the `experiments` harness binary.
    for n in [2usize, 4, 8, 16] {
        let env = env_ideal();
        let baselines: Vec<Arc<BaselineCalendar>> = (0..n)
            .map(|i| {
                BaselineCalendar::install(&env.device(&format!("b{i}"), "pw").unwrap()).unwrap()
            })
            .collect();
        let participants: Vec<UserId> = baselines[1..].iter().map(|b| b.user()).collect();
        let slots = SlotAlloc::new();
        group.bench_function(format!("baseline_schedule/{n}"), |b| {
            b.iter(|| {
                let slot = slots.next();
                let proposal = baselines[0].propose(slot, &participants).unwrap();
                // The "humans" all accept instantly (best case for the
                // baseline — reality adds hours).
                for app in &baselines[1..] {
                    app.accept(proposal).unwrap();
                }
                // Wait for the commit to land.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
                loop {
                    match baselines[0].proposal_status(proposal) {
                        Some(syd_calendar::baseline::ProposalStatus::Scheduled) => break,
                        _ if std::time::Instant::now() > deadline => panic!("no commit"),
                        _ => std::thread::yield_now(),
                    }
                }
                baselines[0].cancel(proposal, &participants, slot).unwrap();
            });
        });
    }
}
