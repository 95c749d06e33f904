//! A week-view rendering of several users' calendars after a burst of
//! scheduling activity — the paper's GUI, reduced to a terminal grid.
//!
//! ```sh
//! cargo run --example week_view
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // example code

use syd::calendar::{CalendarApp, MeetingSpec, SlotState};
use syd::kernel::SydEnv;
use syd::net::NetConfig;
use syd::types::{Priority, SlotRange, TimeSlot};

fn main() {
    let env = SydEnv::new(NetConfig::ideal(), "week passphrase");
    let names = ["phil", "andy", "suzy", "raja"];
    let apps: Vec<_> = names
        .iter()
        .map(|n| CalendarApp::install(&env.device(n, "pw").unwrap()).unwrap())
        .collect();

    // Personal engagements.
    apps[1].mark_busy(TimeSlot::new(0, 9)).unwrap();
    apps[1].mark_busy(TimeSlot::new(0, 10)).unwrap();
    apps[2].mark_busy(TimeSlot::new(1, 14)).unwrap();
    apps[3].mark_busy(TimeSlot::new(2, 11)).unwrap();

    // A burst of meetings.
    let everyone: Vec<_> = apps.iter().map(|a| a.user()).collect();
    apps[0]
        .schedule(MeetingSpec::plain(
            "standup",
            TimeSlot::new(0, 11),
            everyone[1..].to_vec(),
        ))
        .unwrap();
    apps[2]
        .schedule(MeetingSpec::plain(
            "design",
            TimeSlot::new(1, 10),
            vec![apps[0].user(), apps[3].user()],
        ))
        .unwrap();
    apps[1]
        .schedule(
            MeetingSpec::plain("exec", TimeSlot::new(1, 10), vec![apps[0].user()])
                .with_priority(Priority::new(220)),
        )
        .unwrap();
    // Give the bumped "design" meeting a moment to auto-reschedule.
    syd::types::sync::sleep(std::time::Duration::from_millis(300));

    // Render day 0–2, hours 9..15, one row per user.
    println!("week view (M=meeting tentative, C=confirmed, x=busy, .=free)\n");
    print!("{:>6} |", "");
    for day in 0..3u32 {
        for hour in 9..15u16 {
            print!(" d{day}@{hour:02}");
        }
        print!(" |");
    }
    println!();
    for (name, app) in names.iter().zip(&apps) {
        print!("{name:>6} |");
        for day in 0..3u32 {
            for hour in 9..15u16 {
                let state = app.slot_state(TimeSlot::new(day, hour).ordinal()).unwrap();
                let mark = match state {
                    SlotState::Free => "  .  ",
                    SlotState::Busy => "  x  ",
                    SlotState::Tentative(_) => "  M  ",
                    SlotState::Reserved(_) => "  C  ",
                };
                print!("{mark}");
            }
            print!(" |");
        }
        println!();
    }

    println!("\nmeetings known to phil:");
    let range = SlotRange::days(0, 3);
    for ordinal in range.start.ordinal()..range.end.ordinal() {
        if let Some(meeting) = apps[0].slot_state(ordinal).unwrap().meeting() {
            if let Some(rec) = apps[0].meeting(meeting).unwrap() {
                println!(
                    "  {} at {}: {:?} (priority {}, {} reserved)",
                    rec.title,
                    TimeSlot::from_ordinal(rec.ordinal),
                    rec.status,
                    rec.priority,
                    rec.reserved.len(),
                );
            }
        }
    }
}
