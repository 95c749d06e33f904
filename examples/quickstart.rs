//! Quickstart: three users, one meeting, one cancellation.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // example code

use syd::calendar::{CalendarApp, MeetingSpec, MeetingStatus};
use syd::kernel::SydEnv;
use syd::net::NetConfig;
use syd::types::{SlotRange, TimeSlot};

fn main() {
    // A deployment = simulated wireless LAN + name server + TEA auth.
    let env = SydEnv::new(NetConfig::wireless_lan(), "quickstart passphrase");

    // Three users, each with a calendar database on their own device.
    let phil = CalendarApp::install(&env.device("phil", "pw-phil").unwrap()).unwrap();
    let andy = CalendarApp::install(&env.device("andy", "pw-andy").unwrap()).unwrap();
    let suzy = CalendarApp::install(&env.device("suzy", "pw-suzy").unwrap()).unwrap();

    // Suzy has a dentist appointment on day 1 at 10:00.
    suzy.mark_busy(TimeSlot::new(1, 10)).unwrap();

    // Phil looks for a common slot on day 1 between 09:00 and 13:00.
    let everyone = vec![phil.user(), andy.user(), suzy.user()];
    let common = phil
        .find_common_slots(
            &everyone,
            SlotRange::new(TimeSlot::new(1, 9), TimeSlot::new(1, 13)),
        )
        .unwrap();
    println!("common free slots: {common:?}");

    // Schedule into the first common slot.
    let slot = common[0];
    let outcome = phil
        .schedule(MeetingSpec::plain(
            "project sync",
            slot,
            vec![andy.user(), suzy.user()],
        ))
        .unwrap();
    println!(
        "scheduled `{:?}` at {slot}: {:?} (reserved: {:?})",
        outcome.meeting, outcome.status, outcome.reserved
    );
    assert_eq!(outcome.status, MeetingStatus::Confirmed);

    // Everyone's own calendar shows the reservation.
    for app in [&phil, &andy, &suzy] {
        println!(
            "{}: slot {slot} -> {:?}",
            app.user(),
            app.slot_state(slot.ordinal()).unwrap()
        );
    }

    // Phil cancels; links cascade and all calendars free up.
    phil.cancel(outcome.meeting).unwrap();
    syd::types::sync::sleep(&**env.clock(), std::time::Duration::from_millis(200));
    for app in [&phil, &andy, &suzy] {
        assert!(app.slot_state(slot.ordinal()).unwrap().is_free());
    }
    println!("meeting cancelled, all slots free again");

    // The e-mail trail (§5.1).
    for mail in andy.mailbox().inbox().unwrap() {
        println!("andy's inbox: [{}] {}", mail.from, mail.subject);
    }
}
