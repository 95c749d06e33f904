//! The calendar's services — `calendar`, `mailbox` and the reads a proxy
//! serves from a replica — each serve their declared verbs once, and a
//! verb reads its arguments the one way every verb does: a missing or a
//! mistyped argument is a protocol error, answered at once.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use syd_calendar::app::{
    CALENDAR, CHANGE_REQUEST, DROP_AVAILABILITY, FREE_SLOTS_BITMAP, LEAVE_REQUEST, MEETING_BUMPED,
    MEETING_INFO, PEER_AVAILABLE, QUEUE_AVAILABILITY, RELEASE_SLOT, SLOT_STATUS, UPDATE_MEETING,
};
use syd_calendar::delegation::AUTHORITY_CHECK;
use syd_calendar::mailbox::{DELIVER, MAILBOX};
use syd_calendar::{host_calendar_on_proxy, CalendarApp};
use syd_core::SydEnv;
use syd_net::NetConfig;
use syd_types::{ServiceName, SydError, Value};

#[test]
fn each_service_serves_its_verbs_once_and_checks_their_arguments() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let phil = CalendarApp::install(&env.device("phil", "").unwrap()).unwrap();
    let suzy = CalendarApp::install(&env.device("suzy", "").unwrap()).unwrap();

    let calendar = [
        FREE_SLOTS_BITMAP.name,
        SLOT_STATUS.name,
        MEETING_INFO.name,
        UPDATE_MEETING.name,
        RELEASE_SLOT.name,
        QUEUE_AVAILABILITY.name,
        PEER_AVAILABLE.name,
        MEETING_BUMPED.name,
        CHANGE_REQUEST.name,
        DROP_AVAILABILITY.name,
        LEAVE_REQUEST.name,
        AUTHORITY_CHECK.name,
    ];
    let registered = phil.device().listener().registered();
    for (service, verbs) in [(CALENDAR, &calendar[..]), (MAILBOX, &[DELIVER.name][..])] {
        let mut served: Vec<&str> = registered
            .iter()
            .filter(|(s, _)| s == service.as_str())
            .map(|(_, m)| m.as_str())
            .collect();
        let mut declared = verbs.to_vec();
        declared.sort_unstable();
        served.sort_unstable();
        assert_eq!(served, declared, "{service:?}: each declared verb, once");
    }

    let refused = |service: &ServiceName, method: &str| {
        for args in [vec![], vec![Value::str("x")]] {
            let engine = suzy.device().engine();
            let out = engine.invoke(phil.user(), service, method, args.clone());
            assert!(
                matches!(out, Err(SydError::Protocol(_))),
                "{method}({args:?}): {out:?}"
            );
        }
    };
    refused(CALENDAR, RELEASE_SLOT.name);
    refused(MAILBOX, DELIVER.name);

    // The replica's reads, served by the proxy while phil is away.
    let proxy = env.proxy("asp", "").unwrap();
    host_calendar_on_proxy(&proxy, &phil).unwrap();
    phil.device().disconnect().unwrap();
    refused(CALENDAR, SLOT_STATUS.name);
}
