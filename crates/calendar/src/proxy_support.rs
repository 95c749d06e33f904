//! Calendar-on-proxy support (§5.2 applied to the showcase app).
//!
//! "If a SyD calendar object A is down or disconnected, a proxy takes over
//! the place of A" — concretely: peers planning meetings still need A's
//! free-slot view. This module replicates a user's calendar tables to a
//! [`ProxyHost`] and installs read-side `calendar` service methods on the
//! replica (`free_slots_bitmap`, `slot_status`, `meeting_info`), so availability
//! queries and meeting lookups keep answering while the device is off.
//!
//! Writes (reservations) deliberately stay on the primary: a negotiation
//! against a disconnected participant should *fail* and leave the meeting
//! tentative — the availability-link machinery then confirms it when the
//! device returns, which is the paper's own answer to that situation.

use syd_core::proxy::{enable_replication, ProxyHost};
use syd_core::{Method, Methods};
use syd_store::Store;
use syd_types::SydResult;

use crate::app::{
    calendar_service, create_replicated_tables, free_slots_bitmap, meeting_info, slot_status,
    CalendarApp, FREE_SLOTS_BITMAP, MEETING_INFO, SLOT_STATUS,
};

/// The reads a replica serves: the device's own methods, answering from
/// the replica's store.
static REPLICA_READS: &Methods<Store> = &[
    &Method::verb(FREE_SLOTS_BITMAP, free_slots_bitmap),
    &Method::verb(SLOT_STATUS, slot_status),
    &Method::verb(MEETING_INFO, meeting_info),
];

/// Hosts `app`'s user's calendar read path on `proxy` and starts
/// replication from `app`'s primary store. Call once per hosted calendar
/// user.
pub fn host_calendar_on_proxy(proxy: &ProxyHost, app: &CalendarApp) -> SydResult<()> {
    proxy.host_user(app.user(), |store| {
        create_replicated_tables(store)?;
        Ok(vec![(calendar_service(), REPLICA_READS)])
    })?;
    enable_replication(app.device(), proxy.addr(), &["slots", "meetings"])?;
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code
mod tests {
    use super::*;
    use crate::model::{Meeting, MeetingSpec, MeetingStatus, SlotState};
    use std::time::{Duration, Instant};
    use syd_core::SydEnv;
    use syd_net::NetConfig;
    use syd_store::Predicate;
    use syd_types::{MeetingId, SlotBitmap, SlotRange, SydError, TimeSlot, Value};
    use syd_wire::decode_from_slice;

    fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(3);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn availability_queries_survive_a_disconnect() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let phil = CalendarApp::install(&env.device("phil", "").unwrap()).unwrap();
        let andy = CalendarApp::install(&env.device("andy", "").unwrap()).unwrap();
        let suzy = CalendarApp::install(&env.device("suzy", "").unwrap()).unwrap();
        let proxy = env.proxy("asp", "").unwrap();
        host_calendar_on_proxy(&proxy, &phil).unwrap();

        // Phil books two slots; replication mirrors them.
        phil.mark_busy(TimeSlot::new(0, 9)).unwrap();
        let outcome = phil
            .schedule(MeetingSpec::plain(
                "m",
                TimeSlot::new(0, 11),
                vec![andy.user()],
            ))
            .unwrap();
        assert_eq!(outcome.status, MeetingStatus::Confirmed);
        wait_for(
            || {
                proxy
                    .replica_store(phil.user())
                    .unwrap()
                    .row_count("slots")
                    .unwrap()
                    >= 2
            },
            "replication",
        );

        // Phil's iPAQ goes dark…
        phil.device().disconnect().unwrap();

        // …yet suzy can still plan around phil's calendar: find-common-
        // slots transparently reads phil's view from the proxy, in the one
        // round it takes with everybody at home.
        let rounds = suzy
            .device()
            .metrics()
            .counter(syd_telemetry::names::ENGINE_ROUNDS);
        let before = rounds.get();
        let common = suzy
            .find_common_slots(
                &[suzy.user(), phil.user(), andy.user()],
                SlotRange::new(TimeSlot::new(0, 8), TimeSlot::new(0, 13)),
            )
            .unwrap();
        assert_eq!(rounds.get() - before, 1, "the proxied member cost a round");
        assert!(!common.contains(&TimeSlot::new(0, 9)), "phil busy at 9");
        assert!(!common.contains(&TimeSlot::new(0, 11)), "meeting at 11");
        assert!(common.contains(&TimeSlot::new(0, 8)));

        // Meeting info is served from the replica too.
        let info = suzy
            .device()
            .engine()
            .invoke(
                phil.user(),
                &calendar_service(),
                "meeting_info",
                vec![Value::from(outcome.meeting.raw())],
            )
            .unwrap();
        let rec: Meeting = decode_from_slice(info.as_bytes().unwrap()).unwrap();
        assert_eq!(rec.id, outcome.meeting);

        // Scheduling with phil while he's off leaves the meeting tentative
        // (writes don't go to the proxy, by design).
        let attempt = suzy
            .schedule(MeetingSpec::plain(
                "while-away",
                TimeSlot::new(0, 8),
                vec![phil.user()],
            ))
            .unwrap();
        assert_eq!(attempt.status, MeetingStatus::Tentative);

        // Phil returns: the tentative meeting can now confirm.
        phil.device().reconnect().unwrap();
        let status = suzy.reconcile(attempt.meeting).unwrap();
        assert_eq!(status, MeetingStatus::Confirmed);
    }

    #[test]
    fn the_primary_and_its_proxy_answer_slot_status_alike() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let phil = CalendarApp::install(&env.device("phil", "").unwrap()).unwrap();
        let andy = CalendarApp::install(&env.device("andy", "").unwrap()).unwrap();
        let suzy = CalendarApp::install(&env.device("suzy", "").unwrap()).unwrap();
        let proxy = env.proxy("asp", "").unwrap();
        host_calendar_on_proxy(&proxy, &phil).unwrap();

        let [free, busy, conf, tent] = [8, 9, 11, 13].map(|hour| TimeSlot::new(0, hour));
        phil.mark_busy(busy).unwrap();
        let with_andy = |name, slot| {
            phil.schedule(MeetingSpec::plain(name, slot, vec![andy.user()]))
                .unwrap()
        };
        let confirmed = with_andy("conf", conf);
        assert_eq!(confirmed.status, MeetingStatus::Confirmed);
        andy.device().disconnect().unwrap();
        let tentative = with_andy("tent", tent);
        assert_eq!(tentative.status, MeetingStatus::Tentative);
        let rows = |store: &Store, table| {
            let rows = store.select(table, &Predicate::True).unwrap();
            rows.into_iter()
                .map(|row| row.values.to_vec())
                .collect::<Vec<_>>()
        };
        wait_for(
            || {
                let replica = proxy.replica_store(phil.user()).unwrap();
                ["slots", "meetings"]
                    .iter()
                    .all(|table| rows(&replica, table) == rows(phil.device().store(), table))
            },
            "replication",
        );

        let call = |method, args| {
            let engine = suzy.device().engine();
            engine
                .invoke(phil.user(), &calendar_service(), method, args)
                .unwrap()
        };
        let ask = || {
            let statuses = [free, busy, conf, tent]
                .map(|slot| call("slot_status", vec![Value::from(slot.ordinal())]));
            let window = vec![Value::from(free.ordinal()), Value::from(tent.ordinal() + 1)];
            let bitmap = call("free_slots_bitmap", window);
            let infos = [confirmed.meeting, tentative.meeting, MeetingId::new(999)]
                .map(|id| call("meeting_info", vec![Value::from(id.raw())]));
            (statuses, bitmap, infos)
        };
        let primary = ask();
        let (statuses, bitmap, infos) = &primary;
        let statuses = statuses
            .iter()
            .map(|v| SLOT_STATUS.reply(Ok(v.clone())).unwrap().0);
        assert_eq!(
            statuses.collect::<Vec<_>>(),
            [
                SlotState::Free,
                SlotState::Busy,
                SlotState::Reserved(confirmed.meeting),
                SlotState::Tentative(tentative.meeting)
            ]
        );
        let bitmap: SlotBitmap = decode_from_slice(bitmap.as_bytes().unwrap()).unwrap();
        let free_slots = [free, busy, conf, tent].map(|slot| bitmap.is_free(slot));
        assert_eq!(free_slots, [true, false, false, false]);
        let ids = infos[..2].iter().map(|info| {
            decode_from_slice::<Meeting>(info.as_bytes().unwrap())
                .unwrap()
                .id
        });
        assert_eq!(
            ids.collect::<Vec<_>>(),
            [confirmed.meeting, tentative.meeting]
        );
        assert_eq!(infos[2], Value::Null);
        phil.device().disconnect().unwrap();
        assert_eq!(ask(), primary, "the proxy answered differently");
    }

    #[test]
    fn a_request_without_arguments_is_refused_not_unwound() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let phil = CalendarApp::install(&env.device("phil", "").unwrap()).unwrap();
        let suzy = CalendarApp::install(&env.device("suzy", "").unwrap()).unwrap();
        let proxy = env.proxy("asp", "").unwrap();
        host_calendar_on_proxy(&proxy, &phil).unwrap();
        phil.device().disconnect().unwrap();
        let reads = [FREE_SLOTS_BITMAP.name, SLOT_STATUS.name, MEETING_INFO.name];
        let served: Vec<&str> = REPLICA_READS.iter().map(|m| m.name()).collect();
        assert_eq!(
            served, reads,
            "the replica serves the calendar's reads, once each"
        );
        for method in reads {
            let started = Instant::now();
            let err = suzy
                .device()
                .engine()
                .invoke(phil.user(), &calendar_service(), method, vec![])
                .unwrap_err();
            assert!(matches!(err, SydError::Protocol(_)), "{method}: {err}");
            // Answered, not left to the caller's 2 s deadline.
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "{method} took {:?}",
                started.elapsed()
            );
        }
        // The replica checks a window as the device does.
        let err = suzy
            .device()
            .engine()
            .invoke(
                phil.user(),
                &calendar_service(),
                "free_slots_bitmap",
                vec![Value::from(0u64), Value::from(u64::MAX)],
            )
            .unwrap_err();
        assert!(matches!(err, SydError::Protocol(_)), "{err}");
    }
}
