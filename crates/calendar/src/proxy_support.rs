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

use std::sync::Arc;

use syd_core::proxy::{enable_replication, ProxyHost, ProxyMethod};
use syd_store::Store;
use syd_types::{MeetingId, SydResult, UserId, Value};

use crate::app::{
    arg, calendar_service, create_replicated_tables, free_bitmap_of, slot_status_of, CalendarApp,
};
use crate::model::Meeting;

fn free_slots_bitmap_method() -> ProxyMethod {
    Arc::new(|_ctx, store: &Store, args: &[Value]| {
        let start = arg(args, 0)?.as_i64()? as u64;
        let end = arg(args, 1)?.as_i64()? as u64;
        Ok(Value::Bytes(free_bitmap_of(store, start, end)?.pack()))
    })
}

fn slot_status_method() -> ProxyMethod {
    Arc::new(|_ctx, store: &Store, args: &[Value]| {
        slot_status_of(store, arg(args, 0)?.as_i64()? as u64)
    })
}

fn meeting_info_method() -> ProxyMethod {
    Arc::new(|_ctx, store: &Store, args: &[Value]| {
        let id = MeetingId::new(arg(args, 0)?.as_i64()? as u64);
        match store.get_by_key("meetings", &[Value::from(id.raw())])? {
            None => Ok(Value::Null),
            Some(row) => {
                // Validate the stored record before serving its bytes on.
                Meeting::from_value(&row.values[1])?;
                Ok(row.values[1].clone())
            }
        }
    })
}

/// Hosts `user`'s calendar read path on `proxy` and starts replication
/// from `app`'s primary store. Call once per hosted calendar user.
pub fn host_calendar_on_proxy(proxy: &ProxyHost, app: &CalendarApp) -> SydResult<()> {
    let user: UserId = app.user();
    let svc = calendar_service();
    proxy.host_user(user, |store| {
        create_replicated_tables(store)?;
        Ok(vec![
            (
                (svc.clone(), "free_slots_bitmap".to_owned()),
                free_slots_bitmap_method(),
            ),
            (
                (svc.clone(), "slot_status".to_owned()),
                slot_status_method(),
            ),
            (
                (svc.clone(), "meeting_info".to_owned()),
                meeting_info_method(),
            ),
        ])
    })?;
    enable_replication(app.device(), proxy.addr(), &["slots", "meetings"])?;
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::model::{MeetingSpec, MeetingStatus};
    use std::time::{Duration, Instant};
    use syd_core::SydEnv;
    use syd_net::NetConfig;
    use syd_types::{SlotRange, SydError, TimeSlot};

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
        let rec = Meeting::from_value(&info).unwrap();
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
                .status
        };
        assert_eq!(with_andy("conf", conf), MeetingStatus::Confirmed);
        andy.device().disconnect().unwrap();
        assert_eq!(with_andy("tent", tent), MeetingStatus::Tentative);
        wait_for(
            || {
                let replica = proxy.replica_store(phil.user()).unwrap();
                replica.row_count("slots").unwrap() >= 3
            },
            "replication",
        );

        let ask = || {
            [free, busy, conf, tent].map(|slot| {
                suzy.device()
                    .engine()
                    .invoke(
                        phil.user(),
                        &calendar_service(),
                        "slot_status",
                        vec![Value::from(slot.ordinal())],
                    )
                    .unwrap()
            })
        };
        let primary = ask();
        let statuses = primary
            .iter()
            .map(|v| v.as_map().unwrap()["status"].as_str().unwrap().to_owned());
        assert_eq!(
            statuses.collect::<Vec<_>>(),
            ["free", "busy", "conf", "tent"]
        );
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
        for method in ["free_slots_bitmap", "slot_status", "meeting_info"] {
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
    }
}
