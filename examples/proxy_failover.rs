//! Mobility support through proxies (§5.2): a device drops off the
//! wireless network, its proxy transparently serves in its place, and on
//! reconnect the device "takes over the proxy" by replaying the journal.
//!
//! ```sh
//! cargo run --example proxy_failover
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // example code

use std::sync::Arc;
use std::time::{Duration, Instant};

use syd::kernel::proxy::{enable_replication, replay_journal, DRAIN_JOURNAL};
use syd::kernel::{InvokeCtx, Method, Methods, SydEnv, Verb};
use syd::net::NetConfig;
use syd::store::{Column, ColumnType, Predicate, Schema, Store};
use syd::types::{ServiceName, SydResult, Text, TimeSlot, Value};

/// The slots service.
const SLOTS_SERVICE: &ServiceName = &ServiceName::constant("slots");
/// An ordinal's status, "free" without a row.
const GET: Verb<(i64,), Text> = Verb::new(SLOTS_SERVICE, "get");
/// Sets an ordinal's status.
const SET: Verb<(i64, Text), ()> = Verb::new(SLOTS_SERVICE, "set");

fn slots_schema() -> Schema {
    Schema::new(
        "slots",
        vec![
            Column::required("ordinal", ColumnType::I64),
            Column::required("status", ColumnType::Str),
        ],
        &["ordinal"],
    )
    .unwrap()
}

fn get(store: &Store, _ctx: &InvokeCtx, (ordinal,): (i64,)) -> SydResult<Text> {
    match store.get_by_key("slots", &[Value::I64(ordinal)])? {
        Some(row) => row.values[1].as_text().cloned(),
        None => Ok(Text::from("free")),
    }
}

fn set(store: &Store, _ctx: &InvokeCtx, (ordinal, status): (i64, Text)) -> SydResult<()> {
    let status = Value::Str(status.clone());
    if store.get_by_key("slots", &[Value::I64(ordinal)])?.is_some() {
        store.update(
            "slots",
            &Predicate::Eq("ordinal".into(), Value::I64(ordinal)),
            &[("status".into(), status)],
        )?;
    } else {
        store.insert("slots", vec![Value::I64(ordinal), status])?;
    }
    Ok(())
}

/// The slots service: Phil's device serves the read, the proxy both.
static SLOTS: &Methods<Store> = &[&Method::verb(GET, get), &Method::verb(SET, set)];

fn main() {
    let env = SydEnv::new(NetConfig::wireless_lan(), "proxy passphrase");
    let phil = env.device("phil", "pw-phil").unwrap();
    let andy = env.device("andy", "pw-andy").unwrap();
    // The proxy lives on an application-service-provider machine (§3.2).
    let proxy = env.proxy("asp-proxy", "pw-proxy").unwrap();
    let svc = SLOTS_SERVICE.clone();

    // Phil's primary store and a tiny slots service.
    phil.store().create_table(slots_schema()).unwrap();
    let primary = Arc::new(phil.store().clone());
    phil.serve(&svc, &primary, &SLOTS[..1]);

    // The proxy hosts a replica of Phil's database and serves the same
    // service — and a write, which it journals.
    proxy
        .host_user(phil.user(), |store| {
            store.create_table(slots_schema())?;
            Ok(vec![(svc.clone(), SLOTS)])
        })
        .unwrap();
    enable_replication(&phil, proxy.addr(), &["slots"]).unwrap();

    // Phil books a slot; replication keeps the proxy warm.
    let slot = TimeSlot::new(1, 9);
    phil.store()
        .insert(
            "slots",
            vec![Value::from(slot.ordinal()), Value::str("dentist")],
        )
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while proxy
        .replica_store(phil.user())
        .unwrap()
        .row_count("slots")
        .unwrap()
        == 0
        && Instant::now() < deadline
    {
        syd::types::sync::sleep(&**env.clock(), Duration::from_millis(5));
    }
    println!("replica warm: proxy mirrors phil's booking");

    // Phil's iPAQ goes out of range…
    phil.disconnect().unwrap();
    println!("phil disconnected");

    // …but Andy's queries still work: the directory silently routes to
    // the proxy ("the proxy and the SyD object act as a single entity").
    let ordinal = slot.ordinal() as i64;
    let status = andy.engine().call(phil.user(), GET, (ordinal,)).unwrap();
    println!("andy reads phil's calendar via proxy: {status}");

    // Andy even books a new slot; the proxy journals the write.
    let booking = (
        TimeSlot::new(1, 15).ordinal() as i64,
        "sync with andy".into(),
    );
    andy.engine().call(phil.user(), SET, booking).unwrap();
    println!(
        "andy wrote through the proxy (journal: {} op)",
        proxy.journal_len(phil.user())
    );

    // Phil comes back: drain the journal and take over.
    phil.reconnect().unwrap();
    let ops = (phil.engine())
        .call(proxy.user(), DRAIN_JOURNAL, (phil.user(),))
        .unwrap();
    let applied = replay_journal(phil.store(), &ops).unwrap();
    println!("phil reconnected and replayed {applied} journaled op(s)");

    let status = phil
        .store()
        .get_by_key("slots", &[Value::from(TimeSlot::new(1, 15).ordinal())])
        .unwrap()
        .unwrap();
    println!("phil's own database now shows: {}", status.values[1]);
}
