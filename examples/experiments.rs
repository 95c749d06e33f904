//! The experiment harness: regenerates the measurable counterpart of every
//! figure/claim in the paper and prints one table per experiment id (see
//! DESIGN.md §4). The `benches/` targets cover timing curves; this binary
//! covers the *protocol-shape* results: message counts, byte counts,
//! outcome rates, convergence and failover behaviour.
//!
//! ```sh
//! cargo run --release --offline --example experiments
//! ```

// Experiment driver: a rig that cannot build has no numbers to report.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // a harness: wall time is what it measures

#[path = "../tests/support/baseline.rs"]
mod baseline;
#[path = "../tests/support/mod.rs"]
mod support;

use std::sync::Arc;
use std::time::{Duration, Instant};

use baseline::{BaselineCalendar, ProposalStatus};
use support::{
    await_publishes, calendar_rig, env_ideal, prefill_density, prefilled, users_of, SlotAlloc,
};
use syd_calendar::{MeetingSpec, MeetingStatus};
use syd_core::links::Constraint;
use syd_core::negotiate::Participant;
use syd_core::proxy::enable_replication;
use syd_core::{DeviceRuntime, EntityHandler, Method, Methods, SydEnv, Verb};
use syd_net::{NetConfig, Network, Transport};
use syd_store::{Column, ColumnType, Schema, Store};
use syd_telemetry::names;
use syd_types::{ServiceName, SydResult, Text, TimeSlot, UserId, Value};

fn main() {
    println!("SyD experiment harness — protocol-shape results");
    println!("(paper: Prasad et al., IPDPS 2003; see DESIGN.md for the index)\n");
    e1_baseline_vs_syd();
    f4_negotiation_outcomes();
    e3_convergence();
    e5_proxy_failover();
    e8_rpc_reliability();
    e1_storage_footprint();
}

/// `(frames, bytes)` the network has accepted for transmission so far.
fn traffic(net: &Network) -> (u64, u64) {
    let counter = |name| net.metrics().counter(name).get();
    (
        counter(names::TRANSPORT_FRAMES_OUT),
        counter(names::TRANSPORT_BYTES_OUT),
    )
}

/// `(frames, bytes)` sent since the [`traffic`] reading `before`.
fn sent_since(net: &Network, before: (u64, u64)) -> (u64, u64) {
    let (frames, bytes) = traffic(net);
    (frames - before.0, bytes - before.1)
}

/// E1 — §3.3/§6: messages and bytes to set up (and react to) a meeting,
/// SyD coordination links vs the replicated-folder/e-mail baseline.
fn e1_baseline_vs_syd() {
    println!("== E1: SyD links vs current practice (messages / bytes per task) ==");
    println!(
        "{:>6} | {:>12} {:>12} | {:>14} {:>14} | {:>12}",
        "group", "syd msgs", "syd bytes", "baseline msgs", "baseline bytes", "note"
    );
    for n in [2usize, 4, 8, 16] {
        // --- SyD: schedule one meeting (everyone free). ---
        let env = env_ideal();
        let apps = calendar_rig(&env, n);
        let attendees: Vec<UserId> = users_of(&apps)[1..].to_vec();
        let slots = SlotAlloc::new();
        let before = traffic(env.network());
        let outcome = apps[0]
            .schedule(MeetingSpec::plain("m", slots.next(), attendees.clone()))
            .unwrap();
        assert_eq!(outcome.status, MeetingStatus::Confirmed);
        let (syd_msgs, syd_bytes) = sent_since(env.network(), before);

        // --- Baseline: poll folders + propose + accepts + commit. ---
        let benv = env_ideal();
        let devices: Vec<DeviceRuntime> = (0..n)
            .map(|i| benv.device(&format!("b{i}"), "pw").unwrap())
            .collect();
        let baselines: Vec<Arc<BaselineCalendar>> = (devices.iter())
            .map(|device| BaselineCalendar::install(device).unwrap())
            .collect();
        await_publishes(&devices);
        let participants: Vec<UserId> = baselines[1..].iter().map(|b| b.user()).collect();
        let all_users: Vec<UserId> = baselines.iter().map(|b| b.user()).collect();
        let before = traffic(benv.network());
        // One poll round over a week to pick a slot (the §6 replicated
        // folders must be refreshed first).
        baselines[0]
            .refresh_replicas(&all_users, 0, 7 * 24)
            .unwrap();
        let slot = baselines[0]
            .replica_free_slots(&all_users, 0, 7 * 24)
            .unwrap()[0];
        let proposal = baselines[0].propose(slot, &participants).unwrap();
        for b in &baselines[1..] {
            b.accept(proposal).unwrap();
        }
        await_scheduled(&baselines[0], proposal);
        let (base_msgs, base_bytes) = sent_since(benv.network(), before);

        println!(
            "{:>6} | {:>12} {:>12} | {:>14} {:>14} | {:>12}",
            n, syd_msgs, syd_bytes, base_msgs, base_bytes, "setup"
        );
    }
    // Maintenance traffic: after one schedule change, what does it cost
    // until every participant's view is fresh again? SyD pushes along
    // links (measured); the baseline must poll — each poll round costs
    // 2·(n−1) messages *whether or not anything changed*, so its cost per
    // detected change is 2·(n−1)·(polls per change).
    println!("-- maintenance: traffic for one change to propagate --");
    println!(
        "{:>6} | {:>10} | {:>26}",
        "group", "syd msgs", "baseline msgs (per poll)"
    );
    for n in [2usize, 4, 8, 16] {
        let env = env_ideal();
        let apps = calendar_rig(&env, n);
        let attendees: Vec<UserId> = users_of(&apps)[1..].to_vec();
        let slot = TimeSlot::new(3, 9);
        apps[n - 1].mark_busy(slot).unwrap();
        let outcome = apps[0]
            .schedule(MeetingSpec::plain("m", slot, attendees))
            .unwrap();
        assert_eq!(outcome.status, MeetingStatus::Tentative);
        let before = traffic(env.network());
        apps[n - 1].free_personal(slot).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while apps[0].meeting(outcome.meeting).unwrap().unwrap().status != MeetingStatus::Confirmed
        {
            assert!(Instant::now() < deadline, "never converged");
            syd_types::sync::sleep(&**syd_types::time::wall(), Duration::from_millis(1));
        }
        let (syd_msgs, _) = sent_since(env.network(), before);
        println!("{:>6} | {:>10} | {:>26}", n, syd_msgs, 2 * (n - 1));
    }
    println!(
        "(baseline numbers assume instant human accepts; its polling runs\n\
         whether or not anything changed, so idle cost is unbounded)\n"
    );
}

/// Waits, for 3 s at most, until the baseline's `proposal` committed.
fn await_scheduled(initiator: &BaselineCalendar, proposal: u64) {
    let deadline = Instant::now() + Duration::from_secs(3);
    while initiator.proposal_status(proposal) != Some(ProposalStatus::Scheduled) {
        assert!(Instant::now() < deadline, "baseline never committed");
        syd_types::sync::sleep(&**syd_types::time::wall(), Duration::from_millis(2));
    }
}

struct YesWithProbability(u64, std::sync::atomic::AtomicU64);
impl EntityHandler for YesWithProbability {
    fn prepare(&self, _e: &str, _c: &Value) -> SydResult<()> {
        // Deterministic pseudo-random accept with probability self.0 %.
        let n = self
            .1
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            .wrapping_mul(2654435761)
            .rotate_left(17)
            .wrapping_mul(0x9E3779B97F4A7C15);
        if n % 100 < self.0 {
            Ok(())
        } else {
            Err(syd_types::SydError::App("unavailable".into()))
        }
    }
    fn commit(&self, _e: &str, _c: Value) -> SydResult<()> {
        Ok(())
    }
    fn abort(&self, _e: &str, _c: &Value) {}
}

/// F4 — Figure 4 / §4.3: outcome rates of and / or / xor negotiations as
/// participant availability drops.
fn f4_negotiation_outcomes() {
    println!("== F4: negotiation outcomes vs availability (n = 8, 100 rounds each) ==");
    println!(
        "{:>12} | {:>10} {:>10} {:>10}",
        "availability", "and ok%", "or(2) ok%", "xor(1) ok%"
    );
    for avail in [100u64, 90, 70, 50, 30] {
        let env = env_ideal();
        let devs: Vec<DeviceRuntime> = (0..8)
            .map(|i| env.device(&format!("d{i}"), "pw").unwrap())
            .collect();
        for (i, d) in devs.iter().enumerate() {
            // Distinct seeds so devices decide independently.
            d.set_entity_handler(Arc::new(YesWithProbability(
                avail,
                std::sync::atomic::AtomicU64::new(i as u64 * 7919 + 13),
            )));
        }
        let coordinator = devs[0].clone();
        let run = |constraint: Constraint| -> u32 {
            let mut ok = 0;
            for round in 0..100 {
                let parts: Vec<Participant> = devs
                    .iter()
                    .map(|d| Participant::new(d.user(), format!("e{round}"), Value::str("x")))
                    .collect();
                let outcome = coordinator
                    .negotiator()
                    .negotiate(constraint, &parts)
                    .unwrap();
                if outcome.satisfied {
                    ok += 1;
                }
            }
            ok
        };
        let and_ok = run(Constraint::And);
        let or_ok = run(Constraint::AtLeast(2));
        let xor_ok = run(Constraint::Exactly(1));
        println!("{avail:>11}% | {and_ok:>10} {or_ok:>10} {xor_ok:>10}");
    }
    println!(
        "(expected shape: AND collapses fast as availability drops; OR/XOR\n\
         stay satisfiable — the reason §5's calendar reserves subsets)\n"
    );
}

/// E3 — §5: how fast a tentative meeting converges to confirmed once the
/// blocker disappears (the event-driven path the paper contrasts with
/// polling).
fn e3_convergence() {
    println!("== E3: tentative→confirmed convergence after the blocker clears ==");
    println!(
        "{:>6} | {:>16} | {:>12}",
        "group", "convergence (ms)", "messages"
    );
    for n in [2usize, 4, 8] {
        let env = env_ideal();
        let apps = calendar_rig(&env, n + 1);
        let attendees: Vec<UserId> = users_of(&apps)[1..].to_vec();
        let slot = TimeSlot::new(1, 9);
        // The last participant is busy.
        apps[n].mark_busy(slot).unwrap();
        let outcome = apps[0]
            .schedule(MeetingSpec::plain("m", slot, attendees))
            .unwrap();
        assert_eq!(outcome.status, MeetingStatus::Tentative);

        let before = traffic(env.network());
        let started = Instant::now();
        apps[n].free_personal(slot).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let status = apps[0].meeting(outcome.meeting).unwrap().unwrap().status;
            if status == MeetingStatus::Confirmed {
                break;
            }
            assert!(Instant::now() < deadline, "never converged");
            syd_types::sync::sleep(&**syd_types::time::wall(), Duration::from_micros(200));
        }
        let elapsed = started.elapsed();
        let (msgs, _) = sent_since(env.network(), before);
        println!(
            "{:>6} | {:>16.2} | {:>12}",
            n,
            elapsed.as_secs_f64() * 1e3,
            msgs
        );
    }
    println!("(the baseline would discover the change only at its next poll)\n");
}

/// E5 — §5.2: proxy failover — service continuity through a disconnect.
fn e5_proxy_failover() {
    println!("== E5: proxy failover ==");
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let phil = env.device("phil", "pw").unwrap();
    let andy = env.device("andy", "pw").unwrap();
    let proxy = env.proxy("proxy", "pw").unwrap();
    const SLOTS_SERVICE: &ServiceName = &ServiceName::constant("slots");
    /// An ordinal's status, "free" without a row: the one verb the
    /// primary and the proxy both serve.
    const GET: Verb<(i64,), Text> = Verb::new(SLOTS_SERVICE, "get");
    let svc = SLOTS_SERVICE.clone();

    let schema = Schema::new(
        "slots",
        vec![
            Column::required("ordinal", ColumnType::I64),
            Column::required("status", ColumnType::Str),
        ],
        &["ordinal"],
    )
    .unwrap();
    phil.store().create_table(schema.clone()).unwrap();
    static SLOTS: &Methods<Store> = &[&Method::verb(
        GET,
        |store: &Store, _, (ordinal,)| match store.get_by_key("slots", &[Value::I64(ordinal)])? {
            Some(row) => row.values[1].as_text().cloned(),
            None => Ok(Text::from("free")),
        },
    )];
    let primary = Arc::new(phil.store().clone());
    phil.serve(&svc, &primary, SLOTS);
    proxy
        .host_user(phil.user(), move |store| {
            store.create_table(schema)?;
            Ok(vec![(svc.clone(), SLOTS)])
        })
        .unwrap();
    enable_replication(&phil, proxy.addr(), &["slots"]).unwrap();

    phil.store()
        .insert("slots", vec![Value::I64(9), Value::str("busy")])
        .unwrap();
    syd_types::sync::sleep(&**syd_types::time::wall(), Duration::from_millis(50)); // replication settle

    // Query latency through the primary.
    let t = Instant::now();
    for _ in 0..100 {
        andy.engine().call(phil.user(), GET, (9,)).unwrap();
    }
    let primary_us = t.elapsed().as_micros() as f64 / 100.0;

    // Disconnect; measure takeover: time until the first successful call
    // (includes failure detection + re-resolution to the proxy).
    phil.disconnect().unwrap();
    let t = Instant::now();
    let out = andy.engine().call(phil.user(), GET, (9,)).unwrap();
    let takeover_us = t.elapsed().as_micros();
    assert_eq!(out, "busy", "proxy served stale-free data");

    // Steady-state latency through the proxy.
    let t = Instant::now();
    for _ in 0..100 {
        andy.engine().call(phil.user(), GET, (9,)).unwrap();
    }
    let proxy_us = t.elapsed().as_micros() as f64 / 100.0;

    println!("  query via primary : {primary_us:>8.1} µs");
    println!("  takeover (1st call): {takeover_us:>8} µs");
    println!("  query via proxy   : {proxy_us:>8.1} µs");
    println!("(availability holds through the disconnect; takeover cost is one\n failed attempt + one directory re-resolution)\n");
}

/// E8 — RPC reliability under loss: how many retries and timeouts the
/// node layer absorbs to keep meeting setup working on a lossy network,
/// plus the telemetry dump the rest of the harness can read.
fn e8_rpc_reliability() {
    println!("== E8: rpc retries/timeouts under loss (one 4-party meeting each) ==");
    println!(
        "{:>8} | {:>8} {:>8} {:>8} | {:>10}",
        "loss", "calls", "retries", "timeouts", "outcome"
    );
    let mut dump_device: Option<DeviceRuntime> = None;
    for loss in [0.0f64, 0.02, 0.05, 0.10] {
        let env = SydEnv::new_insecure(NetConfig::ideal().with_loss(loss).with_seed(7));
        let apps = calendar_rig(&env, 4);
        let attendees: Vec<UserId> = users_of(&apps)[1..].to_vec();
        let outcome = apps[0].schedule(MeetingSpec::plain("m", TimeSlot::new(2, 10), attendees));
        let node = apps[0].device().node();
        let calls = node
            .metrics()
            .get_histogram(names::RPC_CALL)
            .map_or(0, |h| h.count());
        println!(
            "{:>7}% | {:>8} {:>8} {:>8} | {:>10}",
            (loss * 100.0) as u32,
            calls,
            node.rpc_retries(),
            node.rpc_timeouts(),
            match outcome {
                Ok(o) => format!("{:?}", o.status),
                Err(_) => "Err".to_owned(),
            }
        );
        if loss == 0.0 {
            dump_device = Some(apps[0].device().clone());
        }
    }
    println!("(retries are absorbed by the node layer; timeouts that exhaust the\n retry budget surface as negotiation declines and repair rounds)\n");

    if let Some(device) = dump_device {
        println!("-- telemetry dump (initiator device, lossless run) --");
        print!(
            "{}",
            syd_telemetry::metrics_table(&device.metrics().snapshot())
        );
        let journal = device.journal().dump();
        let lines: Vec<&str> = journal.lines().collect();
        println!("-- journal ({} events, first 10) --", lines.len());
        for line in lines.iter().take(10) {
            println!("{line}");
        }
        println!("(full dumps: DeviceRuntime::telemetry_dump / telemetry_jsonl)\n");
    }
}

/// §6's storage claim: "each user's local machine stores only that
/// particular user's information" vs a copy of every member's folder.
/// Both rigs get the same personal engagements, a quarter of a week's
/// slots per user, and then set up one meeting in the first slot after
/// that week; then every device's store is counted, all tables.
fn e1_storage_footprint() {
    const WEEK: u64 = 7 * 24;
    const DENSITY_PCT: u64 = 25;
    let meeting_slot = TimeSlot::from_ordinal(WEEK);
    println!("== E1b: storage footprint (rows stored per device, 25 % of a week busy) ==");
    println!(
        "{:>6} | {:>9} {:>9} | {:>13} {:>17}",
        "group", "syd min", "syd max", "baseline rows", "of which replicas"
    );
    for n in [2usize, 4, 8, 16] {
        // SyD: the calendar rig, then one confirmed meeting.
        let env = env_ideal();
        let apps = calendar_rig(&env, n);
        prefill_density(&apps, WEEK, DENSITY_PCT);
        let attendees: Vec<UserId> = users_of(&apps)[1..].to_vec();
        let outcome = apps[0]
            .schedule(MeetingSpec::plain("m", meeting_slot, attendees))
            .unwrap();
        assert_eq!(outcome.status, MeetingStatus::Confirmed);
        let syd_rows: Vec<usize> = apps.iter().map(|a| stored_rows(a.device())).collect();
        let syd_min = syd_rows.iter().min().unwrap();
        let syd_max = syd_rows.iter().max().unwrap();

        // Baseline: the same engagements, then the initiator polls every
        // other member's folder for the week and the meeting is set up.
        let benv = env_ideal();
        let devices: Vec<DeviceRuntime> = (0..n)
            .map(|i| benv.device(&format!("b{i}"), "pw").unwrap())
            .collect();
        let baselines: Vec<Arc<BaselineCalendar>> = (devices.iter())
            .map(|device| BaselineCalendar::install(device).unwrap())
            .collect();
        await_publishes(&devices);
        for (i, b) in baselines.iter().enumerate() {
            for slot in prefilled(i, WEEK, DENSITY_PCT) {
                b.mark_busy(slot).unwrap();
            }
        }
        let participants: Vec<UserId> = baselines[1..].iter().map(|b| b.user()).collect();
        baselines[0]
            .refresh_replicas(&participants, 0, WEEK)
            .unwrap();
        let proposal = baselines[0].propose(meeting_slot, &participants).unwrap();
        for b in &baselines[1..] {
            b.accept(proposal).unwrap();
        }
        await_scheduled(&baselines[0], proposal);
        let base_rows = stored_rows(&devices[0]);
        let replicas = baselines[0].replica_rows().unwrap();

        println!("{n:>6} | {syd_min:>9} {syd_max:>9} | {base_rows:>13} {replicas:>17}");
    }
    println!(
        "(baseline rows: the initiator's, after the one poll its setup needs;\n \
         SyD rows: every device's, after the same setup)\n"
    );
}

/// Rows in every table of `device`'s store.
fn stored_rows(device: &DeviceRuntime) -> usize {
    let store = device.store();
    (store.table_names().iter())
        .map(|table| store.row_count(table).unwrap())
        .sum()
}
