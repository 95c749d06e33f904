//! Layer probes: each times one public function of one crate from
//! outside, on deployments of its own, after the window.
//!
//! A probe runs ten batches. A batch takes a number of samples, each the
//! time of one or more back-to-back calls divided by their number; the
//! batch's reading is the median of its samples, the probe's value the
//! lowest of the ten (the reading least disturbed by the host) and its
//! spread the distance to the highest, as a share. CPU-bound probes make
//! ≥ 2000 calls; probes whose time is injected delay or a cycle make
//! fewer, because each call costs milliseconds that repeat anyway.
//! Nothing here is gated: on a shared 2-vCPU host CPU timings move by
//! tens of percent from run to run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use syd_calendar::app::calendar_service;
use syd_calendar::{slot_entity, Meeting, MeetingStatus};
use syd_core::negotiate::Participant;
use syd_core::{DirectoryClient, SydEngine, SydEnv};
use syd_crypto::{Authenticator, Credentials};
use syd_net::{FramedTcpTransport, NetConfig, Network, Node, Transport, TransportEvent};
use syd_store::{Column, ColumnType, Predicate, Schema, Store};
use syd_telemetry::{EventKind, Journal};
use syd_types::{MeetingId, NodeAddr, Priority, ServiceName, UserId, Value};
use syd_wire::{decode_from_slice, encode_to_vec, Args, Envelope, EventMsg, Payload, Request};

use crate::cycle::Driver;
use crate::deploy::{window, wlan_config, Deployment, Link, WLAN_DELAY};
use crate::run::Values;
use crate::spans::{Recorder, SpanId};
use crate::spec::workload;
use crate::stats::{bounds, median};

const BATCHES: usize = 10;

/// How a probe samples.
#[derive(Clone, Copy)]
struct Plan {
    samples_per_batch: usize,
    calls_per_sample: usize,
}

impl Plan {
    /// Calls the whole probe makes.
    const fn calls(self) -> usize {
        BATCHES * self.samples_per_batch * self.calls_per_sample
    }
}

/// ≥ 2000 calls of a function that takes nanoseconds: samples of ten
/// calls keep the clock's own cost below a percent.
const NANOS: Plan = Plan {
    samples_per_batch: 20,
    calls_per_sample: 10,
};
/// ≥ 2000 calls of a function that takes microseconds, timed one by one.
const MICROS: Plan = Plan {
    samples_per_batch: 200,
    calls_per_sample: 1,
};
/// A function whose time is milliseconds of injected delay.
const DELAYED: Plan = Plan {
    samples_per_batch: 5,
    calls_per_sample: 1,
};

struct Probes<'a> {
    rec: &'a mut Recorder,
    values: &'a mut Values,
    notes: &'a mut Vec<String>,
}

impl Probes<'_> {
    /// Runs one probe over `call`; `scale` converts seconds to the
    /// metric's unit.
    fn probe(&mut self, name: &'static str, plan: Plan, scale: f64, mut call: impl FnMut()) {
        self.probe_prepared(name, plan, scale, || (), |()| call());
    }

    /// A probe with set-up per sample: `prepare` runs untimed before every
    /// sample and hands its result to the timed `call`s.
    fn probe_prepared<T>(
        &mut self,
        name: &'static str,
        plan: Plan,
        scale: f64,
        prepare: impl FnMut() -> T,
        call: impl FnMut(&mut T),
    ) {
        let started = Instant::now();
        let batch_medians = sample_batches(plan, scale, prepare, call);
        self.finish(name, &batch_medians, plan.calls(), started);
    }

    /// Records a probe's value (the lowest batch reading), its spread and
    /// its `probe.<metric>` span.
    fn finish(
        &mut self,
        name: &'static str,
        batch_medians: &[f64],
        calls: usize,
        started: Instant,
    ) {
        let (lo, hi) = bounds(batch_medians);
        self.values.insert(name, lo);
        self.notes.push(format!(
            "probe {name}: {lo:.3}, batches up to {hi:.3} (spread {:.1} %, {calls} calls)",
            if lo > 0.0 {
                (hi - lo) / lo * 100.0
            } else {
                0.0
            }
        ));
        self.rec.push(
            format!("probe.{name}"),
            SpanId::NONE,
            0,
            started,
            Instant::now(),
        );
    }
}

/// The median of each of the ten batches of `plan`.
fn sample_batches<T>(
    plan: Plan,
    scale: f64,
    mut prepare: impl FnMut() -> T,
    mut call: impl FnMut(&mut T),
) -> Vec<f64> {
    (0..BATCHES)
        .map(|_| {
            let samples: Vec<f64> = (0..plan.samples_per_batch)
                .map(|_| {
                    let mut state = prepare();
                    let t = Instant::now();
                    for _ in 0..plan.calls_per_sample {
                        call(&mut state);
                    }
                    t.elapsed().as_secs_f64() * scale / plan.calls_per_sample as f64
                })
                .collect();
            median(&samples)
        })
        .collect()
}

const S_TO_NS: f64 = 1e9;
const S_TO_US: f64 = 1e6;

/// Calendar users of the deployment the kernel probes run on: a caller
/// and 32 peers.
const PROBE_USERS: usize = 33;

/// Runs every probe, filling `values` and recording one span each into
/// `rec` (which must be enabled). Returns whether the cycles the probes
/// ran (on the ideal network and on TCP) all completed.
pub fn run_all(
    seed: u64,
    idle_spawn_us: Option<f64>,
    rec: &mut Recorder,
    values: &mut Values,
    notes: &mut Vec<String>,
) -> Result<bool, String> {
    let mut p = Probes { rec, values, notes };
    wire(&mut p);
    store(&mut p)?;
    crypto(&mut p)?;
    telemetry(&mut p);
    transport(&mut p, seed)?;
    rpc(&mut p, seed)?;
    kernel(&mut p, seed, idle_spawn_us)?;
    let ideal = whole_cycle(&mut p, "calendar.cycle_ideal_ms", Link::Ideal, seed)?;
    let tcp = whole_cycle(&mut p, "calendar.cycle_tcp_ms", Link::Tcp, seed)?;
    Ok(ideal && tcp)
}

/// wire: the `mark` request of a negotiation round, carrying a `reserve`
/// change with the full record of an 8-member meeting.
fn wire(p: &mut Probes<'_>) {
    let members: Vec<UserId> = (1..=8).map(UserId::new).collect();
    let record = Meeting {
        id: MeetingId::new((1 << 24) | 1),
        title: "a-0".into(),
        initiator: members[0],
        ordinal: 100,
        status: MeetingStatus::Tentative,
        priority: Priority::NORMAL,
        corr: format!("meeting:{}", (1u64 << 24) | 1),
        reserved: Vec::new(),
        musts: members,
        groups: Vec::new(),
        supervisors: Vec::new(),
    };
    let change = Value::map([
        ("action", Value::str("reserve")),
        ("meeting", Value::from(record.id.raw())),
        ("priority", Value::from(u32::from(record.priority.level()))),
        ("record", record.to_value()),
    ]);
    let envelope = Envelope::new(
        NodeAddr::new(2),
        NodeAddr::new(3),
        Payload::Request(Request {
            id: syd_types::RequestId::new(77),
            caller: UserId::new(1),
            target: UserId::new(2),
            credentials: vec![0xA5; 24],
            service: syd_core::negotiate::link_service(),
            method: "mark".into(),
            args: Args::from(vec![
                Value::from((1u64 << 24) | 9),
                Value::str(slot_entity(100)),
                change,
            ]),
            trace: Some(syd_wire::TraceContext {
                trace_id: 0x1234_5678_9ABC_DEF0,
                span_id: 0x0FED_CBA9_8765_4321,
                hop: 1,
            }),
        }),
    );
    let bytes = encode_to_vec(&envelope);
    p.values.insert("wire.request_bytes", bytes.len() as f64);
    p.probe("wire.encode_ns", NANOS, S_TO_NS, || {
        black_box(encode_to_vec(black_box(&envelope)));
    });
    p.probe("wire.decode_ns", NANOS, S_TO_NS, || {
        black_box(decode_from_slice::<Envelope>(black_box(&bytes)).is_ok());
    });
}

/// store: the three statements the calendar leans on, against a table
/// shaped and filled like a calendar's `slots`.
fn store(p: &mut Probes<'_>) -> Result<(), String> {
    let store = Store::new();
    let fail = |e: syd_types::SydError| format!("store probe: {e}");
    store
        .create_table(
            Schema::new(
                "slots",
                vec![
                    Column::required("ordinal", ColumnType::I64),
                    Column::required("status", ColumnType::Str),
                    Column::nullable("meeting", ColumnType::I64),
                    Column::required("priority", ColumnType::I64),
                ],
                &["ordinal"],
            )
            .map_err(fail)?,
        )
        .map_err(fail)?;
    let slots = window().len();
    for ordinal in (0..slots).step_by(3) {
        store
            .insert(
                "slots",
                vec![
                    Value::from(ordinal),
                    Value::str("busy"),
                    Value::Null,
                    Value::from(255u32),
                ],
            )
            .map_err(fail)?;
    }
    let mut next = 0u64;
    p.probe("store.txn_write_us", MICROS, S_TO_US, || {
        next = (next + 3) % slots;
        let mut txn = store.begin();
        let updated = txn.update(
            "slots",
            &Predicate::Eq("ordinal".into(), Value::from(next)),
            &[("priority".into(), Value::from(next % 200))],
        );
        txn.commit();
        black_box(updated.is_ok());
    });
    p.probe("store.get_by_key_us", NANOS, S_TO_US, || {
        next = (next + 3) % slots;
        black_box(store.get_by_key("slots", &[Value::from(next)]).is_ok());
    });
    p.probe("store.range_select_us", MICROS, S_TO_US, || {
        let occupied = store
            .query("slots")
            .filter(Predicate::Between(
                "ordinal".into(),
                Value::from(0u64),
                Value::from(slots - 1),
            ))
            .column("ordinal");
        black_box(occupied.is_ok());
    });
    Ok(())
}

/// crypto: sealing and verifying the §5.4 credential blob every request
/// carries.
fn crypto(p: &mut Probes<'_>) -> Result<(), String> {
    let auth = Authenticator::from_passphrase("probe");
    let user = UserId::new(7);
    auth.table().authorize(user, "pw");
    let credentials = Credentials::new(user, "pw");
    let iv = [3u8; 8];
    let blob = auth.seal(&credentials, iv);
    if auth.verify(&blob).ok() != Some(user) {
        return Err("crypto probe: a sealed blob does not verify".into());
    }
    p.probe("crypto.seal_us", NANOS, S_TO_US, || {
        black_box(auth.seal(black_box(&credentials), iv));
    });
    p.probe("crypto.verify_us", NANOS, S_TO_US, || {
        black_box(auth.verify(black_box(&blob)).is_ok());
    });
    Ok(())
}

/// trace / telemetry: what recording one span and one journal event costs.
fn telemetry(p: &mut Probes<'_>) {
    let tracer = syd_trace::Tracer::new("probe", u64::MAX - 7);
    p.probe("trace.span_ns", NANOS, S_TO_NS, || {
        drop(tracer.span_root("probe.span"));
    });
    let journal = Journal::default();
    p.probe("telemetry.journal_record_ns", NANOS, S_TO_NS, || {
        journal.record(EventKind::Info, "probe event");
    });
}

/// One frame from endpoint to endpoint of `transport`, less the
/// `injected_us` the transport was asked to add.
fn hop_probe(
    p: &mut Probes<'_>,
    name: &'static str,
    plan: Plan,
    transport: &dyn Transport,
    injected_us: f64,
) -> Result<(), String> {
    let fail = |e: syd_types::SydError| format!("{name}: {e}");
    let (a, b) = (
        transport.listen().map_err(fail)?,
        transport.listen().map_err(fail)?,
    );
    let hop = || {
        let frame = Envelope::new(
            a.addr(),
            b.addr(),
            Payload::Event(EventMsg {
                topic: "probe".into(),
                source: UserId::new(1),
                payload: Value::Null,
            }),
        );
        if a.send(frame).is_err() {
            return false;
        }
        loop {
            match b.recv_event() {
                Ok(TransportEvent::Message(_)) => return true,
                Ok(_) => {}
                Err(_) => return false,
            }
        }
    };
    // The first frame pays for the connection on TCP.
    if !hop() {
        return Err(format!("{name}: the frame did not arrive"));
    }
    let started = Instant::now();
    let mut batch_medians = sample_batches(
        plan,
        S_TO_US,
        || (),
        |()| {
            black_box(hop());
        },
    );
    for reading in &mut batch_medians {
        *reading -= injected_us;
    }
    p.finish(name, &batch_medians, plan.calls(), started);
    a.close();
    b.close();
    Ok(())
}

fn transport(p: &mut Probes<'_>, seed: u64) -> Result<(), String> {
    hop_probe(
        p,
        "transport.sim_hop_us",
        MICROS,
        &Network::new(NetConfig::ideal()),
        0.0,
    )?;
    // The delay the sim adds on top of the 2 ms it was asked for: what
    // every `*_p50_ms` pays per hop for timers and wake-ups.
    let delayed = Plan {
        samples_per_batch: 20,
        calls_per_sample: 1,
    };
    hop_probe(
        p,
        "transport.delay_overshoot_us",
        delayed,
        &Network::new(wlan_config(seed)),
        WLAN_DELAY.as_secs_f64() * S_TO_US,
    )?;
    hop_probe(
        p,
        "transport.tcp_hop_us",
        MICROS,
        &FramedTcpTransport::loopback(),
        0.0,
    )
}

/// net: one blocking RPC between two bare nodes on each network — the
/// round-trip unit — and eight overlapped.
fn rpc(p: &mut Probes<'_>, seed: u64) -> Result<(), String> {
    let service = ServiceName::new("probe");
    let pair = |transport: &dyn Transport| -> Result<(Node, Vec<Node>), String> {
        let fail = |e: syd_types::SydError| format!("rpc probe: {e}");
        let client = Node::spawn_on(transport).map_err(fail)?;
        let servers = (0..8)
            .map(|_| {
                let server = Node::spawn_on(transport).map_err(fail)?;
                server.set_handler(Arc::new(|_from, _req: Request| Ok(Value::Null)));
                Ok(server)
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok((client, servers))
    };
    let stop = |client: Node, servers: Vec<Node>| {
        client.shutdown();
        for server in servers {
            server.shutdown();
        }
    };
    let call = |client: &Node, server: &Node| {
        black_box(client.call(server.addr(), &service, "ping", vec![]).is_ok());
    };

    let net = Network::new(NetConfig::ideal().with_seed(seed));
    let (client, servers) = pair(&net)?;
    call(&client, &servers[0]);
    p.probe("net.rpc_ideal_us", MICROS, S_TO_US, || {
        call(&client, &servers[0]);
    });
    net.reconfigure(wlan_config(seed));
    p.probe("net.rpc_wlan_us", DELAYED, S_TO_US, || {
        call(&client, &servers[0]);
    });
    p.probe("net.rpc_par8_wlan_us", DELAYED, S_TO_US, || {
        let pending: Vec<_> = servers
            .iter()
            .filter_map(|s| client.call_async(s.addr(), &service, "ping", vec![]).ok())
            .collect();
        for call in pending {
            black_box(call.wait(std::time::Duration::from_secs(2)).is_ok());
        }
    });
    stop(client, servers);

    let tcp = FramedTcpTransport::loopback();
    let (client, servers) = pair(&tcp)?;
    call(&client, &servers[0]);
    p.probe("net.rpc_tcp_us", MICROS, S_TO_US, || {
        call(&client, &servers[0]);
    });
    stop(client, servers);
    Ok(())
}

/// core and calendar: directory resolution, group invocation and a
/// negotiation round among calendar users, plus a calendar's local
/// availability scan.
fn kernel(p: &mut Probes<'_>, seed: u64, idle_spawn_us: Option<f64>) -> Result<(), String> {
    let dep = Deployment::start(PROBE_USERS, 0, seed, Link::Ideal)?;
    let caller = dep.apps[0].device();
    let peers = &dep.users[1..];

    // Cold: a fresh engine has an empty address cache, so every call is
    // one batched directory round trip.
    for (name, n) in [
        ("core.resolve_many_us_n8", 8),
        ("core.resolve_many_us_n32", 32),
    ] {
        p.probe_prepared(
            name,
            MICROS,
            S_TO_US,
            || {
                SydEngine::new(
                    caller.node().clone(),
                    DirectoryClient::new(caller.node().clone(), dep.env.dir_addr()),
                )
            },
            |engine| {
                black_box(engine.resolve_many(&peers[..n]));
            },
        );
    }

    p.probe("calendar.free_bitmap_us", MICROS, S_TO_US, || {
        let range = window();
        black_box(
            dep.apps[0]
                .free_bitmap(range.start.ordinal(), range.end.ordinal())
                .is_ok(),
        );
    });

    match idle_spawn_us {
        // The fleet workload has timed its own 4000 spawns.
        Some(us) => {
            p.values.insert("core.device_spawn_us", us);
        }
        None => spawn_probe(p, &dep.env)?,
    }

    dep.env.network().reconfigure(wlan_config(seed));
    let pool_slot = dep.calendars.pool[0].ordinal();
    for (name, n) in [
        ("core.invoke_group_wlan_us_n8", 8),
        ("core.invoke_group_wlan_us_n32", 32),
    ] {
        p.probe(name, DELAYED, S_TO_US, || {
            let result = caller.engine().invoke_group(
                &peers[..n],
                &calendar_service(),
                "slot_status",
                vec![Value::from(pool_slot)],
            );
            black_box(result.all_ok());
        });
    }
    // A full §4.3 round — mark and lock, then change and unlock — whose
    // change releases a meeting nobody holds, so it leaves no state.
    let release = Value::map([
        ("action", Value::str("release")),
        ("meeting", Value::from(u64::MAX >> 8)),
    ]);
    let participants: Vec<Participant> = dep.users[..8]
        .iter()
        .map(|&u| Participant::new(u, slot_entity(pool_slot), release.clone()))
        .collect();
    p.probe("core.negotiate_and_wlan_us_n8", DELAYED, S_TO_US, || {
        let outcome = caller.negotiator().negotiate_and(&participants);
        black_box(outcome.is_ok_and(|o| o.satisfied));
    });
    dep.stop();
    Ok(())
}

/// core: spawning one more bare device into a running deployment.
fn spawn_probe(p: &mut Probes<'_>, env: &SydEnv) -> Result<(), String> {
    let t_probe = Instant::now();
    let mut spawned = Vec::new();
    let mut batch_medians = Vec::with_capacity(BATCHES);
    for batch in 0..BATCHES {
        let mut samples = Vec::with_capacity(20);
        for i in 0..20 {
            let t = Instant::now();
            let device = env
                .device(&format!("spawn{batch}-{i}"), "pw")
                .map_err(|e| format!("spawn probe: {e}"))?;
            samples.push(t.elapsed().as_secs_f64() * S_TO_US);
            spawned.push(device);
        }
        batch_medians.push(median(&samples));
    }
    p.finish(
        "core.device_spawn_us",
        &batch_medians,
        spawned.len(),
        t_probe,
    );
    for device in spawned {
        device.shutdown();
    }
    Ok(())
}

/// calendar: the benchmark's own cycle at n = 8 on another network — the
/// CPU-bound (`Ideal`) and socket-bound (`Tcp`) readings. Informational:
/// these are the numbers that do not repeat on a shared host.
fn whole_cycle(
    p: &mut Probes<'_>,
    name: &'static str,
    link: Link,
    seed: u64,
) -> Result<bool, String> {
    const WARMUP: usize = 2;
    let shape = workload("wlan_n8").ok_or("wlan_n8 is a workload")?;
    let dep = Deployment::start(shape.users, 0, seed, link)?;
    let mut all_completed = true;
    {
        let mut driver = Driver::new(&dep, shape, seed);
        let mut unrecorded = Recorder::new();
        let t_probe = Instant::now();
        let mut batch_medians = Vec::with_capacity(BATCHES);
        for i in 0..WARMUP + BATCHES {
            match driver.cycle(&mut unrecorded) {
                Ok(record) if i >= WARMUP => batch_medians.push(record.busy_ms()),
                Ok(_) => {}
                Err(failure) => {
                    all_completed = false;
                    p.notes
                        .push(format!("GATE FAILED: {name} cycle {i}: {}", failure.what));
                }
            }
        }
        p.finish(name, &batch_medians, batch_medians.len(), t_probe);
    }
    dep.stop();
    Ok(all_completed)
}
