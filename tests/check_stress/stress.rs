//! Negotiation stress driver, audited by `syd-check`.
//!
//! Drives hundreds of concurrent §4.3 negotiations over a small, heavily
//! contended entity space while the simulated network drops messages and
//! (optionally) partitions random device pairs, then quiesces, ends the
//! leases left behind, and runs the protocol invariant checker over
//! every journal and lock table. The seed fixes the session mix, the
//! network's RNG and the partition churn; which session wins a contended
//! entity still depends on thread timing, so two runs at one seed can end
//! with different outcomes, and a violation seen once may not recur at the
//! same seed.
//!
//! The driver can also *inject* a protocol defect after the run — a
//! leaked entity lock or a forged double-commit record — to prove the
//! checker catches it and reports the offending session with a journal
//! excerpt. A module of `tests/check_stress.rs`, which runs it.
//!
//! The deployment runs in virtual time ([`SimClock`]): a lost frame's
//! deadline, a bounded mark wait and a partition's flip all pass as fast
//! as the machine runs the traffic between them, and `longest_session`
//! is read on the same clock as the participants' leases.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

use syd_check::{AuditOptions, AuditReport};
use syd_core::device::entity_lock_key;
use syd_core::links::Constraint;
use syd_core::negotiate::Participant;
use syd_core::{DeviceRuntime, EntityHandler, SydEnv};
use syd_net::{NetConfig, Network};
use syd_telemetry::{names, Event};
use syd_types::rng::Rng;
use syd_types::sync::{self, Mutex, Rank};
use syd_types::{Clock, NodeAddr, SimClock, SydError, SydResult, Value};

/// A deliberately injected protocol defect (see [`StressConfig::inject`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Acquire an entity lock whose journal story is already closed and
    /// never release it — the checker must flag a lock leak.
    LockLeak,
    /// Forge a `Change` record for a session that does not hold the
    /// entity's lock — the checker must flag a double-book.
    DoubleCommit,
}

/// Devices in the deployment (each is participant and coordinator).
const DEVICES: usize = 6;
/// Concurrent initiator threads.
const WORKERS: usize = 6;
/// Size of the contended entity space (`slot:0 .. slot:n-1`).
const ENTITIES: u64 = 8;

/// Parameters of one stress run.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Total negotiation sessions across all workers.
    pub sessions: usize,
    /// Per-message loss probability of the simulated network.
    pub loss: f64,
    /// Periodically partition and heal random device pairs during the run.
    pub partition: bool,
    /// Seed for the session mix, the network RNG, and the partition churn.
    pub seed: u64,
    /// Inject a defect after the run quiesced (the audit must catch it).
    pub inject: Option<Fault>,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            sessions: 200,
            loss: 0.02,
            partition: true,
            seed: 42,
            inject: None,
        }
    }
}

/// What a stress run did, plus the invariant audit of the aftermath.
// `lapsed`, `rpc_timeouts` and `longest_session` are read through `Debug`
// only: a failing assertion prints the whole outcome.
#[allow(dead_code)]
#[derive(Debug)]
pub struct StressOutcome {
    /// Sessions whose constraint was satisfied.
    pub satisfied: usize,
    /// Sessions that ran to completion (satisfied or not).
    pub completed: usize,
    /// Sessions that errored outright (e.g. coordinator unreachable).
    pub errors: usize,
    /// Entity-lock leases still held at the end of the run, ended then.
    pub lapsed: usize,
    /// `rpc.retries` summed over the devices: requests sent again.
    pub rpc_retries: u64,
    /// `rpc.timeouts` summed over the devices: sends that hit their deadline.
    pub rpc_timeouts: u64,
    /// The slowest `negotiate` call, to be read against the participants'
    /// lock lease (`syd_core::device::LOCK_LEASE`).
    pub longest_session: Duration,
    /// Panics on any thread of the process during the run: initiators,
    /// runtime loops, pool jobs and handlers alike. A debug build's
    /// lock-order and wait checks fire by panicking, so 0 means none did.
    pub panics: u64,
    /// The protocol invariant audit over every device.
    pub report: AuditReport,
}

/// Votes yes with probability `percent`, deterministically per device.
struct FlakyHandler {
    percent: u64,
    calls: AtomicU64,
}

impl EntityHandler for FlakyHandler {
    fn prepare(&self, _entity: &str, _change: &Value) -> SydResult<()> {
        let n = self
            .calls
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
        if n % 100 < self.percent {
            Ok(())
        } else {
            Err(SydError::App("unavailable".into()))
        }
    }

    fn commit(&self, _entity: &str, _change: Value) -> SydResult<()> {
        Ok(())
    }

    fn abort(&self, _entity: &str, _change: &Value) {}
}

/// One pre-generated negotiation: constraint + participant assignments.
fn plan_session(rng: &mut Rng, devices: &[DeviceRuntime]) -> (Constraint, Vec<Participant>) {
    let n = 2 + rng.below(devices.len() as u64 - 1) as usize;
    let constraint = match rng.below(3) {
        0 => Constraint::And,
        1 => Constraint::AtLeast(1 + rng.below(n as u64 - 1) as u32),
        _ => Constraint::Exactly(1 + rng.below(n.min(2) as u64) as u32),
    };
    // Distinct participants, contended entities: pick an n-subset by
    // rotating from a random start so every device stays busy.
    let start = rng.below(devices.len() as u64) as usize;
    let parts = (0..n)
        .map(|i| {
            let dev = &devices[(start + i) % devices.len()];
            let entity = format!("slot:{}", rng.below(ENTITIES));
            Participant::new(dev.user(), entity, Value::str("stress"))
        })
        .collect();
    (constraint, parts)
}

/// Panics on any thread of the process since [`count_panics`] ran.
static PANICS: AtomicU64 = AtomicU64::new(0);

/// Held shared by every [`run`] for its whole window and exclusively by
/// the test that panics on purpose, so that panic never lands in a run's
/// `panics` count. Runs still overlap one another.
static PANIC_WINDOW: RwLock<()> = RwLock::new(());

/// Installs, once per process, a panic hook that counts every panic and
/// then runs the hook it replaced, so the message still prints. A hook
/// sees a panic on any thread, also one a pool worker or a handler's
/// `catch_unwind` swallows.
fn count_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::Relaxed);
            previous(info);
        }));
    });
}

/// Runs the stress mix and audits the aftermath. Deterministic in
/// `cfg.seed` up to thread interleaving (the *audit verdict* must be
/// clean for every seed; the satisfied/declined split may vary).
pub fn run(cfg: &StressConfig) -> StressOutcome {
    let _window = PANIC_WINDOW.read().unwrap_or_else(PoisonError::into_inner);
    count_panics();
    let panics_before = PANICS.load(Ordering::Relaxed);
    let clock = SimClock::new();
    let net = NetConfig::ideal().with_loss(cfg.loss).with_seed(cfg.seed);
    let env = SydEnv::on_network(Network::with_clock(net, Arc::new(clock.clone())), None);
    let devices: Vec<DeviceRuntime> = (0..DEVICES)
        .map(|i| env.device(&format!("stress{i}"), "").unwrap())
        .collect();
    for (i, dev) in devices.iter().enumerate() {
        dev.set_entity_handler(Arc::new(FlakyHandler {
            percent: 85,
            calls: AtomicU64::new(cfg.seed.wrapping_add(i as u64 * 7919)),
        }));
    }

    // Pre-plan every session so the mix is a pure function of the seed,
    // then deal them round-robin to the workers.
    let mut rng = Rng::new(cfg.seed);
    let plans: Vec<(Constraint, Vec<Participant>)> = (0..cfg.sessions)
        .map(|_| plan_session(&mut rng, &devices))
        .collect();

    let satisfied = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let longest_us = AtomicU64::new(0);

    // Partition churn: cut a random device pair, let traffic fail, heal,
    // repeat until the workers drain — a task on the deployment's loop,
    // so the flips keep virtual time.
    let churn = cfg.partition.then(|| {
        let churn = Arc::new(Churn {
            net: env.network().clone(),
            addrs: devices.iter().map(DeviceRuntime::addr).collect(),
            state: Mutex::new(Rank::Leaf, (Rng::new(cfg.seed ^ 0xDEAD_BEEF), 0, false)),
        });
        let task = env
            .runtime()
            .schedule_periodic(CHURN_TICK, Arc::downgrade(&churn), Churn::tick);
        (churn, task)
    });

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(WORKERS);
        for w in 0..WORKERS {
            let coordinator = &devices[w % devices.len()];
            let plans = &plans;
            let (satisfied, completed, errors) = (&satisfied, &completed, &errors);
            let (longest_us, clock) = (&longest_us, &clock);
            handles.push(scope.spawn(move || {
                for (constraint, parts) in plans.iter().skip(w).step_by(WORKERS) {
                    let started = clock.instant();
                    let outcome = coordinator.negotiator().negotiate(*constraint, parts);
                    let took = clock.instant() - started;
                    longest_us.fetch_max(took.as_micros() as u64, Ordering::Relaxed);
                    match outcome {
                        Ok(outcome) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                            if outcome.satisfied {
                                satisfied.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }));
        }

        for handle in handles {
            let _ = handle.join();
        }
    });
    if let Some((_churn, task)) = churn {
        env.runtime().cancel_periodic(task);
        env.network().heal_partitions();
    }

    // Quiesce: let bounded mark-waits and in-flight aborts land, then end
    // every lease left so each surviving lock's story is closed in the
    // journal before the audit reads it.
    clock.run_for(Duration::from_millis(300));
    let lapsed: usize = devices.iter().map(DeviceRuntime::end_leases).sum();

    match cfg.inject {
        Some(Fault::LockLeak) => inject_lock_leak(&devices[0]),
        Some(Fault::DoubleCommit) => inject_double_commit(&devices[0]),
        None => {}
    }

    // Loss-tolerant audit: duplicate deliveries and lapsed leases are
    // legal on this network; leaks, double-books, bad arithmetic and
    // broken waiting queues are not.
    let report = syd_check::audit_with(devices.iter(), &AuditOptions::default());
    let fleet_total = |name: &str| -> u64 {
        devices
            .iter()
            .map(|d| d.metrics().counter(name).get())
            .sum()
    };

    let rpc_retries = fleet_total(names::RPC_RETRIES);
    let rpc_timeouts = fleet_total(names::RPC_TIMEOUTS);
    // Shutting the runtimes down runs their debug checks once more.
    drop(devices);
    drop(env);

    StressOutcome {
        satisfied: satisfied.into_inner() as usize,
        completed: completed.into_inner() as usize,
        errors: errors.into_inner() as usize,
        lapsed,
        rpc_retries,
        rpc_timeouts,
        longest_session: Duration::from_micros(longest_us.into_inner()),
        panics: PANICS.load(Ordering::Relaxed) - panics_before,
        report,
    }
}

/// How often the partition churn looks at its schedule.
const CHURN_TICK: Duration = Duration::from_millis(1);

/// The partition churn's state, flipped on the deployment's loop.
struct Churn {
    net: Network,
    addrs: Vec<NodeAddr>,
    /// The churn's RNG, the ticks until its next flip, and whether a pair
    /// is cut.
    state: Mutex<(Rng, u64, bool)>,
}

impl Churn {
    /// One tick: when the current phase is over, cut a random pair for
    /// 2–7 ticks, or heal every pair for 1–4. The network is changed
    /// outside the churn's lock, which ranks below it.
    fn tick(&self) {
        let cut = {
            let mut state = self.state.lock();
            let (prng, left, cut) = &mut *state;
            if *left > 0 {
                *left -= 1;
                return;
            }
            *cut = !*cut;
            if *cut {
                let n = self.addrs.len() as u64;
                let a = prng.below(n) as usize;
                let b = (a + 1 + prng.below(n - 1) as usize) % self.addrs.len();
                *left = 1 + prng.below(6);
                Some((self.addrs[a], self.addrs[b]))
            } else {
                *left = prng.below(4);
                None
            }
        };
        match cut {
            Some((a, b)) => self.net.set_partitioned(a, b, true),
            None => self.net.heal_partitions(),
        }
    }
}

/// Session id used by the injected defects — far outside the id space
/// real coordinators allocate (`user << 24 | counter`).
pub const INJECTED_SESSION: u64 = 0xFA_11ED;

/// Plants a leaked entity lock on `device`: the journal shows the
/// session's story closing (lock, change) but the lock is taken again by
/// a transaction of the session that is forgotten, never ended.
/// [`syd_check::audit`] must report a `lock-leak` for
/// [`INJECTED_SESSION`] with the story as its excerpt.
pub fn inject_lock_leak(device: &DeviceRuntime) {
    let session = INJECTED_SESSION;
    let entity = "slot:injected";
    device.journal().emit(Event::lock(session, entity));
    device.journal().emit(Event::commit(session, entity, true));
    let forgotten = device.store().begin_for(session);
    assert!(
        forgotten.lock(&entity_lock_key(entity)).is_ok(),
        "injected entity unexpectedly contended"
    );
    std::mem::forget(forgotten);
}

/// Forges a double-book on `device`: a `Change` record for a session
/// that does not hold the entity's lock, interleaved into another
/// session's story. [`syd_check::audit`] must report a `double-book`
/// for [`INJECTED_SESSION`].
pub fn inject_double_commit(device: &DeviceRuntime) {
    let holder = INJECTED_SESSION ^ 1;
    let entity = "slot:injected";
    let journal = device.journal();
    journal.emit(Event::lock(holder, entity));
    journal.emit(Event::commit(INJECTED_SESSION, entity, true));
    journal.emit(Event::commit(holder, entity, true));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hook counts a panic on a thread other than the caller's.
    #[test]
    fn a_panic_on_any_thread_is_counted() {
        let _window = PANIC_WINDOW.write().unwrap_or_else(PoisonError::into_inner);
        count_panics();
        let before = PANICS.load(Ordering::Relaxed);
        assert!(!sync::join(std::thread::spawn(|| panic!("counted"))));
        assert_eq!(PANICS.load(Ordering::Relaxed) - before, 1);
    }
}
