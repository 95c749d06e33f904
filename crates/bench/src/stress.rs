//! Seed-deterministic negotiation stress driver, audited by `syd-check`.
//!
//! Drives hundreds of concurrent §4.3 negotiations over a small, heavily
//! contended entity space while the simulated network drops messages and
//! (optionally) partitions random device pairs, then quiesces, forces the
//! stale-session sweep, and runs the protocol invariant checker over
//! every journal and lock table. The same seed always produces the same
//! session mix, so a violation found once is reproducible.
//!
//! The driver can also *inject* a protocol defect after the run — a
//! leaked entity lock or a forged double-commit record — to prove the
//! checker catches it and reports the offending session with a journal
//! excerpt. `cargo run -p syd-bench --bin check` is the CLI front end.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use syd_check::{AuditOptions, AuditReport};
use syd_core::device::entity_lock_key;
use syd_core::links::Constraint;
use syd_core::negotiate::Participant;
use syd_core::{DeviceRuntime, EntityHandler, SydEnv};
use syd_net::NetConfig;
use syd_telemetry::{names, Event};
use syd_types::rng::Rng;
use syd_types::{SydError, SydResult, Value};

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

impl Fault {
    /// Parses the CLI spelling (`lock-leak` / `double-commit`).
    pub fn parse(s: &str) -> Option<Fault> {
        match s {
            "lock-leak" => Some(Fault::LockLeak),
            "double-commit" => Some(Fault::DoubleCommit),
            _ => None,
        }
    }
}

/// Parameters of one stress run.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Total negotiation sessions across all workers.
    pub sessions: usize,
    /// Devices in the deployment (each is participant and coordinator).
    pub devices: usize,
    /// Concurrent initiator threads.
    pub workers: usize,
    /// Size of the contended entity space (`slot:0 .. slot:n-1`).
    pub entities: usize,
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
            devices: 6,
            workers: 6,
            entities: 8,
            loss: 0.02,
            partition: true,
            seed: 42,
            inject: None,
        }
    }
}

/// What a stress run did, plus the invariant audit of the aftermath.
#[derive(Debug)]
pub struct StressOutcome {
    /// Sessions whose constraint was satisfied.
    pub satisfied: usize,
    /// Sessions that ran to completion (satisfied or not).
    pub completed: usize,
    /// Sessions that errored outright (e.g. coordinator unreachable).
    pub errors: usize,
    /// Stale sessions reclaimed by the forced end-of-run sweep.
    pub swept: usize,
    /// `rpc.retries` summed over the devices: requests sent again.
    pub rpc_retries: u64,
    /// `rpc.timeouts` summed over the devices: sends that hit their deadline.
    pub rpc_timeouts: u64,
    /// The slowest `negotiate` call, to be read against the participants'
    /// stale-session lease.
    pub longest_session: Duration,
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

    fn commit(&self, _entity: &str, _change: &Value) -> SydResult<()> {
        Ok(())
    }

    fn abort(&self, _entity: &str, _change: &Value) {}
}

/// One pre-generated negotiation: constraint + participant assignments.
fn plan_session(
    rng: &mut Rng,
    devices: &[DeviceRuntime],
    entities: usize,
) -> (Constraint, Vec<Participant>) {
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
            let entity = format!("slot:{}", rng.below(entities as u64));
            Participant::new(dev.user(), entity, Value::str("stress"))
        })
        .collect();
    (constraint, parts)
}

/// Runs the stress mix and audits the aftermath. Deterministic in
/// `cfg.seed` up to thread interleaving (the *audit verdict* must be
/// clean for every seed; the satisfied/declined split may vary).
pub fn run(cfg: &StressConfig) -> StressOutcome {
    let devices_n = cfg.devices.max(2);
    let net = NetConfig::ideal().with_loss(cfg.loss).with_seed(cfg.seed);
    let env = SydEnv::new_insecure(net);
    let devices: Vec<DeviceRuntime> = (0..devices_n)
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
        .map(|_| plan_session(&mut rng, &devices, cfg.entities.max(1)))
        .collect();

    let satisfied = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let longest_us = AtomicU64::new(0);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let workers = cfg.workers.clamp(1, cfg.sessions.max(1));
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let coordinator = &devices[w % devices.len()];
            let plans = &plans;
            let (satisfied, completed, errors) = (&satisfied, &completed, &errors);
            let longest_us = &longest_us;
            handles.push(scope.spawn(move || {
                for (constraint, parts) in plans.iter().skip(w).step_by(workers) {
                    let started = Instant::now();
                    let outcome = coordinator.negotiator().negotiate(*constraint, parts);
                    longest_us.fetch_max(started.elapsed().as_micros() as u64, Ordering::Relaxed);
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

        // Partition churn: cut a random device pair, let traffic fail,
        // heal, repeat until the workers drain.
        if cfg.partition {
            let mut prng = Rng::new(cfg.seed ^ 0xDEAD_BEEF);
            let devices = &devices;
            let stop = &stop;
            let env = &env;
            scope.spawn(move || {
                let net = env.network();
                while !stop.load(Ordering::Relaxed) {
                    let a = prng.below(devices.len() as u64) as usize;
                    let b = (a + 1 + prng.below(devices.len() as u64 - 1) as usize) % devices.len();
                    net.set_partitioned(devices[a].addr(), devices[b].addr(), true);
                    std::thread::sleep(Duration::from_millis(2 + prng.below(6)));
                    net.heal_partitions();
                    std::thread::sleep(Duration::from_millis(1 + prng.below(4)));
                }
                net.heal_partitions();
            });
        }

        for handle in handles {
            let _ = handle.join();
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Quiesce: let bounded mark-waits and in-flight aborts land, then
    // force the stale-session sweep so every surviving lock's story is
    // closed in the journal before the audit reads it.
    std::thread::sleep(Duration::from_millis(300));
    let swept: usize = devices
        .iter()
        .map(|d| d.sweep_stale_sessions(Duration::ZERO))
        .sum();

    match cfg.inject {
        Some(Fault::LockLeak) => inject_lock_leak(&devices[0]),
        Some(Fault::DoubleCommit) => inject_double_commit(&devices[0]),
        None => {}
    }

    // Loss-tolerant audit: duplicate deliveries and sweep-reclaimed locks
    // are legal on this network; leaks, double-books, bad arithmetic and
    // broken waiting queues are not.
    let report = syd_check::audit_with(devices.iter(), &AuditOptions::default());
    let fleet_total = |name: &str| -> u64 {
        devices
            .iter()
            .map(|d| d.metrics().counter(name).get())
            .sum()
    };

    StressOutcome {
        satisfied: satisfied.into_inner() as usize,
        completed: completed.into_inner() as usize,
        errors: errors.into_inner() as usize,
        swept,
        rpc_retries: fleet_total(names::RPC_RETRIES),
        rpc_timeouts: fleet_total(names::RPC_TIMEOUTS),
        longest_session: Duration::from_micros(longest_us.into_inner()),
        report,
    }
}

/// Session id used by the injected defects — far outside the id space
/// real coordinators allocate (`user << 24 | counter`).
pub const INJECTED_SESSION: u64 = 0xFA_11ED;

/// Plants a leaked entity lock on `device`: the journal shows the
/// session's story closing (lock, change) but the lock is re-acquired
/// and never released. [`syd_check::audit`] must report a `lock-leak`
/// for [`INJECTED_SESSION`] with the story as its excerpt.
pub fn inject_lock_leak(device: &DeviceRuntime) {
    let session = INJECTED_SESSION;
    let entity = "slot:injected";
    device.journal().emit(Event::lock(session, entity));
    device.journal().emit(Event::commit(session, entity, true));
    assert!(
        device
            .store()
            .locks()
            .try_acquire(session, &entity_lock_key(entity)),
        "injected entity unexpectedly contended"
    );
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
