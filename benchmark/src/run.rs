//! One benchmark run: set-up, warm-up, the timed window of cycles, the
//! correctness gates, and the metrics they yield.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use syd_telemetry::{names, Registry};
use syd_trace::{attribute, AssemblyMode, Collector, PHASES};

use crate::cycle::{CycleRecord, Driver, Op};
use crate::deploy::{self, Deployment, Link};
use crate::spans::Recorder;
use crate::spec::Workload;
use crate::stats::{median, percentile};
use crate::{alloc, probes, proc};

/// Complete set-ups per untraced run; the last one is used. `setup_s` is
/// their median.
const SETUPS: usize = 3;
/// Cycles discarded before the window: the first carries the cold
/// directory cache.
const WARMUP_CYCLES: usize = 2;
/// A traced run records spans in every other block of this many cycles,
/// so that the blocks in between give the untraced reading of the same
/// run.
const TRACE_BLOCK: u32 = 10;
/// First-half and second-half readings further apart than this are
/// flagged as non-stationary.
const STATIONARY_WITHIN: f64 = 0.03;
/// Tracing may slow `wlan_n8`'s cycle by this much before the traced
/// pass fails.
const TRACE_OVERHEAD_LIMIT_PCT: f64 = 5.0;

/// Per operation: its end-to-end median, its per-layer median over the
/// traced cycles, and its length in round trips.
const OP_METRICS: [(Op, Option<&str>, &str, Option<&str>); Op::COUNT] = [
    (
        Op::Find,
        Some("find_p50_ms"),
        "calendar.find_us",
        Some("core.serial_rtts_find"),
    ),
    (
        Op::Schedule,
        Some("schedule_p50_ms"),
        "calendar.schedule_us",
        Some("core.serial_rtts_schedule"),
    ),
    (
        Op::Blocked,
        Some("blocked_p50_ms"),
        "calendar.blocked_us",
        Some("core.serial_rtts_blocked"),
    ),
    (
        Op::Cancel,
        Some("cancel_p50_ms"),
        "calendar.cancel_us",
        Some("core.serial_rtts_cancel"),
    ),
    (
        Op::Promote,
        Some("promote_p50_ms"),
        "calendar.promote_us",
        Some("core.serial_rtts_promote"),
    ),
    (
        Op::CancelPromoted,
        None,
        "calendar.cancel_promoted_us",
        None,
    ),
];

/// `trace.phase.*` in the order of `syd_trace::PHASES`.
const PHASE_METRICS: [&str; 7] = [
    "trace.phase.dir_resolve_ms",
    "trace.phase.mark_round_ms",
    "trace.phase.commit_round_ms",
    "trace.phase.cascade_ms",
    "trace.phase.transport_queue_ms",
    "trace.phase.rpc_gap_ms",
    "trace.phase.other_ms",
];

pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where a traced run writes `<workload>.spans.jsonl`.
    pub spans_dir: PathBuf,
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

pub struct Outcome {
    pub correct: bool,
    /// Timed operations due in the window's cycles.
    pub attempted: u64,
    /// Those that did not complete with a correct result.
    pub failed: u64,
    pub values: Values,
    /// Notes for people: spreads, sample counts, gate messages.
    pub notes: Vec<String>,
}

fn counter(registries: &[Arc<Registry>], name: &str) -> u64 {
    registries
        .iter()
        .filter_map(|r| r.get_counter(name))
        .map(|c| c.get())
        .sum()
}

/// `(transport.frames_out, transport.bytes_out)` now.
fn wire_counters(dep: &Deployment) -> (u64, u64) {
    let transport = std::slice::from_ref(dep.env.transport().metrics());
    (
        counter(transport, names::TRANSPORT_FRAMES_OUT),
        counter(transport, names::TRANSPORT_BYTES_OUT),
    )
}

/// Counters read at the window's edges; metrics are their differences.
struct Snapshot {
    allocs: u64,
    alloc_bytes: u64,
    usage: proc::Usage,
    rpcs: u64,
    retries: u64,
    timeouts: u64,
    dir_round_trips: u64,
    sessions: u64,
    aborts: u64,
    reconciles: u64,
    pool_jobs: u64,
}

impl Snapshot {
    fn take(dep: &Deployment, registries: &[Arc<Registry>]) -> Snapshot {
        let (allocs, alloc_bytes) = alloc::totals();
        Snapshot {
            allocs,
            alloc_bytes,
            usage: proc::usage(),
            rpcs: counter(registries, names::RPC_REQUESTS_SERVED),
            retries: counter(registries, names::RPC_RETRIES),
            timeouts: counter(registries, names::RPC_TIMEOUTS),
            dir_round_trips: counter(registries, names::DIR_LOOKUPS)
                + counter(registries, names::DIR_BATCH_LOOKUPS),
            sessions: counter(registries, names::NEGOTIATE_SESSIONS),
            aborts: counter(registries, names::NEGOTIATE_ABORTS),
            reconciles: registries
                .iter()
                .filter_map(|r| r.get_histogram(names::CALENDAR_RECONCILE))
                .map(|h| h.count())
                .sum(),
            pool_jobs: dep.env.runtime().pool().jobs_executed() as u64,
        }
    }
}

/// One completed cycle of the window with what the harness knows of it.
struct Sample {
    record: CycleRecord,
    traced: bool,
    /// `transport.frames_out` and `transport.bytes_out` over the cycle.
    frames: u64,
    wire_bytes: u64,
}

fn median_of(samples: &[&Sample], value: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(|s| value(s)).collect::<Vec<_>>())
}

/// What the timed window measured.
struct Window {
    /// Cycles started, failed ones included.
    cycles: u32,
    samples: Vec<Sample>,
    failed_ops: u64,
    before: Snapshot,
    after: Snapshot,
    threads_peak: u64,
    pool_peak_workers: usize,
    /// The program's own spans of the traced cycles.
    collector: Collector,
}

impl Window {
    fn per_cycle(&self, field: impl Fn(&Snapshot) -> u64) -> f64 {
        (field(&self.after) - field(&self.before)) as f64 / f64::from(self.cycles)
    }
}

/// Sets the deployment up `setups` times over and keeps the last.
/// Returns it with each set-up's seconds and the resident set per device
/// after the first — before earlier deployments' garbage can inflate it.
fn set_up(cfg: &RunConfig, setups: usize) -> Result<(Deployment, Vec<f64>, f64), String> {
    let w = cfg.workload;
    let mut dep = Deployment::start(w.users, w.idle_devices, cfg.seed, Link::Wlan)?;
    let rss_kib_per_device = proc::rss_kib() as f64 / dep.nodes() as f64;
    let mut setup_s = vec![dep.setup.as_secs_f64()];
    while setup_s.len() < setups {
        dep.stop();
        dep = Deployment::start(w.users, w.idle_devices, cfg.seed, Link::Wlan)?;
        setup_s.push(dep.setup.as_secs_f64());
    }
    Ok((dep, setup_s, rss_kib_per_device))
}

/// Runs cycles for `cfg.seconds`: whole-window statistics, no segment is
/// selected afterwards. Counters are read at cycle boundaries.
fn timed_window(
    cfg: &RunConfig,
    dep: &Deployment,
    driver: &mut Driver<'_>,
    rec: &mut Recorder,
    notes: &mut Vec<String>,
) -> Window {
    let registries = dep.registries();
    let mut collector = Collector::new(AssemblyMode::Lossy);
    let mut samples = Vec::new();
    let mut failed_ops = 0u64;
    let mut threads_peak = proc::threads();
    let mut cycles = 0u32;
    let before = Snapshot::take(dep, &registries);
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs(cfg.seconds) {
        let traced = cfg.trace && (cycles / TRACE_BLOCK) % 2 == 1;
        if traced && !rec.enabled {
            // Discard what the untraced block left in the program's rings.
            Collector::new(AssemblyMode::Lossy).drain_global();
        }
        rec.enabled = traced;
        let (frames0, bytes0) = wire_counters(dep);
        let result = driver.cycle(rec);
        let (frames1, bytes1) = wire_counters(dep);
        if traced {
            collector.drain_global();
        }
        threads_peak = threads_peak.max(proc::threads());
        match result {
            Ok(record) => samples.push(Sample {
                record,
                traced,
                frames: frames1 - frames0,
                wire_bytes: bytes1 - bytes0,
            }),
            Err(failure) => {
                failed_ops += u64::from(Op::COUNT as u32 - failure.passed_ops);
                notes.push(format!("cycle {cycles} failed: {}", failure.what));
            }
        }
        cycles += 1;
    }
    rec.enabled = false;
    Window {
        cycles,
        samples,
        failed_ops,
        before,
        after: Snapshot::take(dep, &registries),
        threads_peak,
        pool_peak_workers: dep.env.runtime().pool().peak_workers(),
        collector,
    }
}

/// Notes the first-half and second-half readings of the window and flags
/// a difference over [`STATIONARY_WITHIN`].
fn note_stationarity(all: &[&Sample], notes: &mut Vec<String>) {
    let (first, second) = all.split_at(all.len() / 2);
    if first.is_empty() {
        return;
    }
    let schedule = |s: &Sample| s.record.ms(Op::Schedule);
    let frames = |s: &Sample| s.frames as f64;
    for (name, h1, h2) in [
        (
            "schedule_p50_ms",
            median_of(first, schedule),
            median_of(second, schedule),
        ),
        (
            "frames_per_cycle",
            median_of(first, frames),
            median_of(second, frames),
        ),
    ] {
        let apart = (h2 - h1).abs() / h1;
        let flag = if apart > STATIONARY_WITHIN {
            format!(" — NOT STATIONARY ({:.1} % apart)", apart * 100.0)
        } else {
            String::new()
        };
        notes.push(format!(
            "stationarity {name}: first half {h1:.3}, second half {h2:.3}{flag}"
        ));
    }
}

/// The program's state and counters after the window.
struct Gates {
    clean: bool,
    stale_reservations: u64,
    audit_ms: f64,
}

fn check_gates(
    dep: &Deployment,
    window: &Window,
    notes: &mut Vec<String>,
) -> Result<Gates, String> {
    // Every calendar must equal the filled calendar, bit for bit.
    let range = deploy::window();
    let mut stale = 0u64;
    for (app, expected) in dep.apps.iter().zip(&dep.calendars.expected) {
        let actual = app
            .free_bitmap(range.start.ordinal(), range.end.ordinal())
            .map_err(|e| format!("free_bitmap: {e}"))?;
        stale += range
            .iter()
            .filter(|&s| actual.is_free(s) != expected.is_free(s))
            .count() as u64;
    }
    let frame_errors = counter(
        std::slice::from_ref(dep.env.transport().metrics()),
        names::TRANSPORT_FRAME_ERRORS,
    );
    let t_audit = Instant::now();
    let audit = syd_check::audit(dep.devices());
    let audit_ms = t_audit.elapsed().as_secs_f64() * 1e3;

    let mut clean = true;
    for (what, count) in [
        ("operations failed", window.failed_ops),
        ("slots differ from the filled calendars", stale),
        ("transport.frame_errors", frame_errors),
        ("rpc.retries", window.after.retries - window.before.retries),
        (
            "rpc.timeouts",
            window.after.timeouts - window.before.timeouts,
        ),
        ("syd_check::audit violations", audit.violations.len() as u64),
    ] {
        if count != 0 {
            clean = false;
            notes.push(format!("GATE FAILED: {what} = {count}"));
        }
    }
    for violation in &audit.violations {
        notes.push(format!("audit: {violation}"));
    }
    Ok(Gates {
        clean,
        stale_reservations: stale,
        audit_ms,
    })
}

/// Runs the workload once and returns every metric of the requested pass.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let setups = if cfg.trace { 1 } else { SETUPS };
    let (dep, setup_s, rss_kib_per_device) = set_up(cfg, setups)?;

    let mut rec = Recorder::new();
    let mut driver = Driver::new(&dep, cfg.workload, cfg.seed);
    for i in 0..WARMUP_CYCLES {
        driver
            .cycle(&mut rec)
            .map_err(|f| format!("warm-up cycle {i}: {}", f.what))?;
    }
    let win = timed_window(cfg, &dep, &mut driver, &mut rec, &mut notes);
    if win.samples.is_empty() {
        return Err(format!(
            "no cycle of the window completed ({})",
            notes.join("; ")
        ));
    }
    let all: Vec<&Sample> = win.samples.iter().collect();
    note_stationarity(&all, &mut notes);
    let gates = check_gates(&dep, &win, &mut notes)?;
    let mut correct = gates.clean;

    let mut values = Values::new();
    if cfg.trace {
        correct &= per_layer(cfg, &win, &gates, &mut values, &mut notes);
        let idle_spawn_us = dep.idle_spawn_us;
        dep.stop();
        rec.enabled = true;
        correct &= probes::run_all(cfg.seed, idle_spawn_us, &mut rec, &mut values, &mut notes)?;

        // Figures in units of the round trip the probes measured.
        let rtt_ms = values["net.rpc_wlan_us"] / 1e3;
        for (op, _, _, rtts) in OP_METRICS {
            if let Some(name) = rtts {
                values.insert(name, median_of(&all, |s| s.record.ms(op)) / rtt_ms);
            }
        }
        values.insert(
            "bench.accounted_share",
            values["net.rpcs_per_cycle"] * rtt_ms / median_of(&all, |s| s.record.busy_ms()),
        );

        let path = cfg
            .spans_dir
            .join(format!("{}.spans.jsonl", cfg.workload.name));
        write_spans(&rec, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("{} spans written to {}", rec.len(), path.display()));
    } else {
        for (op, p50, _, _) in OP_METRICS {
            if let Some(name) = p50 {
                values.insert(name, median_of(&all, |s| s.record.ms(op)));
            }
        }
        // Medians over cycles, not totals over the window: about one cycle
        // in several hundred sends fewer frames than the rest (a
        // promotion's reconcile finds nothing left to do).
        values.insert("frames_per_cycle", median_of(&all, |s| s.frames as f64));
        values.insert(
            "wire_bytes_per_cycle",
            median_of(&all, |s| s.wire_bytes as f64),
        );
        values.insert("allocs_per_cycle", win.per_cycle(|s| s.allocs));
        values.insert(
            "alloc_kib_per_cycle",
            win.per_cycle(|s| s.alloc_bytes) / 1024.0,
        );
        values.insert("rss_kib_per_device", rss_kib_per_device);
        values.insert("setup_s", median(&setup_s));
        notes.push(format!(
            "{} cycles in the window; set-ups took {setup_s:.3?} s",
            win.cycles
        ));
        dep.stop();
    }

    Ok(Outcome {
        correct,
        attempted: u64::from(win.cycles) * Op::COUNT as u64,
        failed: win.failed_ops,
        values,
        notes,
    })
}

/// The per-layer metrics the window itself shows (the probes add the
/// rest). Returns false when tracing cost more than it may.
fn per_layer(
    cfg: &RunConfig,
    window: &Window,
    gates: &Gates,
    values: &mut Values,
    notes: &mut Vec<String>,
) -> bool {
    let all: Vec<&Sample> = window.samples.iter().collect();
    let traced: Vec<&Sample> = all.iter().copied().filter(|s| s.traced).collect();
    let untraced: Vec<&Sample> = all.iter().copied().filter(|s| !s.traced).collect();

    for (op, _, us, _) in OP_METRICS {
        values.insert(us, median_of(&traced, |s| s.record.ms(op)) * 1e3);
    }
    let schedules: Vec<f64> = traced.iter().map(|s| s.record.ms(Op::Schedule)).collect();
    values.insert(
        "calendar.schedule_p90_us",
        percentile(&schedules, 90.0) * 1e3,
    );
    notes.push(format!(
        "calendar.*_us: over the {} traced cycles of {}; calendar.schedule_p90_us has {} samples",
        traced.len(),
        window.cycles,
        schedules.len()
    ));

    // The untraced blocks of this run are the reading without tracing.
    let busy = |s: &Sample| s.record.busy_ms();
    let overhead_pct = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        (median_of(&traced, busy) / median_of(&untraced, busy) - 1.0) * 100.0
    };
    values.insert("bench.trace_overhead_pct", overhead_pct);
    let affordable = cfg.workload.name != "wlan_n8" || overhead_pct <= TRACE_OVERHEAD_LIMIT_PCT;
    if !affordable {
        notes.push(format!(
            "GATE FAILED: tracing slowed the cycle by {overhead_pct:.2} % (limit {TRACE_OVERHEAD_LIMIT_PCT} %)"
        ));
    }
    values.insert(
        "bench.quiesce_ms_per_cycle",
        median_of(&all, |s| s.record.quiesce_ms),
    );

    values.insert("net.rpcs_per_cycle", window.per_cycle(|s| s.rpcs));
    values.insert("net.rpc_retries_per_cycle", window.per_cycle(|s| s.retries));
    values.insert(
        "net.rpc_timeouts_per_cycle",
        window.per_cycle(|s| s.timeouts),
    );
    values.insert("net.pool_jobs_per_cycle", window.per_cycle(|s| s.pool_jobs));
    values.insert("net.pool_peak_workers", window.pool_peak_workers as f64);
    values.insert(
        "core.dir_round_trips_per_cycle",
        window.per_cycle(|s| s.dir_round_trips),
    );
    values.insert(
        "core.negotiate_sessions_per_cycle",
        window.per_cycle(|s| s.sessions),
    );
    let sessions = window.after.sessions - window.before.sessions;
    values.insert(
        "core.negotiate_abort_share",
        (window.after.aborts - window.before.aborts) as f64 / sessions.max(1) as f64,
    );
    values.insert(
        "calendar.reconciles_per_cycle",
        window.per_cycle(|s| s.reconciles),
    );
    values.insert(
        "calendar.stale_reservations",
        gates.stale_reservations as f64,
    );
    values.insert("check.audit_ms", gates.audit_ms);
    values.insert(
        "proc.cpu_ms_per_cycle",
        (window.after.usage.cpu_ms - window.before.usage.cpu_ms) / f64::from(window.cycles),
    );
    values.insert(
        "proc.ctx_switches_per_cycle",
        window.per_cycle(|s| s.usage.ctx_switches),
    );
    values.insert("proc.threads_peak", window.threads_peak as f64);

    phase_attribution(&window.collector, &traced, values, notes);
    affordable
}

/// Assembles the program's own span trees of A's schedule operations in
/// the traced cycles and charges their wall time to protocol phases.
fn phase_attribution(
    collector: &Collector,
    traced: &[&Sample],
    values: &mut Values,
    notes: &mut Vec<String>,
) {
    let (trees, _holes) = collector.assemble_all();
    let mut phase_us = [0u64; PHASE_METRICS.len()];
    let mut total_us = 0u64;
    let (mut count, mut complete) = (0u64, 0u64);
    for tree in &trees {
        let meeting = tree.nodes[tree.root]
            .attrs
            .iter()
            .find(|(k, _)| *k == "meeting")
            .map(|&(_, v)| v);
        let is_a_schedule = tree.op() == names::SPAN_SCHEDULE
            && traced
                .iter()
                .any(|s| Some(s.record.meeting_a.raw()) == meeting);
        if !is_a_schedule {
            continue;
        }
        let att = attribute(tree);
        for (sum, phase) in phase_us.iter_mut().zip(PHASES) {
            *sum += att.phase_us(phase);
        }
        total_us += att.total_us;
        count += 1;
        complete += u64::from(att.complete);
    }
    let ratio = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    for (name, us) in PHASE_METRICS.into_iter().zip(phase_us) {
        values.insert(name, ratio(us, count) / 1e3);
    }
    let other_us = phase_us[PHASE_METRICS.len() - 1];
    values.insert("trace.other_share", ratio(other_us, total_us));
    values.insert("trace.complete_share", ratio(complete, count));
    notes.push(format!(
        "trace.phase.*: {count} schedule_op trees of A assembled from the program's span rings ({} trees in all)",
        trees.len()
    ));
}

fn write_spans(rec: &Recorder, path: &Path) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    rec.write_jsonl(&mut out)?;
    out.flush()
}
