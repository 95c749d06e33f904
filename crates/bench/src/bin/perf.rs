//! Round-trip & payload benchmark driver: the `BENCH_*.json` suite.
//!
//! Measures the hot paths the coordination-link middleware lives on —
//! group invocation, directory resolution, and the full §5 schedule-a-
//! meeting flow — across group sizes and loss rates, and emits a
//! machine-readable `BENCH_results.json` (schema `syd-bench-perf/v1`,
//! documented in EXPERIMENTS.md) so every future change has a trajectory
//! to answer to. A final set of `fleet_scale` rows puts 100 / 1k / 10k
//! devices on one shared event-driven runtime and records the process
//! thread census, resident memory per device, and schedule-meeting
//! latency inside the fleet.
//!
//! ```sh
//! cargo run --release -p syd-bench --bin perf                  # full matrix
//! cargo run --release -p syd-bench --bin perf -- --quick       # CI smoke subset
//! cargo run --release -p syd-bench --bin perf -- --transport both # sim vs loopback TCP
//! cargo run --release -p syd-bench --bin perf -- --check BENCH_results.json
//! cargo run --release -p syd-bench --bin perf -- --fleet 1000 # smoke gate: audit + thread budget
//! cargo run --release -p syd-bench --bin perf -- --profile    # + phase_attribution rows
//! ```
//!
//! `--profile` adds one `phase_attribution` row per (transport, size,
//! loss) cell: it reruns the schedule flow with span collection on,
//! assembles the cross-device trees (`syd-trace`), runs the critical-
//! path analyzer over each, and reports the per-phase wall-time table
//! (milliseconds per operation) plus the worst exemplar.
//!
//! `--transport tcp` reruns the matrix on the framed loopback-TCP
//! backend (real sockets, kernel scheduling); loss cells are sim-only
//! since deterministic drop injection lives in the sim network. TCP rows
//! count framed socket bytes and must report `frame_errors: 0`.
//!
//! Everything is seed-deterministic; wall-clock latencies vary with the
//! host, but message/byte/round-trip counts must not.

// Benchmark driver: a rig that cannot build has no numbers to report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use syd_bench::json::Json;
use syd_bench::{calendar_rig, devices, env_ideal, env_tcp, users_of};
use syd_calendar::{CalendarApp, MeetingSpec};
use syd_core::SydEnv;
use syd_net::{CallOptions, NetConfig};
use syd_telemetry::names;
use syd_types::{ServiceName, SlotRange, SydError, UserId, Value};

/// Schema identifier stamped into every emitted document.
const SCHEMA: &str = "syd-bench-perf/v1";

/// The `mode` field every `syd-bench-perf/v1` document carries.
const MODE: &str = "optimized";

/// Per-attempt deadline/retry budget used whenever loss is in play.
fn lossy_opts() -> CallOptions {
    CallOptions::new()
        .with_timeout(Duration::from_millis(50))
        .with_retries(8)
}

struct Config {
    quick: bool,
    seed: u64,
    out: Option<String>,
    /// Transport backends to run: `["sim"]`, `["tcp"]`, or both.
    transports: Vec<&'static str>,
    /// `--fleet N`: run ONLY a fleet-scale row at `N` devices and gate on
    /// it (clean audit, thread budget) — the CI smoke mode.
    fleet: Option<usize>,
    /// `--profile`: collect span trees during the schedule flow and emit
    /// `phase_attribution` rows with the critical-path phase table.
    profile: bool,
}

fn main() {
    let mut cfg = Config {
        quick: false,
        seed: 42,
        out: None,
        transports: vec!["sim"],
        fleet: None,
        profile: false,
    };
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(seed) => cfg.seed = seed,
                None => die("--seed needs an integer"),
            },
            "--transport" => match args.next().as_deref() {
                Some("sim") => cfg.transports = vec!["sim"],
                Some("tcp") => cfg.transports = vec!["tcp"],
                Some("both") => cfg.transports = vec!["sim", "tcp"],
                other => die(&format!("--transport sim|tcp|both, got {other:?}")),
            },
            "--fleet" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => cfg.fleet = Some(n),
                None => die("--fleet needs a device count"),
            },
            "--profile" => cfg.profile = true,
            "--out" => cfg.out = args.next().or_else(|| die("--out needs a path")),
            "--check" => check = args.next().or_else(|| die("--check needs a path")),
            other => die(&format!("unknown flag {other}")),
        }
    }
    if let Some(path) = check {
        match validate_file(&path) {
            Ok(n) => println!("{path}: valid {SCHEMA} document with {n} results"),
            Err(e) => die(&format!("{path}: {e}")),
        }
        return;
    }
    run(&cfg);
}

fn die(msg: &str) -> ! {
    eprintln!("perf: {msg}");
    std::process::exit(1);
}

fn run(cfg: &Config) {
    println!("SyD perf driver — seed={} quick={}", cfg.seed, cfg.quick);

    // `--fleet N`: smoke-gate mode. One fleet-scale row, then hard-fail
    // on an unclean audit or a blown thread budget — this is what the
    // CI `fleet-scale` job runs at 1k devices.
    if let Some(n) = cfg.fleet {
        let row = bench_fleet_scale(cfg, n);
        let threads = row
            .get("threads")
            .and_then(Json::as_f64)
            .unwrap_or(f64::MAX);
        let clean = matches!(row.get("audit_clean"), Some(Json::Bool(true)));
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("mode".into(), Json::Str(MODE.into())),
            ("seed".into(), Json::Num(cfg.seed as f64)),
            ("quick".into(), Json::Bool(cfg.quick)),
            ("results".into(), Json::Arr(vec![row])),
        ]);
        let out = cfg.out.as_deref().unwrap_or("BENCH_fleet.json");
        std::fs::write(out, doc.pretty()).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
        println!("\nwrote {out}");
        if !clean {
            die("fleet smoke: syd-check audit reported violations");
        }
        if threads > 64.0 {
            die(&format!(
                "fleet smoke: {threads} OS threads for {n} devices exceeds the 64-thread budget"
            ));
        }
        return;
    }

    let sizes: &[usize] = if cfg.quick { &[2, 8] } else { &[2, 8, 32] };
    let losses: &[f64] = if cfg.quick { &[0.0] } else { &[0.0, 0.1] };

    let mut results = Vec::new();
    for &backend in &cfg.transports {
        for &loss in losses {
            if backend == "tcp" && loss > 0.0 {
                // Deterministic loss injection is a sim-network concept;
                // the kernel does not drop loopback TCP frames for us.
                continue;
            }
            for &n in sizes {
                for bench in [
                    bench_group_invoke,
                    bench_directory_resolution,
                    bench_schedule,
                ] {
                    let r = bench(cfg, backend, n, loss);
                    print_result(&r);
                    results.push(r.into_json());
                }
                if cfg.profile {
                    results.push(bench_phase_attribution(cfg, backend, n, loss));
                }
            }
        }
    }

    // Fleet-scale rows: device count is the axis, not group size. Sim
    // only — the point is the shared runtime's thread/memory budget,
    // which the transport backend does not change.
    let fleets: &[usize] = if cfg.quick {
        &[100]
    } else {
        &[100, 1_000, 10_000]
    };
    for &fleet in fleets {
        results.push(bench_fleet_scale(cfg, fleet));
    }

    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("mode".into(), Json::Str(MODE.into())),
        ("seed".into(), Json::Num(cfg.seed as f64)),
        ("quick".into(), Json::Bool(cfg.quick)),
        ("results".into(), Json::Arr(results)),
    ]);
    let out = cfg.out.as_deref().unwrap_or("BENCH_results.json");
    std::fs::write(out, doc.pretty()).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    println!("\nwrote {out}");
}

// ---------------------------------------------------------------------------
// measurements
// ---------------------------------------------------------------------------

/// One benchmark cell: every cell reports the same metric set, which is
/// what keeps the schema uniform and the CI validator simple.
struct Cell {
    bench: &'static str,
    transport: &'static str,
    group_size: usize,
    loss_pct: f64,
    iters: usize,
    ok: usize,
    latencies_ms: Vec<f64>,
    dir_round_trips: f64,
    wire_bytes: f64,
    frame_errors: f64,
}

impl Cell {
    fn into_json(self) -> Json {
        let mut lat = self.latencies_ms;
        lat.sort_by(f64::total_cmp);
        let per_op = |total: f64| total / self.iters.max(1) as f64;
        Json::Obj(vec![
            ("bench".into(), Json::Str(self.bench.into())),
            ("transport".into(), Json::Str(self.transport.into())),
            ("group_size".into(), Json::Num(self.group_size as f64)),
            ("loss_pct".into(), Json::Num(self.loss_pct * 100.0)),
            ("iters".into(), Json::Num(self.iters as f64)),
            (
                "ok_rate".into(),
                Json::Num(self.ok as f64 / self.iters.max(1) as f64),
            ),
            (
                "median_ms".into(),
                Json::Num(round3(percentile(&lat, 50.0))),
            ),
            ("p90_ms".into(), Json::Num(round3(percentile(&lat, 90.0)))),
            (
                "dir_round_trips_per_op".into(),
                Json::Num(round3(per_op(self.dir_round_trips))),
            ),
            (
                "wire_bytes_per_op".into(),
                Json::Num(round3(per_op(self.wire_bytes))),
            ),
            ("frame_errors".into(), Json::Num(self.frame_errors)),
        ])
    }
}

fn print_result(cell: &Cell) {
    let mut lat = cell.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    println!(
        "{:>22} [{:^3}] n={:<3} loss={:>3.0}%  median={:>8.3}ms  dir_rt/op={:>6.2}  bytes/op={:>9.0}  ok={}/{}",
        cell.bench,
        cell.transport,
        cell.group_size,
        cell.loss_pct * 100.0,
        percentile(&lat, 50.0),
        cell.dir_round_trips / cell.iters.max(1) as f64,
        cell.wire_bytes / cell.iters.max(1) as f64,
        cell.ok,
        cell.iters,
    );
}

fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Directory round trips served so far: single lookups + batched lookups.
fn dir_round_trips(env: &SydEnv) -> u64 {
    let metrics = env.directory().metrics();
    let get = |name: &str| metrics.get_counter(name).map_or(0, |c| c.get());
    get("dir.lookups") + get("dir.batch_lookups")
}

/// A deployment on the requested transport backend.
fn make_env(backend: &str) -> SydEnv {
    if backend == "tcp" {
        env_tcp()
    } else {
        env_ideal()
    }
}

/// Bytes the deployment has put on the wire so far. The sim network's
/// payload accounting is kept for `sim` rows (schema continuity); `tcp`
/// rows count framed bytes leaving real sockets.
fn wire_bytes_now(env: &SydEnv, backend: &str) -> u64 {
    if backend == "tcp" {
        env.transport()
            .metrics()
            .get_counter(names::TRANSPORT_BYTES_OUT)
            .map_or(0, |c| c.get())
    } else {
        env.network().stats().bytes_sent
    }
}

/// Frames the transport failed to decode so far — must stay 0 in any
/// clean run, on either backend.
fn frame_errors_now(env: &SydEnv) -> u64 {
    env.transport()
        .metrics()
        .get_counter(names::TRANSPORT_FRAME_ERRORS)
        .map_or(0, |c| c.get())
}

/// Mixes the cell coordinates into the base seed so every cell gets its
/// own deterministic loss pattern.
fn cell_seed(cfg: &Config, n: usize, loss: f64, salt: u64) -> u64 {
    cfg.seed
        .wrapping_mul(1_000_003)
        .wrapping_add(n as u64 * 101 + (loss * 100.0) as u64 * 7 + salt)
}

/// Group invocation: one broadcast round over `n` members, cold cache
/// every iteration (this is the path §6 times at seconds scale over
/// 802.11b). The directory round-trip budget comes from the *server's*
/// request counters, not wall clock.
fn bench_group_invoke(cfg: &Config, backend: &'static str, n: usize, loss: f64) -> Cell {
    let env = make_env(backend);
    let devs = devices(&env, n + 1);
    let members: Vec<UserId> = devs[1..]
        .iter()
        .map(syd_core::DeviceRuntime::user)
        .collect();
    let svc = ServiceName::new("bench");
    for d in &devs[1..] {
        d.register_service(
            &svc,
            "echo",
            Arc::new(|_ctx, args: &[Value]| Ok(Value::from(args.len() as u64))),
        )
        .expect("register echo");
    }
    let engine = devs[0].engine();
    if loss > 0.0 {
        engine.set_options(lossy_opts());
        env.network().reconfigure(
            NetConfig::ideal()
                .with_loss(loss)
                .with_seed(cell_seed(cfg, n, loss, 1)),
        );
    }
    // A body representative of a link-firing broadcast: a small map would
    // encode similarly; what matters is that it is identical per member.
    let payload = vec![Value::str("x".repeat(256)), Value::from(7u64)];
    let iters = if cfg.quick { 5 } else { 40 };
    let dir0 = dir_round_trips(&env);
    let bytes0 = wire_bytes_now(&env, backend);
    let errs0 = frame_errors_now(&env);
    let mut cell = Cell {
        bench: "group_invoke",
        transport: backend,
        group_size: n,
        loss_pct: loss,
        iters,
        ok: 0,
        latencies_ms: Vec::with_capacity(iters),
        dir_round_trips: 0.0,
        wire_bytes: 0.0,
        frame_errors: 0.0,
    };
    for _ in 0..iters {
        engine.flush_cache();
        let t = Instant::now();
        let result = engine.invoke_group(&members, &svc, "echo", payload.clone());
        cell.latencies_ms.push(ms(t.elapsed()));
        if result.all_ok() {
            cell.ok += 1;
        }
    }
    cell.dir_round_trips = (dir_round_trips(&env) - dir0) as f64;
    cell.wire_bytes = (wire_bytes_now(&env, backend) - bytes0) as f64;
    cell.frame_errors = (frame_errors_now(&env) - errs0) as f64;
    cell
}

/// Cold group resolution alone: what does it cost to turn `n` user names
/// into addresses?
fn bench_directory_resolution(cfg: &Config, backend: &'static str, n: usize, loss: f64) -> Cell {
    let env = make_env(backend);
    let devs = devices(&env, n + 1);
    let members: Vec<UserId> = devs[1..]
        .iter()
        .map(syd_core::DeviceRuntime::user)
        .collect();
    let engine = devs[0].engine();
    if loss > 0.0 {
        engine.set_options(lossy_opts());
        env.network().reconfigure(
            NetConfig::ideal()
                .with_loss(loss)
                .with_seed(cell_seed(cfg, n, loss, 2)),
        );
    }
    let iters = if cfg.quick { 5 } else { 40 };
    let dir0 = dir_round_trips(&env);
    let bytes0 = wire_bytes_now(&env, backend);
    let errs0 = frame_errors_now(&env);
    let mut cell = Cell {
        bench: "directory_resolution",
        transport: backend,
        group_size: n,
        loss_pct: loss,
        iters,
        ok: 0,
        latencies_ms: Vec::with_capacity(iters),
        dir_round_trips: 0.0,
        wire_bytes: 0.0,
        frame_errors: 0.0,
    };
    for _ in 0..iters {
        engine.flush_cache();
        let t = Instant::now();
        let resolved = engine.resolve_many(&members);
        cell.latencies_ms.push(ms(t.elapsed()));
        if resolved.iter().all(|(_, r)| r.is_ok()) {
            cell.ok += 1;
        }
    }
    cell.dir_round_trips = (dir_round_trips(&env) - dir0) as f64;
    cell.wire_bytes = (wire_bytes_now(&env, backend) - bytes0) as f64;
    cell.frame_errors = (frame_errors_now(&env) - errs0) as f64;
    cell
}

/// The full §5 flow: find a common slot across everyone's calendar over a
/// four-week window, then schedule the meeting (mark → commit → links).
fn bench_schedule(cfg: &Config, backend: &'static str, n: usize, loss: f64) -> Cell {
    const WINDOW_DAYS: u32 = 28;
    let env = make_env(backend);
    let apps = calendar_rig(&env, n);
    let users = users_of(&apps);
    if loss > 0.0 {
        for app in &apps {
            app.device().engine().set_options(lossy_opts());
        }
        env.network().reconfigure(
            NetConfig::ideal()
                .with_loss(loss)
                .with_seed(cell_seed(cfg, n, loss, 3)),
        );
    }
    let iters = if cfg.quick {
        3
    } else if loss > 0.0 {
        6
    } else {
        12
    };
    let dir0 = dir_round_trips(&env);
    let bytes0 = wire_bytes_now(&env, backend);
    let errs0 = frame_errors_now(&env);
    let mut cell = Cell {
        bench: "schedule_meeting",
        transport: backend,
        group_size: n,
        loss_pct: loss,
        iters,
        ok: 0,
        latencies_ms: Vec::with_capacity(iters),
        dir_round_trips: 0.0,
        wire_bytes: 0.0,
        frame_errors: 0.0,
    };
    for iter in 0..iters {
        // A fresh, never-reused window per iteration: every schedule runs
        // against clean calendar space with a cold address cache.
        let base = 1 + iter as u32 * (WINDOW_DAYS + 1);
        let range = SlotRange::days(base, base + WINDOW_DAYS);
        apps[0].device().engine().flush_cache();
        let t = Instant::now();
        let outcome = schedule_once(&apps[0], &users, range, iter);
        cell.latencies_ms.push(ms(t.elapsed()));
        if outcome.is_ok() {
            cell.ok += 1;
        }
    }
    cell.dir_round_trips = (dir_round_trips(&env) - dir0) as f64;
    cell.wire_bytes = (wire_bytes_now(&env, backend) - bytes0) as f64;
    cell.frame_errors = (frame_errors_now(&env) - errs0) as f64;
    cell
}

/// Resident-set size of this process in KiB, per `/proc/self/status`.
fn vm_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// OS threads currently alive in this process, per `/proc/self/task`.
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, Iterator::count)
}

/// Fleet-scale row: `fleet` devices share one event-driven runtime while
/// an 8-member calendar subgroup schedules meetings across it. Reports
/// the standard latency metrics plus the scale metrics the shared
/// runtime exists for — OS threads for the whole process, resident
/// memory per device, and a clean `syd-check` audit of the subgroup.
fn bench_fleet_scale(cfg: &Config, fleet: usize) -> Json {
    const SUBGROUP: usize = 8;
    let env = env_ideal();
    let runtime = env.runtime();
    // Scoped registries: fleet devices share metric cells instead of
    // registering full per-device families (the §memory column).
    runtime.set_scoped_metrics(true);

    let rss0 = vm_rss_kb();
    let apps = calendar_rig(&env, SUBGROUP);
    let users = users_of(&apps);
    let extras: Vec<_> = (0..fleet.saturating_sub(SUBGROUP))
        .map(|i| env.device(&format!("fleet{i}"), "pw").unwrap())
        .collect();
    let mem_kb_per_device = (vm_rss_kb().saturating_sub(rss0)) as f64 / fleet.max(1) as f64;

    let iters = if cfg.quick { 2 } else { 5 };
    let dir0 = dir_round_trips(&env);
    let bytes0 = wire_bytes_now(&env, "sim");
    let mut cell = Cell {
        bench: "fleet_scale",
        transport: "sim",
        group_size: fleet,
        loss_pct: 0.0,
        iters,
        ok: 0,
        latencies_ms: Vec::with_capacity(iters),
        dir_round_trips: 0.0,
        wire_bytes: 0.0,
        frame_errors: 0.0,
    };
    for iter in 0..iters {
        let base = 1 + iter as u32 * 8;
        let range = SlotRange::days(base, base + 7);
        apps[0].device().engine().flush_cache();
        let t = Instant::now();
        let outcome = schedule_once(&apps[0], &users, range, iter);
        cell.latencies_ms.push(ms(t.elapsed()));
        if outcome.is_ok() {
            cell.ok += 1;
        }
    }
    // Thread census while the whole fleet is still alive — this is the
    // number the shared runtime bounds.
    let threads = os_threads();
    let audit_clean = syd_check::audit(apps.iter().map(|a| a.device())).ok();
    cell.dir_round_trips = (dir_round_trips(&env) - dir0) as f64;
    cell.wire_bytes = (wire_bytes_now(&env, "sim") - bytes0) as f64;
    print_result(&cell);
    println!(
        "{:>22}       fleet={fleet:<6} threads={threads:<4} mem/dev={mem_kb_per_device:.1}KiB  audit_clean={audit_clean}",
        ""
    );
    for d in &extras {
        d.shutdown();
    }
    for app in &apps {
        app.device().shutdown();
    }
    let mut row = cell.into_json();
    if let Json::Obj(pairs) = &mut row {
        pairs.push(("fleet_devices".into(), Json::Num(fleet as f64)));
        pairs.push(("threads".into(), Json::Num(threads as f64)));
        pairs.push((
            "mem_kb_per_device".into(),
            Json::Num(round3(mem_kb_per_device)),
        ));
        pairs.push(("audit_clean".into(), Json::Bool(audit_clean)));
    }
    row
}

/// `--profile` row: rerun the §5 schedule flow with span collection on
/// and attribute each negotiation's wall time to protocol phases.
///
/// Every iteration drains the global span-ring registry into a lossy
/// [`Collector`](syd_trace::Collector); at the end the assembled trees
/// whose root is a `calendar.schedule_op` span go through the critical-
/// path analyzer and the per-phase sums become the row's `phases`
/// table (ms per operation). `complete_rate` is the fraction of trees
/// where every client RPC span found its server-side view — under
/// loss, dropped request frames leave holes and the rate sinks below 1.
fn bench_phase_attribution(cfg: &Config, backend: &'static str, n: usize, loss: f64) -> Json {
    use syd_trace::{attribute, AssemblyMode, Collector, ExemplarStore};
    const WINDOW_DAYS: u32 = 28;
    let env = make_env(backend);
    let apps = calendar_rig(&env, n);
    let users = users_of(&apps);
    if loss > 0.0 {
        for app in &apps {
            app.device().engine().set_options(lossy_opts());
        }
        env.network().reconfigure(
            NetConfig::ideal()
                .with_loss(loss)
                .with_seed(cell_seed(cfg, n, loss, 4)),
        );
    }
    let iters = if cfg.quick {
        3
    } else if loss > 0.0 {
        6
    } else {
        8
    };
    let dir0 = dir_round_trips(&env);
    let bytes0 = wire_bytes_now(&env, backend);
    // Earlier cells may have left spans buffered in rings that are still
    // alive; drain them into a throwaway collector so this cell only
    // sees its own traces.
    Collector::new(AssemblyMode::Lossy).drain_global();
    let mut collector = Collector::new(AssemblyMode::Lossy);
    let mut ok = 0usize;
    for iter in 0..iters {
        let base = 1 + iter as u32 * (WINDOW_DAYS + 1);
        let range = SlotRange::days(base, base + WINDOW_DAYS);
        apps[0].device().engine().flush_cache();
        if schedule_once(&apps[0], &users, range, iter).is_ok() {
            ok += 1;
        }
        collector.drain_global();
    }
    let dir_total = (dir_round_trips(&env) - dir0) as f64;
    let bytes_total = (wire_bytes_now(&env, backend) - bytes0) as f64;

    let (trees, _holes) = collector.assemble_all();
    let mut exemplars = ExemplarStore::new(3);
    let mut totals_ms: Vec<f64> = Vec::new();
    let mut phase_us: Vec<(&'static str, u64)> =
        syd_trace::PHASES.iter().map(|p| (*p, 0u64)).collect();
    let mut complete = 0usize;
    for tree in trees {
        if tree.op() != names::SPAN_SCHEDULE {
            continue;
        }
        let att = attribute(&tree);
        totals_ms.push(att.total_us as f64 / 1000.0);
        for (phase, sum) in &mut phase_us {
            *sum += att.phase_us(phase);
        }
        if att.complete {
            complete += 1;
        }
        exemplars.offer(tree);
    }
    totals_ms.sort_by(f64::total_cmp);
    let traces = totals_ms.len();
    let per_op = |us: u64| round3(us as f64 / 1000.0 / traces.max(1) as f64);
    let phases_json: Vec<(String, Json)> = phase_us
        .iter()
        .map(|&(phase, us)| (phase.to_owned(), Json::Num(per_op(us))))
        .collect();

    println!(
        "{:>22} [{:^3}] n={:<3} loss={:>3.0}%  traces={traces}  complete={complete}/{traces}  median={:>8.3}ms",
        "phase_attribution",
        backend,
        n,
        loss * 100.0,
        percentile(&totals_ms, 50.0),
    );
    for &(phase, us) in &phase_us {
        println!("{:>30}: {:>8.3} ms/op", phase, per_op(us));
    }
    if let Some(worst) = exemplars.worst(names::SPAN_SCHEDULE).first() {
        println!(
            "{:>30}: {:.3} ms ({} spans)",
            "worst exemplar",
            worst.duration_us() as f64 / 1000.0,
            worst.nodes.len(),
        );
    }

    Json::Obj(vec![
        ("bench".into(), Json::Str("phase_attribution".into())),
        ("transport".into(), Json::Str(backend.into())),
        ("group_size".into(), Json::Num(n as f64)),
        ("loss_pct".into(), Json::Num(loss * 100.0)),
        ("iters".into(), Json::Num(iters as f64)),
        ("ok_rate".into(), Json::Num(ok as f64 / iters.max(1) as f64)),
        (
            "median_ms".into(),
            Json::Num(round3(percentile(&totals_ms, 50.0))),
        ),
        (
            "p90_ms".into(),
            Json::Num(round3(percentile(&totals_ms, 90.0))),
        ),
        (
            "dir_round_trips_per_op".into(),
            Json::Num(round3(dir_total / iters.max(1) as f64)),
        ),
        (
            "wire_bytes_per_op".into(),
            Json::Num(round3(bytes_total / iters.max(1) as f64)),
        ),
        (
            "frame_errors".into(),
            Json::Num(frame_errors_now(&env) as f64),
        ),
        ("traces".into(), Json::Num(traces as f64)),
        (
            "complete_rate".into(),
            Json::Num(round3(complete as f64 / traces.max(1) as f64)),
        ),
        ("phases".into(), Json::Obj(phases_json)),
    ])
}

fn schedule_once(
    initiator: &CalendarApp,
    users: &[UserId],
    range: SlotRange,
    iter: usize,
) -> Result<(), SydError> {
    let common = initiator.find_common_slots(users, range)?;
    let slot = *common
        .first()
        .ok_or_else(|| SydError::App("no common slot".into()))?;
    initiator.schedule(MeetingSpec::plain(
        format!("perf-{iter}"),
        slot,
        users.to_vec(),
    ))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// schema validation (--check)
// ---------------------------------------------------------------------------

/// Validates an emitted document against the `syd-bench-perf/v1` schema;
/// returns the number of result rows. CI gates on this, not on absolute
/// numbers (wall clock varies with the runner).
fn validate_file(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("schema field is not {SCHEMA:?}"));
    }
    if doc.get("mode").and_then(Json::as_str) != Some(MODE) {
        return Err(format!("mode field is not {MODE:?}"));
    }
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing results array")?;
    if results.is_empty() {
        return Err("results array is empty".into());
    }
    for (i, row) in results.iter().enumerate() {
        let bench = row
            .get("bench")
            .and_then(Json::as_str)
            .ok_or(format!("results[{i}]: missing bench"))?;
        for key in [
            "group_size",
            "loss_pct",
            "iters",
            "ok_rate",
            "median_ms",
            "p90_ms",
            "dir_round_trips_per_op",
            "wire_bytes_per_op",
        ] {
            row.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("results[{i}]: missing numeric {key}"))?;
        }
        // Optional fields from the `--transport` axis: when present they
        // must be well-typed (pre-axis documents omit them).
        if let Some(t) = row.get("transport") {
            match t.as_str() {
                Some("sim" | "tcp") => {}
                other => return Err(format!("results[{i}]: bad transport {other:?}")),
            }
        }
        if let Some(fe) = row.get("frame_errors") {
            fe.as_f64()
                .ok_or(format!("results[{i}]: frame_errors not numeric"))?;
        }
        // Optional fleet-scale fields: present only on `fleet_scale`
        // rows, and then they must be well-typed.
        for key in ["fleet_devices", "threads", "mem_kb_per_device"] {
            if let Some(v) = row.get(key) {
                v.as_f64()
                    .ok_or(format!("results[{i}]: {key} not numeric"))?;
            }
        }
        if let Some(a) = row.get("audit_clean") {
            if !matches!(a, Json::Bool(_)) {
                return Err(format!("results[{i}]: audit_clean not boolean"));
            }
        }
        // `phase_attribution` rows (from `--profile`) additionally carry
        // the critical-path phase table: every analyzer phase must be
        // present and numeric, and the tree census must be well-typed.
        if bench == "phase_attribution" {
            for key in ["traces", "complete_rate"] {
                row.get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("results[{i}]: missing numeric {key}"))?;
            }
            let phases = row
                .get("phases")
                .ok_or(format!("results[{i}]: missing phases table"))?;
            for phase in syd_trace::PHASES {
                phases
                    .get(phase)
                    .and_then(Json::as_f64)
                    .ok_or(format!("results[{i}]: phases missing numeric {phase}"))?;
            }
        }
    }
    Ok(results.len())
}
