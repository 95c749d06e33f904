//! The benchmark's fixed vocabulary: workloads and metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root declares the same tables to the driver; the test at the bottom
//! keeps the two in step.

use std::ops::Range;

/// One deployment shape the cycle is run against.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Calendar users in the deployment.
    pub users: usize,
    /// Members of initiator A's meeting; A is the first.
    pub group_a: Range<usize>,
    /// Members of initiator B's meeting.
    pub group_b: Range<usize>,
    /// Index of initiator B.
    pub b: usize,
    /// Idle devices sharing the runtime (0 = none, metrics unscoped).
    pub idle_devices: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wlan_n8",
        why: "The paper's case: a dozen handhelds on a 2 ms WLAN, two 8-member meetings sharing 4 members; the base every other workload is read against",
        users: 12,
        group_a: 0..8,
        group_b: 4..12,
        b: 8,
        idle_devices: 0,
    },
    Workload {
        name: "wlan_n32",
        why: "A 32-member meeting: the per-member serial tail of reconcile/cancel is 96 % of schedule here, so O(n) calls turned into O(1) rounds show first; B's group stays at 8",
        users: 36,
        group_a: 0..32,
        group_b: 28..36,
        b: 32,
        idle_devices: 0,
    },
    Workload {
        name: "wlan_herd",
        why: "Both meetings over the same 8 members: every slot of B's meeting is held, so eight waiting links, notifications and serialised reconciles follow each cancel",
        users: 12,
        group_a: 0..8,
        group_b: 0..8,
        b: 1,
        idle_devices: 0,
    },
    Workload {
        name: "wlan_fleet",
        why: "wlan_n8 beside 4000 idle devices on the shared runtime with scoped metrics: memory per device, and any O(devices) work per frame or timer tick, show here only",
        users: 12,
        group_a: 0..8,
        group_b: 4..12,
        b: 8,
        idle_devices: 4000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

/// Every end-to-end time is injected delay; the rest are counts and
/// sizes. All are reported on every workload, tracing off.
///
/// The bounds on times are three times the widest spread (quartile
/// distance over ten seeds) seen on the shared 2-vCPU host, whose own
/// drift between two sets of runs half an hour apart reached 5 %: the
/// delay repeats, the wake-up latency on top of every hop does not.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("find_p50_ms", "ms", 0.25),
    e2e("schedule_p50_ms", "ms", 0.15),
    e2e("blocked_p50_ms", "ms", 0.15),
    e2e("cancel_p50_ms", "ms", 0.15),
    e2e("promote_p50_ms", "ms", 0.15),
    e2e("frames_per_cycle", "frames", 0.01),
    e2e("wire_bytes_per_cycle", "B", 0.02),
    e2e("allocs_per_cycle", "count", 0.04),
    e2e("alloc_kib_per_cycle", "KiB", 0.06),
    e2e("rss_kib_per_device", "KiB", 0.10),
    e2e("setup_s", "s", 0.25),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn low(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn high(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Single-layer metrics of the traced run; layer = crate. Never gated.
pub const PER_LAYER: [PerLayer; 64] = [
    low("wire.encode_ns", "ns"),
    low("wire.decode_ns", "ns"),
    low("wire.request_bytes", "B"),
    low("store.txn_write_us", "us"),
    low("store.get_by_key_us", "us"),
    low("store.range_select_us", "us"),
    low("crypto.seal_us", "us"),
    low("crypto.verify_us", "us"),
    low("transport.sim_hop_us", "us"),
    low("transport.delay_overshoot_us", "us"),
    low("transport.tcp_hop_us", "us"),
    low("net.rpc_ideal_us", "us"),
    low("net.rpc_wlan_us", "us"),
    low("net.rpc_tcp_us", "us"),
    low("net.rpc_par8_wlan_us", "us"),
    low("net.rpcs_per_cycle", "count"),
    low("net.rpc_retries_per_cycle", "count"),
    low("net.rpc_timeouts_per_cycle", "count"),
    low("net.pool_jobs_per_cycle", "count"),
    low("net.pool_peak_workers", "count"),
    low("core.resolve_many_us_n8", "us"),
    low("core.resolve_many_us_n32", "us"),
    low("core.invoke_group_wlan_us_n8", "us"),
    low("core.invoke_group_wlan_us_n32", "us"),
    low("core.negotiate_and_wlan_us_n8", "us"),
    low("core.dir_round_trips_per_cycle", "count"),
    low("core.negotiate_sessions_per_cycle", "count"),
    low("core.negotiate_abort_share", "share"),
    low("core.device_spawn_us", "us"),
    low("core.serial_rtts_find", "count"),
    low("core.serial_rtts_schedule", "count"),
    low("core.serial_rtts_blocked", "count"),
    low("core.serial_rtts_cancel", "count"),
    low("core.serial_rtts_promote", "count"),
    low("calendar.find_us", "us"),
    low("calendar.schedule_us", "us"),
    low("calendar.blocked_us", "us"),
    low("calendar.cancel_us", "us"),
    low("calendar.promote_us", "us"),
    low("calendar.cancel_promoted_us", "us"),
    low("calendar.schedule_p90_us", "us"),
    low("calendar.free_bitmap_us", "us"),
    low("calendar.reconciles_per_cycle", "count"),
    low("calendar.stale_reservations", "count"),
    low("calendar.cycle_ideal_ms", "ms"),
    low("calendar.cycle_tcp_ms", "ms"),
    low("trace.span_ns", "ns"),
    low("telemetry.journal_record_ns", "ns"),
    low("trace.phase.dir_resolve_ms", "ms"),
    low("trace.phase.mark_round_ms", "ms"),
    low("trace.phase.commit_round_ms", "ms"),
    low("trace.phase.cascade_ms", "ms"),
    low("trace.phase.transport_queue_ms", "ms"),
    low("trace.phase.rpc_gap_ms", "ms"),
    low("trace.phase.other_ms", "ms"),
    low("trace.other_share", "share"),
    high("trace.complete_share", "share"),
    low("check.audit_ms", "ms"),
    low("proc.cpu_ms_per_cycle", "ms"),
    low("proc.ctx_switches_per_cycle", "count"),
    low("proc.threads_peak", "count"),
    low("bench.trace_overhead_pct", "%"),
    low("bench.quiesce_ms_per_cycle", "ms"),
    high("bench.accounted_share", "share"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json is JSON")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).expect(key)
    }

    #[test]
    fn benchmark_json_declares_these_tables() {
        let doc = declared();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name").into(), field(w, "why").into()))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.into(), w.why.into()))
            .collect();
        assert_eq!(workloads, ours);

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name").into(),
                    field(m, "unit").into(),
                    field(m, "better").into(),
                    m.get("bound").and_then(Json::as_f64).expect("bound"),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, ours);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| {
                (
                    field(m, "name").into(),
                    field(m, "unit").into(),
                    field(m, "better").into(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(per_layer, ours);

        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS as f64)
        );
    }

    #[test]
    fn names_and_units_fit_the_drivers_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| (w.name, ""))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
