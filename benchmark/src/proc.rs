//! Process-level readings: resident set and thread count from
//! `/proc/self/status`, CPU time and context switches from `getrusage`.

use std::ffi::{c_int, c_long};

/// A `/proc/self/status` field whose first token is a number (`VmRSS:`
/// in KiB, `Threads:`); 0 when the file or field is missing.
fn status_field(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Resident set size, KiB.
pub fn rss_kib() -> u64 {
    status_field("VmRSS:")
}

/// OS threads alive in this process.
pub fn threads() -> u64 {
    status_field("Threads:")
}

/// `struct rusage` as 64-bit Linux lays it out: two `timeval`s, then 14
/// `long`s of which the last two are the context-switch counts.
#[repr(C)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    rest: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// CPU time and context switches of the whole process, exited threads
/// included (which `/proc/self/task` cannot give: the calendar spawns a
/// short-lived thread per promotion).
#[derive(Clone, Copy, Default)]
pub struct Usage {
    /// User + system CPU time, ms.
    pub cpu_ms: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

/// Reads [`Usage`] now; zeros if the call fails.
pub fn usage() -> Usage {
    const RUSAGE_SELF: c_int = 0;
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines (checked by `layout_matches_the_abi`), and
    // `getrusage` writes nothing else.
    if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
        return Usage::default();
    }
    let ms = |tv: [c_long; 2]| tv[0] as f64 * 1e3 + tv[1] as f64 / 1e3;
    Usage {
        cpu_ms: ms(ru.utime) + ms(ru.stime),
        ctx_switches: (ru.rest[12] + ru.rest[13]) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_the_abi() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
    }

    #[test]
    fn readings_are_live() {
        assert!(rss_kib() > 0);
        assert!(threads() >= 1);
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(usage().cpu_ms > before.cpu_ms, "{x}");
    }
}
