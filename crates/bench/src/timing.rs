//! The timer under the nine `benches/` targets (one per paper figure or
//! experiment, see DESIGN.md §4): warm up, time batches for a fixed
//! budget, print one `group/name  median ns/iter (iters)` line.
//!
//! The budget is fixed (≈ 0.3 s per measurement) so a whole target ends
//! in seconds and CI can run all nine on every push. These numbers are
//! for comparing layers on one machine in one sitting; the gated,
//! repeatable figures come from `benchmark/` (BENCHMARK.json).

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

const WARM_UP: Duration = Duration::from_millis(50);
const MEASURE: Duration = Duration::from_millis(250);
/// A batch should run about this long, so reading the clock is noise.
const BATCH_TARGET: Duration = Duration::from_millis(1);

/// A named family of measurements; the name prefixes every output line.
pub struct Group(pub &'static str);

/// Handed to a measurement's closure: build the fixture, then call
/// [`Bencher::iter`] (or [`Bencher::iter_batched`]) exactly once.
pub struct Bencher(String);

impl Group {
    /// Runs one measurement named `name` within this group.
    pub fn bench_function(&self, name: impl Display, measure: impl FnOnce(&mut Bencher)) {
        measure(&mut Bencher(format!("{}/{name}", self.0)));
    }
}

impl Bencher {
    /// Times `routine`.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        self.iter_batched(|| (), |()| routine());
    }

    /// Times `routine` alone; each call consumes one untimed `setup()`.
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
    ) {
        let mut run = |batch: u64| {
            let inputs: Vec<I> = (0..batch).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(black_box(input)));
            }
            start.elapsed()
        };
        let (warm_start, mut warm_iters, mut warm_time) = (Instant::now(), 0u32, Duration::ZERO);
        while warm_iters == 0 || warm_start.elapsed() < WARM_UP {
            warm_time += run(1);
            warm_iters += 1;
        }
        let per_iter = (warm_time / warm_iters).max(Duration::from_nanos(1));
        let batch = (BATCH_TARGET.as_nanos() / per_iter.as_nanos()).clamp(1, 1 << 20) as u64;
        let (start, mut samples) = (Instant::now(), Vec::new());
        while samples.is_empty() || start.elapsed() < MEASURE {
            samples.push(run(batch).as_nanos() as f64 / batch as f64);
        }
        samples.sort_by(f64::total_cmp);
        let (median, iters) = (samples[samples.len() / 2], samples.len() as u64 * batch);
        println!("{:<56} {median:>14.1} ns/iter ({iters} iters)", self.0);
    }
}
