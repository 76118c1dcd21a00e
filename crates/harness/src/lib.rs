//! A minimal grouped benchmark harness.
//!
//! The workspace builds offline, so criterion is unavailable; this crate
//! provides the small subset the ALLARM benches need, in the grouped style
//! of iai/criterion harnesses: named groups of named benchmarks, warm-up,
//! adaptive iteration counts, and median-of-samples reporting. Bench targets
//! opt out of libtest with `harness = false` and call [`benchmark_main!`].
//!
//! # Examples
//!
//! ```
//! use allarm_harness::{black_box, Group};
//!
//! fn fib(n: u64) -> u64 { (1..=n).product() }
//!
//! let mut group = Group::new("math").sample_count(5).min_duration_ms(1);
//! group.bench("fib20", || { black_box(fib(black_box(20))); });
//! group.finish();
//! ```

#![forbid(unsafe_code)]

use std::hint;
use std::time::{Duration, Instant};

/// An opaque value barrier preventing the optimizer from deleting the
/// benchmarked computation.
pub fn black_box<T>(value: T) -> T {
    hint::black_box(value)
}

/// A named collection of benchmarks, printed as one block.
#[derive(Debug)]
pub struct Group {
    name: String,
    filter: Option<String>,
    sample_count: usize,
    min_duration: Duration,
    min_iters: u64,
    printed_header: bool,
}

impl Group {
    /// Creates a group, reading the benchmark filter from the command line
    /// (the first non-flag argument, as `cargo bench -- <filter>` passes it).
    pub fn new(name: impl Into<String>) -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Group {
            name: name.into(),
            filter,
            sample_count: 10,
            min_duration: Duration::from_millis(20),
            min_iters: 1,
            printed_header: false,
        }
    }

    /// Overrides the number of timed samples per benchmark (default 10).
    pub fn sample_count(mut self, samples: usize) -> Self {
        self.sample_count = samples.max(1);
        self
    }

    /// Overrides the minimum wall-clock time per sample (default 20 ms); the
    /// iteration count adapts until one sample takes at least this long.
    pub fn min_duration_ms(mut self, ms: u64) -> Self {
        self.min_duration = Duration::from_millis(ms);
        self
    }

    /// Sets a floor on iterations per timed sample (default 1). The
    /// adaptive warm-up stops growing the count as soon as one sample
    /// clears [`Group::min_duration_ms`], so a benchmark whose single
    /// iteration already takes that long is sampled at `iters = 1` and
    /// every scheduling hiccup lands in exactly one sample. A floor of a
    /// few iterations averages that noise away for such benchmarks.
    pub fn min_iters(mut self, iters: u64) -> Self {
        self.min_iters = iters.max(1);
        self
    }

    /// Runs one benchmark: calls `f` repeatedly and reports the median
    /// per-iteration time over the samples. Returns the measured numbers
    /// (`None` when the command-line filter skipped the benchmark), so a
    /// bench target can also persist a machine-readable record — see
    /// [`stats_to_json`].
    pub fn bench(&mut self, name: &str, mut f: impl FnMut()) -> Option<BenchStats> {
        let full = format!("{}/{}", self.name, name);
        if let Some(filter) = &self.filter {
            if !full.contains(filter.as_str()) {
                return None;
            }
        }
        if !self.printed_header {
            println!("# group {}", self.name);
            self.printed_header = true;
        }

        // Warm up and find an iteration count where one sample is long
        // enough to time reliably, never dropping below the caller's floor.
        let mut iters = self.min_iters;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            let elapsed = start.elapsed();
            if elapsed >= self.min_duration || iters >= 1 << 30 {
                break;
            }
            // Aim straight for the target with 2x headroom.
            let target = self.min_duration.as_nanos().max(1);
            let per_iter = (elapsed.as_nanos() / u128::from(iters)).max(1);
            iters = ((2 * target / per_iter) as u64).clamp(iters + 1, 1 << 30);
        }

        let mut samples: Vec<u128> = (0..self.sample_count)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    f();
                }
                start.elapsed().as_nanos() / u128::from(iters)
            })
            .collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        let min = samples[0];
        let max = samples[samples.len() - 1];
        println!(
            "{full:<50} {:>12}/iter  (min {}, max {}, {iters} iters x {} samples)",
            format_ns(median),
            format_ns(min),
            format_ns(max),
            self.sample_count,
        );
        Some(BenchStats {
            group: self.name.clone(),
            name: name.to_string(),
            median_ns: median,
            min_ns: min,
            max_ns: max,
            iters,
            samples: self.sample_count,
        })
    }

    /// Ends the group (prints a trailing newline if anything ran).
    pub fn finish(self) {
        if self.printed_header {
            println!();
        }
    }
}

/// One benchmark's measured numbers, as returned by [`Group::bench`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchStats {
    /// The group the benchmark ran in.
    pub group: String,
    /// The benchmark's name within its group.
    pub name: String,
    /// Median per-iteration time across the samples, nanoseconds.
    pub median_ns: u128,
    /// Fastest sample's per-iteration time, nanoseconds.
    pub min_ns: u128,
    /// Slowest sample's per-iteration time, nanoseconds.
    pub max_ns: u128,
    /// Iterations per timed sample (adapted during warm-up).
    pub iters: u64,
    /// Number of timed samples.
    pub samples: usize,
}

/// Renders a bench run as a small JSON document (hand-formatted — the
/// harness has no serializer dependency), for committing performance
/// trajectories alongside the code:
///
/// ```json
/// {"bench": "...", "unit": "ns_per_iter", "results": [{"group": ...}]}
/// ```
///
/// Group and benchmark names are emitted verbatim, so keep them to the
/// usual identifier characters (every workspace bench does).
pub fn stats_to_json(bench: &str, stats: &[BenchStats]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"unit\": \"ns_per_iter\",\n  \"results\": [\n"
    ));
    for (i, s) in stats.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \
             \"max_ns\": {}, \"iters\": {}, \"samples\": {}}}{}\n",
            s.group,
            s.name,
            s.median_ns,
            s.min_ns,
            s.max_ns,
            s.iters,
            s.samples,
            if i + 1 < stats.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn format_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Declares the `main` function of a `harness = false` bench target: each
/// argument is a `fn()` that builds, runs and finishes its [`Group`]s.
#[macro_export]
macro_rules! benchmark_main {
    ($($group_fn:path),+ $(,)?) => {
        fn main() {
            $( $group_fn(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut group = Group::new("selftest").sample_count(3).min_duration_ms(1);
        let mut count = 0u64;
        let stats = group
            .bench("counter", || {
                count = black_box(count.wrapping_add(1));
            })
            .expect("unfiltered benchmarks report stats");
        group.finish();
        assert!(count > 0, "benchmark closure must have run");
        assert_eq!(
            (stats.group.as_str(), stats.name.as_str()),
            ("selftest", "counter")
        );
        assert!(stats.min_ns <= stats.median_ns && stats.median_ns <= stats.max_ns);
        assert_eq!(stats.samples, 3);
    }

    #[test]
    fn min_iters_floors_the_adaptive_count() {
        // One iteration already clears the 0 ms duration target, so without
        // the floor the warm-up would settle at iters = 1.
        let mut group = Group::new("selftest")
            .sample_count(2)
            .min_duration_ms(0)
            .min_iters(5);
        let stats = group
            .bench("floored", || {
                black_box(std::hint::black_box(1u64) + 1);
            })
            .expect("unfiltered benchmarks report stats");
        group.finish();
        assert!(stats.iters >= 5, "floor ignored: {} iters", stats.iters);
    }

    #[test]
    fn stats_render_as_json() {
        let stats = vec![
            BenchStats {
                group: "g".into(),
                name: "a".into(),
                median_ns: 10,
                min_ns: 9,
                max_ns: 11,
                iters: 4,
                samples: 3,
            },
            BenchStats {
                group: "g".into(),
                name: "b".into(),
                median_ns: 20,
                min_ns: 20,
                max_ns: 21,
                iters: 2,
                samples: 3,
            },
        ];
        let json = stats_to_json("trajectory", &stats);
        assert!(json.contains("\"bench\": \"trajectory\""), "{json}");
        assert!(
            json.contains("\"name\": \"a\", \"median_ns\": 10"),
            "{json}"
        );
        // The two records are comma-separated, the list is terminated.
        assert_eq!(json.matches("{\"group\"").count(), 2);
        assert!(json.trim_end().ends_with("]\n}"), "{json}");
    }

    #[test]
    fn format_is_humane() {
        assert_eq!(format_ns(12), "12 ns");
        assert_eq!(format_ns(1_500), "1.500 us");
        assert_eq!(format_ns(2_500_000), "2.500 ms");
        assert_eq!(format_ns(3_000_000_000), "3.000 s");
    }
}
