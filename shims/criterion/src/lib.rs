//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no network access, so crates.io `criterion`
//! cannot be resolved. This shim keeps the same API surface the workspace's
//! bench targets use (`criterion_group!`/`criterion_main!`, benchmark groups,
//! `Bencher::iter`, throughput annotation) so `cargo bench` runs unchanged.
//! Statistics are intentionally simple: an adaptive calibration pass picks an
//! iteration count per sample, then the median of `sample_size` samples is
//! reported, with derived throughput when one was declared.
//!
//! Like criterion, the bench binary takes `[--test] [FILTER]` after `--`:
//! `FILTER` runs only the benchmarks whose full name contains it, and
//! `--test` runs each selected routine once, untimed, to check it works.

use std::fmt::Display;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The bench binary's arguments: `--test` and an optional name filter.
/// Other flags (cargo passes `--bench`) are ignored.
struct Mode {
    test: bool,
    filter: Option<String>,
}

fn mode() -> &'static Mode {
    static MODE: OnceLock<Mode> = OnceLock::new();
    MODE.get_or_init(|| {
        let mut mode = Mode { test: false, filter: None };
        for arg in std::env::args().skip(1) {
            if arg == "--test" {
                mode.test = true;
            } else if !arg.starts_with("--") && mode.filter.is_none() {
                mode.filter = Some(arg);
            }
        }
        mode
    })
}

/// Declared per-iteration workload, used to derive a rate from the timing.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// A `group_name/function_name/parameter` style benchmark identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("compress", "lzss")` → `compress/lzss`.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { full: format!("{}/{}", function_name.into(), parameter) }
    }
}

/// Passed to the closure given to `bench_function`; `iter` times the routine.
pub struct Bencher<'a> {
    samples: usize,
    measurement_window: Duration,
    /// Test mode: run the routine once and time nothing.
    test: bool,
    result: &'a mut Option<Measurement>,
}

#[derive(Debug, Clone, Copy)]
struct Measurement {
    median_ns_per_iter: f64,
    /// Sample standard deviation of the per-iteration sample times.
    stddev_ns: f64,
    /// Median absolute deviation — robust spread, immune to one noisy sample.
    mad_ns: f64,
    total_iters: u64,
}

impl Bencher<'_> {
    /// Time `routine`, keeping the median over the configured sample count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.test {
            std::hint::black_box(routine());
            *self.result = Some(Measurement {
                median_ns_per_iter: 0.0,
                stddev_ns: 0.0,
                mad_ns: 0.0,
                total_iters: 1,
            });
            return;
        }
        // Calibration: grow the per-sample iteration count until one sample
        // takes a meaningful slice of the measurement window.
        let per_sample_target = self.measurement_window.as_secs_f64() / self.samples as f64;
        let mut iters_per_sample = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= per_sample_target.min(0.05) || iters_per_sample >= 1 << 24 {
                break;
            }
            iters_per_sample = (iters_per_sample * 4).min(1 << 24);
        }
        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.samples);
        let mut total_iters = 0u64;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(routine());
            }
            let ns = start.elapsed().as_nanos() as f64 / iters_per_sample as f64;
            samples_ns.push(ns);
            total_iters += iters_per_sample;
        }
        let (median, stddev, mad) = spread_stats(&mut samples_ns);
        *self.result = Some(Measurement {
            median_ns_per_iter: median,
            stddev_ns: stddev,
            mad_ns: mad,
            total_iters,
        });
    }
}

/// `(median, sample stddev, median absolute deviation)` of `samples`
/// (sorted in place). Panics on an empty slice.
fn spread_stats(samples: &mut [f64]) -> (f64, f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let variance = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
        / (samples.len() - 1).max(1) as f64;
    let mut deviations: Vec<f64> = samples.iter().map(|x| (x - median).abs()).collect();
    deviations.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mad = deviations[deviations.len() / 2];
    (median, variance.sqrt(), mad)
}

fn human_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn human_rate(per_sec: f64, unit: &str) -> String {
    if per_sec >= 1e9 {
        format!("{:.2} G{unit}/s", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2} M{unit}/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2} K{unit}/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.1} {unit}/s")
    }
}

fn run_one(
    name: &str,
    samples: usize,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher<'_>),
) {
    let mode = mode();
    if mode.filter.as_ref().is_some_and(|filter| !name.contains(filter.as_str())) {
        return;
    }
    let mut result = None;
    let mut bencher = Bencher {
        samples: samples.max(2),
        measurement_window: Duration::from_millis(500),
        test: mode.test,
        result: &mut result,
    };
    f(&mut bencher);
    match result {
        Some(_) if mode.test => println!("Testing {name}\nSuccess"),
        Some(m) => {
            let mut line = format!(
                "{name:<52} time: {:>12} ± {:>9} (MAD {})",
                human_time(m.median_ns_per_iter),
                human_time(m.stddev_ns),
                human_time(m.mad_ns),
            );
            if let Some(tp) = throughput {
                let per_sec = match tp {
                    Throughput::Bytes(n) => n as f64 / (m.median_ns_per_iter / 1e9),
                    Throughput::Elements(n) => n as f64 / (m.median_ns_per_iter / 1e9),
                };
                let unit = match tp {
                    Throughput::Bytes(_) => "B",
                    Throughput::Elements(_) => "elem",
                };
                line.push_str(&format!("   thrpt: {:>14}", human_rate(per_sec, unit)));
            }
            line.push_str(&format!("   ({} iters)", m.total_iters));
            println!("{line}");
            save_measurement(name, &m);
        }
        None => println!("{name:<52} (no measurement: bencher never called iter)"),
    }
}

/// When `CRITERION_SAVE=<path>` is set, append one JSON line per benchmark
/// (name, median/stddev/MAD in ns, iteration count) so regression tooling
/// can diff runs without screen-scraping the human table.
fn save_measurement(name: &str, m: &Measurement) {
    let Ok(path) = std::env::var("CRITERION_SAVE") else { return };
    if path.is_empty() {
        return;
    }
    let escaped: String = name
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect();
    let line = format!(
        "{{\"name\":\"{escaped}\",\"median_ns\":{},\"stddev_ns\":{},\"mad_ns\":{},\"iters\":{}}}\n",
        m.median_ns_per_iter, m.stddev_ns, m.mad_ns, m.total_iters
    );
    let _ = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
}

/// A named collection of benchmarks sharing sample-size/throughput settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark (median is reported).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n;
        self
    }

    /// Declare per-iteration workload so a rate is reported alongside time.
    pub fn throughput(&mut self, tp: Throughput) -> &mut Self {
        self.throughput = Some(tp);
        self
    }

    /// Run one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(
        &mut self,
        id: impl IntoBenchmarkName,
        mut f: F,
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.into_benchmark_name());
        run_one(&name, self.samples, self.throughput, &mut f);
        self
    }

    /// Run one parameterized benchmark in the group.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher<'_>, &I)>(
        &mut self,
        id: impl IntoBenchmarkName,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.into_benchmark_name());
        run_one(&name, self.samples, self.throughput, &mut |b| f(b, input));
        self
    }

    /// End the group (kept for API compatibility; reporting is immediate).
    pub fn finish(self) {}
}

/// Things accepted where criterion takes a benchmark id: `&str`, `String`,
/// or a [`BenchmarkId`].
pub trait IntoBenchmarkName {
    fn into_benchmark_name(self) -> String;
}
impl IntoBenchmarkName for &str {
    fn into_benchmark_name(self) -> String {
        self.to_string()
    }
}
impl IntoBenchmarkName for String {
    fn into_benchmark_name(self) -> String {
        self
    }
}
impl IntoBenchmarkName for BenchmarkId {
    fn into_benchmark_name(self) -> String {
        self.full
    }
}

/// The harness entry point handed to each `criterion_group!` target.
pub struct Criterion {
    default_samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { default_samples: 20 }
    }
}

impl Criterion {
    /// Open a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let samples = self.default_samples;
        BenchmarkGroup { name: name.into(), samples, throughput: None, _criterion: self }
    }

    /// Run a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(
        &mut self,
        name: impl IntoBenchmarkName,
        mut f: F,
    ) -> &mut Self {
        run_one(&name.into_benchmark_name(), self.default_samples, None, &mut f);
        self
    }
}

/// Opaque-to-the-optimizer identity, mirroring `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Define a benchmark group runner function from a list of target functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Define `main` running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::spread_stats;

    #[test]
    fn spread_stats_on_known_samples() {
        // Sorted: [1, 2, 3, 4, 100] — median 3, MAD = median(|x-3|) =
        // median([2,1,0,1,97]) = 1. One outlier inflates stddev, not MAD.
        let mut s = vec![3.0, 1.0, 100.0, 2.0, 4.0];
        let (median, stddev, mad) = spread_stats(&mut s);
        assert_eq!(median, 3.0);
        assert_eq!(mad, 1.0);
        assert!(stddev > 40.0, "outlier should dominate stddev: {stddev}");
    }

    #[test]
    fn spread_stats_single_sample_is_degenerate_zero_spread() {
        let mut s = vec![7.5];
        assert_eq!(spread_stats(&mut s), (7.5, 0.0, 0.0));
    }
}
