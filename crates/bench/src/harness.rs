//! Drop-in micro-benchmark harness with a criterion-shaped API.
//!
//! The workspace benches were written against criterion's `Criterion` /
//! `BenchmarkGroup` / `BenchmarkId` surface; this module provides the same
//! names backed by a small `std::time::Instant` runner so the benches build
//! and run with no external dependencies. Supported invocation styles:
//!
//! ```text
//! cargo bench -p mp-bench --bench bench_thomas
//! cargo bench -p mp-bench --bench bench_search -- --quick
//! cargo bench -p mp-bench --bench bench_sweep -- blocked   # substring filter
//! ```
//!
//! Each benchmark is calibrated so one sample runs long enough to measure,
//! then timed over several samples (five of 100 ms; with `--quick`, two of
//! 10 ms); the report prints the best sample as ns/iter plus element
//! throughput when declared.
//!
//! Besides the console report, every completed run is recorded and — when
//! `main` finishes via [`criterion_main!`] — written as a machine-readable
//! JSON report `BENCH_<name>.json` at the repository root (`<name>` is the
//! bench target with the `bench_` prefix stripped, e.g. `BENCH_sweep.json`).
//!
//! Quick rows are smoke output, not measurements: on a shared 2-vCPU host
//! one `--quick` row (`block_fwd_nl4/avx2`) read 12.8–31.1 µs over five
//! runs of the same binary. CI runs `--quick` and uploads the reports as a
//! record of what ran; the signal of its SIMD smoke step is the bitwise
//! check across SIMD levels that `bench_sweep simd_kernels` makes before
//! timing. Comparing timings between builds takes several interleaved full
//! runs of each.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Declared work per iteration, used for throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Hierarchical benchmark name: `function/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A benchmark id `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function.into(), parameter),
        }
    }

    /// A benchmark id that is just the parameter value.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `iters` calls of `f`. The closure's return value is passed
    /// through [`black_box`] so the work is not optimized away.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// One completed measurement, recorded for the JSON report.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full benchmark path `group/function/parameter`.
    pub name: String,
    /// Best-sample time per iteration in nanoseconds.
    pub ns_per_iter: f64,
    /// Iterations per sample after calibration.
    pub iters: u64,
    /// Declared per-iteration work, if any.
    pub throughput: Option<Throughput>,
}

/// Top-level harness state: command-line filter and time budget.
pub struct Criterion {
    filter: Option<String>,
    /// Target duration of one measured sample.
    sample_time: Duration,
    samples: usize,
    /// Every measurement taken so far, in execution order.
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Build from `std::env::args()`: flags `--quick` (shrink the time
    /// budget) and an optional free argument used as a substring filter.
    /// Unrecognized `--flags` (cargo passes `--bench`) are ignored.
    pub fn from_args() -> Self {
        let mut filter = None;
        let mut quick = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--quick" => quick = true,
                s if s.starts_with('-') => {}
                s => filter = Some(s.to_string()),
            }
        }
        Criterion {
            filter,
            sample_time: if quick {
                Duration::from_millis(10)
            } else {
                Duration::from_millis(100)
            },
            samples: if quick { 2 } else { 5 },
            results: Vec::new(),
        }
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Everything measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Write the JSON report to `BENCH_<name>.json` at the repository root,
    /// where `<name>` is derived from the running bench executable. No-op
    /// when nothing was measured (e.g. the filter excluded everything).
    pub fn write_report(&self) {
        let name = bench_name();
        let path = format!(
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_{}.json"),
            name
        );
        self.write_report_to(&name, path.as_ref());
    }

    /// Write the JSON report for bench `name` to an explicit path.
    pub fn write_report_to(&self, name: &str, path: &std::path::Path) {
        if self.results.is_empty() {
            return;
        }
        let body = render_report(name, &self.results);
        match std::fs::write(path, body) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            filter: None,
            sample_time: Duration::from_millis(100),
            samples: 5,
            results: Vec::new(),
        }
    }
}

/// Report name of the running bench: executable stem minus the cargo
/// `-<hash>` suffix and the `bench_` prefix.
fn bench_name() -> String {
    let argv0 = std::env::args().next().unwrap_or_default();
    let stem = std::path::Path::new(&argv0)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bench");
    normalize_bench_name(stem)
}

fn normalize_bench_name(stem: &str) -> String {
    let base = match stem.rsplit_once('-') {
        Some((base, hash))
            if !base.is_empty()
                && !hash.is_empty()
                && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
        {
            base
        }
        _ => stem,
    };
    base.strip_prefix("bench_").unwrap_or(base).to_string()
}

/// Render the report as a self-contained JSON document.
fn render_report(name: &str, results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(name)));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let (tp_unit, tp_per_iter) = match r.throughput {
            Some(Throughput::Elements(n)) => ("\"elements\"".to_string(), n as f64),
            Some(Throughput::Bytes(n)) => ("\"bytes\"".to_string(), n as f64),
            None => ("null".to_string(), 0.0),
        };
        out.push_str("    {");
        out.push_str(&format!("\"name\": \"{}\", ", json_escape(&r.name)));
        out.push_str(&format!("\"ns_per_iter\": {:.3}, ", r.ns_per_iter));
        out.push_str(&format!("\"iters\": {}, ", r.iters));
        out.push_str(&format!("\"throughput_unit\": {tp_unit}, "));
        if r.throughput.is_some() && r.ns_per_iter > 0.0 {
            out.push_str(&format!(
                "\"throughput_per_sec\": {:.3}",
                tp_per_iter / (r.ns_per_iter * 1e-9)
            ));
        } else {
            out.push_str("\"throughput_per_sec\": null");
        }
        out.push_str(if i + 1 == results.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A named set of benchmarks sharing throughput settings.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declare per-iteration work for throughput reporting; applies to
    /// subsequently registered benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Accepted for criterion compatibility; the runner picks its own
    /// sample count from the time budget.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Register and immediately run one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().id);
        run_one(self.criterion, &full, self.throughput, &mut f);
        self
    }

    /// Register and immediately run one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.id);
        run_one(self.criterion, &full, self.throughput, &mut |b| f(b, input));
        self
    }

    /// End the group (a criterion-compatibility no-op).
    pub fn finish(&mut self) {}
}

fn run_one(
    c: &mut Criterion,
    name: &str,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher),
) {
    if let Some(filter) = &c.filter {
        if !name.contains(filter.as_str()) {
            return;
        }
    }
    // Calibrate: grow the iteration count until one sample fills the budget.
    let mut iters: u64 = 1;
    let mut measured;
    loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        measured = b.elapsed;
        if measured >= c.sample_time || iters >= 1 << 40 {
            break;
        }
        let growth = if measured.is_zero() {
            16
        } else {
            // Aim straight for the budget with 20% headroom, at least 2×.
            let ratio = c.sample_time.as_secs_f64() / measured.as_secs_f64();
            (ratio * 1.2).ceil().max(2.0) as u64
        };
        iters = iters.saturating_mul(growth);
    }
    // Measure: keep the best (least-noise) sample.
    let mut best = measured;
    for _ in 1..c.samples {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        if b.elapsed < best {
            best = b.elapsed;
        }
    }
    let ns_per_iter = best.as_secs_f64() * 1e9 / iters as f64;
    c.results.push(BenchResult {
        name: name.to_string(),
        ns_per_iter,
        iters,
        throughput,
    });
    let thrpt = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  thrpt: {}/s", si(n as f64 / (ns_per_iter * 1e-9), "elem"))
        }
        Some(Throughput::Bytes(n)) => {
            format!("  thrpt: {}/s", si(n as f64 / (ns_per_iter * 1e-9), "B"))
        }
        None => String::new(),
    };
    println!("{name:<56} time: {:>12}/iter{thrpt}", fmt_ns(ns_per_iter));
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn si(v: f64, unit: &str) -> String {
    if v >= 1e9 {
        format!("{:.2} G{unit}", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2} M{unit}", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2} k{unit}", v / 1e3)
    } else {
        format!("{v:.2} {unit}")
    }
}

/// Define a function running a list of benchmark functions (criterion
/// compatibility).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::harness::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Define `main` running benchmark groups (criterion compatibility), then
/// writing the JSON report to the repository root.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::harness::Criterion::from_args();
            $( $group(&mut c); )+
            c.write_report();
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_formats() {
        let id = BenchmarkId::new("solve", 42);
        assert_eq!(id.id, "solve/42");
    }

    #[test]
    fn formatting_scales() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert!(fmt_ns(4_500.0).contains("µs"));
        assert!(fmt_ns(7.5e6).contains("ms"));
        assert!(si(2.5e9, "elem").starts_with("2.50 G"));
    }

    #[test]
    fn runner_executes_and_filters() {
        let mut c = Criterion {
            filter: Some("keep".into()),
            sample_time: Duration::from_micros(50),
            samples: 1,
            results: Vec::new(),
        };
        let mut ran = 0u32;
        let mut skipped = 0u32;
        {
            let mut g = c.benchmark_group("g");
            g.throughput(Throughput::Elements(10));
            g.bench_function("keep_me", |b| {
                ran += 1;
                b.iter(|| black_box(1 + 1))
            });
            g.bench_function("drop_me", |b| {
                skipped += 1;
                b.iter(|| black_box(0))
            });
            g.finish();
        }
        assert!(ran >= 1, "filtered-in benchmark must run");
        assert_eq!(skipped, 0, "filtered-out benchmark must not run");
    }

    #[test]
    fn bench_names_normalize() {
        assert_eq!(
            normalize_bench_name("bench_sweep-6a0f3c12deadbeef"),
            "sweep"
        );
        assert_eq!(normalize_bench_name("bench_sp"), "sp");
        assert_eq!(normalize_bench_name("bench_thomas-XYZ"), "thomas-XYZ");
        assert_eq!(normalize_bench_name("plain"), "plain");
    }

    #[test]
    fn json_report_renders_and_writes() {
        let mut c = Criterion {
            filter: None,
            sample_time: Duration::from_micros(20),
            samples: 1,
            results: Vec::new(),
        };
        {
            let mut g = c.benchmark_group("grp");
            g.throughput(Throughput::Elements(100));
            g.bench_function("fast", |b| b.iter(|| black_box(2 + 2)));
        }
        assert_eq!(c.results().len(), 1);
        let body = render_report("sweep", c.results());
        assert!(body.contains("\"bench\": \"sweep\""));
        assert!(body.contains("\"name\": \"grp/fast\""));
        assert!(body.contains("\"throughput_unit\": \"elements\""));
        assert!(!body.contains("throughput_per_sec\": null"));

        let path = std::env::temp_dir().join("mp_bench_report_test.json");
        c.write_report_to("sweep", &path);
        let read_back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read_back, body);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("tab\there"), "tab\\u0009here");
    }

    #[test]
    fn empty_report_is_not_written() {
        let c = Criterion::default();
        let path = std::env::temp_dir().join("mp_bench_empty_report_test.json");
        let _ = std::fs::remove_file(&path);
        c.write_report_to("none", &path);
        assert!(!path.exists(), "empty result set must not produce a file");
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut c = Criterion {
            filter: None,
            sample_time: Duration::from_micros(20),
            samples: 1,
            results: Vec::new(),
        };
        let mut g = c.benchmark_group("g");
        g.bench_with_input(BenchmarkId::new("sq", 7), &7u64, |b, &x| {
            b.iter(|| black_box(x * x))
        });
    }
}
