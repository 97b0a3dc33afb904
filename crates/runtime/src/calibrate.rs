//! Host calibration: measure the machine the planner plans for.
//!
//! The §3.1 search and the discrete-event simulator price work with the
//! constants of one [`CostModel`]. This module produces *measured* models:
//!
//! * **K1** — compute time per element. The kernels live in `mp-sweep`
//!   (which depends on this crate), so this crate supplies the timing rule
//!   — the minimum over repetitions, [`measure_min_secs`] — and
//!   `mp-sweep`'s `calibrate_host` times its kernels with it.
//! * **K2 / K3** — a ping-pong over the threaded ring transport across a
//!   range of message sizes, least-squares fitted to the Hockney model
//!   `t(n) = K2 + n·K3` ([`calibrate_transport`], [`fit_linear`]).
//!
//! Models serialize to `calibration.json` through [`mp_trace::json`]
//! ([`profile_to_json`] / [`profile_from_json`]) as four fields: `k1`,
//! `k2`, `k3` and `scaling`. [`load_profile`] implements the lookup
//! precedence *explicit path → `MP_CALIBRATION` → preset*. A calibration
//! file is input from outside the program, so every constant in it must
//! be a finite number ≥ 0.
//!
//! Measured models record [`BandwidthScaling::Fixed`]: the in-process
//! SPSC rings give every rank pair its own lane, so one message costs the
//! same no matter how many ranks run — per-message cost does not shrink
//! with `p` the way the paper's scalable-interconnect footnote assumes.

use crate::comm::Communicator;
use crate::threaded::run_threaded;
use mp_core::cost::{BandwidthScaling, CostModel};
use mp_trace::json::{self, JsonValue};
use std::time::Instant;

/// Environment variable naming a calibration file to load when no
/// explicit `--calibration` path is given (see [`load_profile`]).
pub const CALIBRATION_ENV: &str = "MP_CALIBRATION";

/// Sizing knobs for the calibration microbenchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalibrationOpts {
    /// Timed repetitions per measurement (the minimum is kept — the
    /// repetition least disturbed by the scheduler).
    pub reps: usize,
    /// Untimed warm-up calls before the repetitions.
    pub warmup: usize,
    /// Ping-pong round-trips per timed repetition.
    pub rounds: usize,
    /// Message sizes (elements) the transport fit samples.
    pub sizes: Vec<usize>,
}

impl CalibrationOpts {
    /// Full-accuracy settings (a few seconds of wall clock).
    pub fn full() -> Self {
        CalibrationOpts {
            reps: 7,
            warmup: 3,
            rounds: 200,
            sizes: vec![1, 8, 64, 512, 4096, 16384, 65536],
        }
    }

    /// Bounded settings for CI smoke runs (well under a second).
    pub fn fast() -> Self {
        CalibrationOpts {
            reps: 3,
            warmup: 1,
            rounds: 40,
            sizes: vec![1, 64, 4096, 32768],
        }
    }
}

impl Default for CalibrationOpts {
    /// [`CalibrationOpts::full`].
    fn default() -> Self {
        Self::full()
    }
}

/// Error from parsing or loading a calibration file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalibrationError(pub String);

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "calibration error: {}", self.0)
    }
}

impl std::error::Error for CalibrationError {}

/// Minimum elapsed seconds of `f` over `reps` timed calls (after
/// `warmup` untimed ones). The minimum — not the mean — estimates the
/// undisturbed cost: scheduler noise only ever adds time.
pub fn measure_min_secs(warmup: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Least-squares fit of `y = intercept + slope·x`. Returns
/// `(intercept, slope)`; with fewer than two distinct `x` the slope is 0
/// and the intercept is the mean.
pub fn fit_linear(samples: &[(f64, f64)]) -> (f64, f64) {
    let n = samples.len() as f64;
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let sx: f64 = samples.iter().map(|&(x, _)| x).sum();
    let sy: f64 = samples.iter().map(|&(_, y)| y).sum();
    let sxx: f64 = samples.iter().map(|&(x, _)| x * x).sum();
    let sxy: f64 = samples.iter().map(|&(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON * sxx.max(1.0) {
        return (sy / n, 0.0);
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    (intercept, slope)
}

/// Result of the transport ping-pong: the fitted Hockney pair plus the
/// raw `(elements, one_way_seconds)` samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportFit {
    /// Fitted per-message start-up cost (seconds), clamped positive.
    pub k2: f64,
    /// Fitted per-element transfer cost (seconds), clamped non-negative.
    pub k3: f64,
    /// Measured `(message elements, one-way seconds)` pairs.
    pub samples: Vec<(u64, f64)>,
}

/// Measure K2/K3 with a two-rank ping-pong over the lock-free ring
/// transport: for each size, time `rounds` round-trips (minimum over
/// repetitions), halve to one-way cost, then least-squares fit
/// `t(n) = K2 + n·K3`. Noise can drive the fitted intercept or slope
/// slightly negative on a quiet-enough machine; both are clamped so the
/// resulting model stays physical.
pub fn calibrate_transport(opts: &CalibrationOpts) -> TransportFit {
    let sizes = opts.sizes.clone();
    let (rounds, reps, warmup) = (opts.rounds.max(1), opts.reps, opts.warmup);
    let mut results = run_threaded(2, move |comm| {
        let me = comm.rank();
        let peer = 1 - me;
        let mut samples = Vec::with_capacity(sizes.len());
        for (si, &n) in sizes.iter().enumerate() {
            let tag = 1000 + si as u64;
            comm.barrier();
            if me == 0 {
                let mut buf = vec![0.0f64; n];
                let secs = measure_min_secs(warmup, reps, || {
                    for _ in 0..rounds {
                        let out = std::mem::take(&mut buf);
                        comm.send(peer, tag, out);
                        buf = comm.recv(peer, tag);
                    }
                });
                samples.push((n as u64, secs / (2 * rounds) as f64));
            } else {
                // Echo exactly as many round-trips as rank 0 times.
                for _ in 0..(warmup + reps) {
                    for _ in 0..rounds {
                        let m = comm.recv(peer, tag);
                        comm.send(peer, tag, m);
                    }
                }
            }
        }
        samples
    });
    let samples = std::mem::take(&mut results[0]);
    let pts: Vec<(f64, f64)> = samples.iter().map(|&(n, t)| (n as f64, t)).collect();
    let (intercept, slope) = fit_linear(&pts);
    TransportFit {
        k2: intercept.max(1e-9),
        k3: slope.max(0.0),
        samples,
    }
}

/// Render a model as the `calibration.json` document: `k1`, `k2`, `k3`
/// and `scaling`. Numbers use Rust's shortest round-trip formatting, so
/// [`profile_from_json`]`(`[`profile_to_json`]`(m))` reproduces every
/// `f64` bit-exactly.
pub fn profile_to_json(m: &CostModel) -> String {
    let scaling = match m.scaling {
        BandwidthScaling::Scalable => "scalable",
        BandwidthScaling::Fixed => "fixed",
    };
    format!(
        "{{\n  \"k1\": {},\n  \"k2\": {},\n  \"k3\": {},\n  \"scaling\": \"{scaling}\"\n}}\n",
        m.k1, m.k2, m.k3
    )
}

/// A machine constant: a finite number ≥ 0 (zero is legal — the measured
/// K3 is clamped to it, and two presets use it).
fn constant(key: &str, value: Option<&JsonValue>) -> Result<f64, CalibrationError> {
    match value.and_then(JsonValue::as_f64) {
        Some(x) if x.is_finite() && x >= 0.0 => Ok(x),
        Some(x) => Err(CalibrationError(format!(
            "field `{key}` is {x}; expected a finite number ≥ 0"
        ))),
        None => Err(CalibrationError(format!(
            "missing or non-numeric field `{key}`"
        ))),
    }
}

/// Parse a document written by [`profile_to_json`].
///
/// Older files carry `k1` as an object of per-kernel entries keyed
/// `"<kernel>@<simd>"` plus a `"default"` entry, and may carry
/// `provenance` and `k4` fields. Such an object reads as its `"default"`
/// entry, the K1 every older file planned with; the other entries and
/// fields are ignored.
pub fn profile_from_json(text: &str) -> Result<CostModel, CalibrationError> {
    let doc = json::parse(text).map_err(|e| CalibrationError(e.to_string()))?;
    let scaling = match doc.get("scaling").and_then(|v| v.as_str()) {
        Some("scalable") => BandwidthScaling::Scalable,
        Some("fixed") => BandwidthScaling::Fixed,
        other => {
            return Err(CalibrationError(format!(
                "bad scaling {other:?} (expected scalable|fixed)"
            )))
        }
    };
    let k1 = match doc.get("k1") {
        Some(JsonValue::Object(entries)) => Some(
            entries
                .get("default")
                .ok_or_else(|| CalibrationError("`k1` object has no `default` entry".into()))?,
        ),
        value => value,
    };
    Ok(CostModel {
        k1: constant("k1", k1)?,
        k2: constant("k2", doc.get("k2"))?,
        k3: constant("k3", doc.get("k3"))?,
        scaling,
    })
}

/// Write `calibration.json` to `path`.
pub fn write_profile(path: &str, m: &CostModel) -> std::io::Result<()> {
    std::fs::write(path, profile_to_json(m))
}

/// Read a calibration file.
pub fn read_profile(path: &str) -> Result<CostModel, CalibrationError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CalibrationError(format!("cannot read {path}: {e}")))?;
    profile_from_json(&text)
}

/// Resolve the model in force with the documented precedence:
/// an explicit path (CLI `--calibration`) wins, else a path in
/// [`CALIBRATION_ENV`], else the [`CostModel::origin2000_like`] preset.
/// Returns the model plus a human-readable source description. A named
/// file that fails to load is an error (never silently falls back).
pub fn load_profile(explicit: Option<&str>) -> Result<(CostModel, String), CalibrationError> {
    if let Some(path) = explicit {
        return Ok((read_profile(path)?, format!("calibration file {path}")));
    }
    if let Ok(path) = std::env::var(CALIBRATION_ENV) {
        let path = path.trim().to_string();
        if !path.is_empty() {
            return Ok((
                read_profile(&path)?,
                format!("{CALIBRATION_ENV} file {path}"),
            ));
        }
    }
    Ok((
        CostModel::origin2000_like(),
        "preset origin2000_like".to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_exact_line() {
        let samples: Vec<(f64, f64)> = [1.0, 8.0, 64.0, 512.0]
            .iter()
            .map(|&n| (n, 2.5e-6 + n * 3.0e-9))
            .collect();
        let (a, b) = fit_linear(&samples);
        assert!((a - 2.5e-6).abs() < 1e-15);
        assert!((b - 3.0e-9).abs() < 1e-18);
    }

    #[test]
    fn linear_fit_degenerate_inputs() {
        assert_eq!(fit_linear(&[]), (0.0, 0.0));
        let (a, b) = fit_linear(&[(4.0, 7.0), (4.0, 9.0)]);
        assert_eq!(b, 0.0);
        assert!((a - 8.0).abs() < 1e-12);
    }

    #[test]
    fn measure_min_is_positive() {
        let mut n = 0u64;
        let secs = measure_min_secs(1, 3, || {
            n = std::hint::black_box(n + 1);
        });
        assert!(secs >= 0.0);
        assert_eq!(n, 4); // 1 warmup + 3 reps
    }

    #[test]
    fn json_round_trip_is_exact() {
        let model = CostModel {
            k1: 1.25e-9,
            k2: 3.141592653589793e-6,
            k3: 0.1234567890123456e-9,
            scaling: BandwidthScaling::Fixed,
        };
        let text = profile_to_json(&model);
        let back = profile_from_json(&text).unwrap();
        assert_eq!(back, model);
        // Second generation is stable.
        assert_eq!(profile_to_json(&back), text);
    }

    #[test]
    fn older_calibration_files_still_load() {
        // An older file: provenance, a "k4" field, and a K1 object of
        // per-kernel and "+strided" entries beside its "default".
        let older = r#"{
  "provenance": "measured",
  "k2": 1.34e-6,
  "k3": 0,
  "k4": 5.07e-9,
  "scaling": "fixed",
  "k1": {
    "default": 3.1e-9,
    "first_order@avx2": 5.07e-10,
    "first_order@avx2+strided": 6.29e-10,
    "thomas_forward@avx2": 2.25e-9,
    "thomas_forward@avx2+strided": 2.5e-9
  }
}"#;
        let model = profile_from_json(older).unwrap();
        assert_eq!(model.k1, 3.1e-9);
        assert_eq!((model.k2, model.k3), (1.34e-6, 0.0));
        assert_eq!(model.scaling, BandwidthScaling::Fixed);
        // Written back, the model carries neither K4 nor a provenance.
        let written = profile_to_json(&model);
        assert!(!written.contains("k4"), "{written}");
        assert!(!written.contains("provenance"), "{written}");
    }

    #[test]
    fn json_rejects_malformed_documents() {
        assert!(profile_from_json("not json").is_err());
        assert!(profile_from_json("{}").is_err());
        let no_scaling = r#"{"k1":1,"k2":1,"k3":1}"#;
        assert!(profile_from_json(no_scaling).is_err());
        let no_default = r#"{"k1":{"thomas_forward@avx2":1e-9},"k2":1,"k3":1,"scaling":"fixed"}"#;
        let err = profile_from_json(no_default).unwrap_err();
        assert!(err.to_string().contains("default"), "{err}");
        // Every constant must be a finite number ≥ 0, in the current
        // format and in the older one (K1 as an object); the error names
        // the field.
        for key in ["k1", "k2", "k3"] {
            for bad in ["-1e-3", "1e999"] {
                let value = |k: &str| if k == key { bad } else { "1e-6" };
                let doc = format!(
                    r#"{{"k1":{},"k2":{},"k3":{},"scaling":"fixed"}}"#,
                    value("k1"),
                    value("k2"),
                    value("k3")
                );
                let err = profile_from_json(&doc).unwrap_err().to_string();
                assert!(err.contains(&format!("`{key}`")), "{doc}: {err}");
                let older = format!(
                    r#"{{"provenance":"measured","k1":{{"default":{}}},"k2":{},"k3":{},"scaling":"fixed"}}"#,
                    value("k1"),
                    value("k2"),
                    value("k3")
                );
                let err = profile_from_json(&older).unwrap_err().to_string();
                assert!(err.contains(&format!("`{key}`")), "{older}: {err}");
            }
        }
        // Zero stays legal.
        let zeros = r#"{"k1":0,"k2":0,"k3":0,"scaling":"fixed"}"#;
        assert_eq!(profile_from_json(zeros).unwrap().k3, 0.0);
    }

    #[test]
    fn file_round_trip() {
        let path = std::env::temp_dir().join(format!("mp_calib_test_{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let model = CostModel::sp_origin2000();
        write_profile(&path, &model).unwrap();
        assert_eq!(read_profile(&path).unwrap(), model);
        let (loaded, source) = load_profile(Some(&path)).unwrap();
        assert_eq!(loaded, model);
        assert!(source.contains(&path));
        std::fs::remove_file(&path).ok();
        assert!(read_profile(&path).is_err());
    }

    #[test]
    fn load_profile_defaults_to_preset() {
        // No explicit path and (assumed) no MP_CALIBRATION in the test
        // environment → the preset.
        if std::env::var(CALIBRATION_ENV).is_ok() {
            return; // environment pinned externally; nothing to assert
        }
        let (model, source) = load_profile(None).unwrap();
        assert_eq!(model, CostModel::origin2000_like());
        assert!(source.contains("preset"));
    }

    #[test]
    fn transport_ping_pong_fits_hockney() {
        let fit = calibrate_transport(&CalibrationOpts {
            reps: 2,
            warmup: 1,
            rounds: 10,
            sizes: vec![1, 64, 1024],
        });
        assert_eq!(fit.samples.len(), 3);
        assert!(fit.k2 > 0.0);
        assert!(fit.k3 >= 0.0);
        // One-way times are sane: positive, and the biggest message is not
        // cheaper than the fitted latency floor.
        for &(_, t) in &fit.samples {
            assert!(t > 0.0);
        }
    }
}
