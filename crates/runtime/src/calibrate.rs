//! Host calibration: measure the machine the planner plans for.
//!
//! The §3.1 search and the discrete-event simulator price work with the
//! constants of a [`MachineProfile`]. This module
//! produces *measured* profiles:
//!
//! * **K1** — per-kernel compute time per element. The kernels live in
//!   `mp-sweep` (which depends on this crate), so the harness is generic:
//!   a [`Calibrator`] accepts named closures and times them with a
//!   min-of-repetitions rule ([`measure_min_secs`]); `mp-sweep`'s
//!   `calibrate` module registers its `sweep_lanes` kernels.
//! * **K2 / K3** — a ping-pong over the threaded ring transport across a
//!   range of message sizes, least-squares fitted to the Hockney model
//!   `t(n) = K2 + n·K3` ([`calibrate_transport`], [`fit_linear`]).
//!
//! Profiles serialize to `calibration.json` through [`mp_trace::json`]
//! ([`profile_to_json`] / [`profile_from_json`]); [`load_profile`]
//! implements the lookup precedence *explicit path →
//! `MP_CALIBRATION` → preset*.
//!
//! Measured profiles record [`BandwidthScaling::Fixed`]: the in-process
//! SPSC rings give every rank pair its own lane, so one message costs the
//! same no matter how many ranks run — per-message cost does not shrink
//! with `p` the way the paper's scalable-interconnect footnote assumes.

use crate::comm::Communicator;
use crate::threaded::run_threaded;
use mp_core::cost::BandwidthScaling;
use mp_core::machine::{MachineProfile, Provenance, K1_DEFAULT};
use mp_trace::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
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

/// Accumulates per-kernel K1 measurements into a measured
/// [`MachineProfile`]. Kernel registration happens upstream (`mp-sweep`'s
/// `calibrate::calibrate_host`) because the kernels live above this crate in
/// the dependency graph.
#[derive(Debug)]
pub struct Calibrator {
    opts: CalibrationOpts,
    k1: BTreeMap<String, f64>,
}

impl Calibrator {
    /// A calibrator with the given sizing knobs.
    pub fn new(opts: CalibrationOpts) -> Self {
        Calibrator {
            opts,
            k1: BTreeMap::new(),
        }
    }

    /// The sizing knobs in force.
    pub fn opts(&self) -> &CalibrationOpts {
        &self.opts
    }

    /// Time one call of `f` (which must sweep `elements_per_call`
    /// elements), record `seconds/element` under `key`, and return it.
    pub fn measure_kernel(&mut self, key: &str, elements_per_call: u64, f: impl FnMut()) -> f64 {
        assert!(elements_per_call > 0, "kernel benchmark sweeps no elements");
        let secs = measure_min_secs(self.opts.warmup, self.opts.reps, f);
        let per_elem = (secs / elements_per_call as f64).max(1e-12);
        self.k1.insert(key.to_string(), per_elem);
        per_elem
    }

    /// Set the [`K1_DEFAULT`] entry to the mean of the named entries
    /// (missing names are skipped; no-op if none exist yet).
    pub fn set_default_from(&mut self, keys: &[&str]) {
        let vals: Vec<f64> = keys
            .iter()
            .filter_map(|k| self.k1.get(*k).copied())
            .collect();
        if !vals.is_empty() {
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            self.k1.insert(K1_DEFAULT.to_string(), mean);
        }
    }

    /// Run the transport ping-pong and assemble the measured profile.
    pub fn finish_with_transport(self) -> (MachineProfile, TransportFit) {
        let fit = calibrate_transport(&self.opts);
        let profile = self.finish(fit.k2, fit.k3);
        (profile, fit)
    }

    /// Assemble the measured profile from the recorded kernels and an
    /// externally fitted Hockney pair.
    pub fn finish(mut self, k2: f64, k3: f64) -> MachineProfile {
        if !self.k1.contains_key(K1_DEFAULT) {
            let keys: Vec<String> = self.k1.keys().cloned().collect();
            let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
            self.set_default_from(&refs);
        }
        MachineProfile {
            k1: self.k1,
            k2,
            k3,
            scaling: BandwidthScaling::Fixed,
            provenance: Provenance::Measured,
        }
    }
}

/// Render a profile as the `calibration.json` document. Numbers use
/// Rust's shortest round-trip formatting, so
/// [`profile_from_json`]`(`[`profile_to_json`]`(p))` reproduces every
/// `f64` bit-exactly.
pub fn profile_to_json(p: &MachineProfile) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\n  \"provenance\": ");
    json::escape_into(&mut out, p.provenance.name());
    let _ = write!(
        out,
        ",\n  \"k2\": {},\n  \"k3\": {},\n  \"scaling\": ",
        p.k2, p.k3
    );
    json::escape_into(
        &mut out,
        match p.scaling {
            BandwidthScaling::Scalable => "scalable",
            BandwidthScaling::Fixed => "fixed",
        },
    );
    out.push_str(",\n  \"k1\": {");
    for (i, (k, v)) in p.k1.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        json::escape_into(&mut out, k);
        let _ = write!(out, ": {v}");
    }
    out.push_str("\n  }\n}\n");
    out
}

fn field_f64(doc: &JsonValue, key: &str) -> Result<f64, CalibrationError> {
    doc.get(key)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| CalibrationError(format!("missing or non-numeric field `{key}`")))
}

/// Parse a document written by [`profile_to_json`].
///
/// Older files may also carry a `"k4"` field and
/// `"<kernel>@<simd>+strided"` K1 entries. The field is ignored; the
/// entries are kept as ordinary K1 entries that no kernel looks up (the
/// `"default"` entry every written profile has is what the cost model
/// uses), so K1/K2/K3 read back unchanged for every key.
pub fn profile_from_json(text: &str) -> Result<MachineProfile, CalibrationError> {
    let doc = json::parse(text).map_err(|e| CalibrationError(e.to_string()))?;
    let provenance = match doc.get("provenance").and_then(|v| v.as_str()) {
        Some("measured") => Provenance::Measured,
        Some("preset") => Provenance::Preset,
        Some("file") => Provenance::File,
        other => {
            return Err(CalibrationError(format!(
                "bad provenance {other:?} (expected measured|preset|file)"
            )))
        }
    };
    let scaling = match doc.get("scaling").and_then(|v| v.as_str()) {
        Some("scalable") => BandwidthScaling::Scalable,
        Some("fixed") => BandwidthScaling::Fixed,
        other => {
            return Err(CalibrationError(format!(
                "bad scaling {other:?} (expected scalable|fixed)"
            )))
        }
    };
    let k2 = field_f64(&doc, "k2")?;
    let k3 = field_f64(&doc, "k3")?;
    let mut k1 = BTreeMap::new();
    match doc.get("k1") {
        Some(JsonValue::Object(map)) => {
            for (k, v) in map {
                let x = v
                    .as_f64()
                    .ok_or_else(|| CalibrationError(format!("non-numeric k1 entry `{k}`")))?;
                k1.insert(k.clone(), x);
            }
        }
        _ => return Err(CalibrationError("missing k1 object".into())),
    }
    Ok(MachineProfile {
        k1,
        k2,
        k3,
        scaling,
        provenance,
    })
}

/// Write `calibration.json` to `path`.
pub fn write_profile(path: &str, p: &MachineProfile) -> std::io::Result<()> {
    std::fs::write(path, profile_to_json(p))
}

/// Read a calibration file; the result is stamped
/// [`Provenance::File`] regardless of what the file recorded, so reports
/// can say where the constants in force actually came from.
pub fn read_profile(path: &str) -> Result<MachineProfile, CalibrationError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CalibrationError(format!("cannot read {path}: {e}")))?;
    Ok(profile_from_json(&text)?.with_provenance(Provenance::File))
}

/// Resolve the profile in force with the documented precedence:
/// an explicit path (CLI `--calibration`) wins, else a path in
/// [`CALIBRATION_ENV`], else the
/// [`MachineProfile::origin2000_like`] preset. Returns the profile plus a
/// human-readable source description. A named file that fails to load is
/// an error (never silently falls back).
pub fn load_profile(explicit: Option<&str>) -> Result<(MachineProfile, String), CalibrationError> {
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
        MachineProfile::origin2000_like(),
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
        let mut prof = MachineProfile::sp_origin2000().with_provenance(Provenance::Measured);
        prof.k1.insert("thomas_forward@avx2".into(), 1.25e-9);
        prof.k1.insert("penta_backward@scalar".into(), 7.73e-9);
        prof.k2 = 3.141592653589793e-6;
        prof.k3 = 0.1234567890123456e-9;
        let text = profile_to_json(&prof);
        let back = profile_from_json(&text).unwrap();
        assert_eq!(back, prof);
        // Second generation is stable.
        assert_eq!(profile_to_json(&back), text);
    }

    #[test]
    fn older_calibration_files_still_load() {
        // An older file: a "k4" field and "+strided" K1 entries.
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
        let prof = profile_from_json(older).unwrap();
        assert_eq!((prof.k2, prof.k3), (1.34e-6, 0.0));
        assert_eq!(prof.k1_default(), 3.1e-9);
        assert_eq!(prof.k1_for("first_order@avx2"), 5.07e-10);
        assert_eq!(prof.k1_for("thomas_forward@avx2"), 2.25e-9);
        assert_eq!(prof.k1.len(), 5, "strided entries are kept");
        // Written back, the profile carries no K4.
        assert!(!profile_to_json(&prof).contains("k4"));
    }

    #[test]
    fn json_rejects_malformed_documents() {
        assert!(profile_from_json("not json").is_err());
        assert!(profile_from_json("{}").is_err());
        let no_scaling = r#"{"provenance":"preset","k2":1,"k3":1,"k1":{"default":1}}"#;
        assert!(profile_from_json(no_scaling).is_err());
        let bad_prov =
            r#"{"provenance":"guessed","k2":1,"k3":1,"scaling":"fixed","k1":{"default":1}}"#;
        let err = profile_from_json(bad_prov).unwrap_err();
        assert!(err.to_string().contains("provenance"));
    }

    #[test]
    fn file_round_trip_and_provenance_stamp() {
        let path = std::env::temp_dir().join(format!("mp_calib_test_{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let prof = MachineProfile::origin2000_like().with_provenance(Provenance::Measured);
        write_profile(&path, &prof).unwrap();
        let back = read_profile(&path).unwrap();
        // Reading from disk stamps File provenance; everything else exact.
        assert_eq!(back.provenance, Provenance::File);
        assert_eq!(back.k1, prof.k1);
        assert_eq!(back.k2, prof.k2);
        let (loaded, source) = load_profile(Some(&path)).unwrap();
        assert_eq!(loaded, back);
        assert!(source.contains(&path));
        std::fs::remove_file(&path).ok();
        assert!(read_profile(&path).is_err());
    }

    #[test]
    fn load_profile_defaults_to_preset() {
        // No explicit path and (assumed) no MP_CALIBRATION in the test
        // environment → the preset with Preset provenance.
        if std::env::var(CALIBRATION_ENV).is_ok() {
            return; // environment pinned externally; nothing to assert
        }
        let (prof, source) = load_profile(None).unwrap();
        assert_eq!(prof, MachineProfile::origin2000_like());
        assert!(source.contains("preset"));
    }

    #[test]
    fn calibrator_records_kernels_and_defaults() {
        let mut c = Calibrator::new(CalibrationOpts::fast());
        let v = c.measure_kernel("k_a", 1_000_000, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(v > 0.0);
        c.measure_kernel("k_b", 1_000_000, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        let prof = c.finish(2.0e-6, 1.0e-9);
        assert_eq!(prof.provenance, Provenance::Measured);
        assert_eq!(prof.scaling, BandwidthScaling::Fixed);
        assert!(prof.k1.contains_key(K1_DEFAULT));
        let mean = (prof.k1["k_a"] + prof.k1["k_b"]) / 2.0;
        assert!((prof.k1_default() - mean).abs() <= 1e-18);
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
