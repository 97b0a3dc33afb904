//! The machine description behind every cost estimate.
//!
//! A [`MachineProfile`] is the single source of truth for the §3.1
//! constants: per-kernel `K1` (seconds of compute per element per sweep),
//! the Hockney message parameters `K2` (start-up) and `K3` (per-element
//! transfer at `p = 1`), and the bandwidth [`BandwidthScaling`] regime.
//! Everything that prices work — the partition search
//! ([`crate::cost::CostModel`]), the discrete-event simulator
//! (`mp-runtime`'s `SimNet`), and the executor auto-tuner (`mp-sweep`'s
//! `tune` module) — derives its constants from one profile, so the three
//! can no longer drift apart.
//!
//! Profiles come from three places, recorded in [`Provenance`]:
//!
//! * [`Provenance::Preset`] — the hand-written machines below (e.g.
//!   [`MachineProfile::origin2000_like`], matching the paper's 2002-era
//!   SGI Origin 2000);
//! * [`Provenance::Measured`] — microbenchmarks run on the host
//!   (`mp-runtime`'s `calibrate` module, `mpart calibrate`);
//! * [`Provenance::File`] — a `calibration.json` loaded from disk
//!   (`--calibration`, `MP_CALIBRATION`).
//!
//! `K1` is a *map* rather than a scalar because the hot kernels differ:
//! a pentadiagonal forward elimination does several times the arithmetic
//! of a prefix sum, and the SIMD level changes the constant again. The
//! map is keyed `"<kernel>@<simd>"` (e.g. `"thomas_forward@avx2"`) plus
//! the required [`K1_DEFAULT`] entry that scalar consumers
//! ([`CostModel`]) fall back to.

use crate::cost::{BandwidthScaling, CostModel};
use std::collections::BTreeMap;

/// Where a [`MachineProfile`]'s constants came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Measured on this host by the calibration microbenchmarks.
    Measured,
    /// A hand-written preset (e.g. [`MachineProfile::origin2000_like`]).
    Preset,
    /// Loaded from a calibration file.
    File,
}

impl Provenance {
    /// Stable lower-case name (the `provenance` field of
    /// `calibration.json`).
    pub fn name(&self) -> &'static str {
        match self {
            Provenance::Measured => "measured",
            Provenance::Preset => "preset",
            Provenance::File => "file",
        }
    }
}

/// Key of the fallback `K1` entry every profile carries.
pub const K1_DEFAULT: &str = "default";

/// A calibrated (or preset) machine description: per-kernel `K1`, the
/// Hockney pair `K2`/`K3`, the bandwidth scaling regime, and where the
/// numbers came from.
///
/// ```
/// use mp_core::machine::MachineProfile;
/// let prof = MachineProfile::origin2000_like();
/// let model = prof.cost_model(); // the §3.1 CostModel, same constants
/// assert_eq!(model.k1, prof.k1_default());
/// assert_eq!(model.k2, prof.k2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// Seconds of compute per element per sweep, per kernel. Keys are
    /// `"<kernel>@<simd>"` plus the [`K1_DEFAULT`] fallback entry
    /// (sorted map so serialization is deterministic).
    pub k1: BTreeMap<String, f64>,
    /// Per-message start-up cost in seconds (the paper's K2 / Hockney α).
    pub k2: f64,
    /// Per-element transfer time at the reference point `p = 1`
    /// (the paper's K3 / Hockney β, in seconds).
    pub k3: f64,
    /// How aggregate bandwidth scales with processor count
    /// (footnote 1 of the paper).
    pub scaling: BandwidthScaling,
    /// Where these constants came from.
    pub provenance: Provenance,
}

impl MachineProfile {
    /// A profile with a single (default) `K1` entry.
    pub fn uniform(k1: f64, k2: f64, k3: f64, scaling: BandwidthScaling) -> Self {
        let mut map = BTreeMap::new();
        map.insert(K1_DEFAULT.to_string(), k1);
        MachineProfile {
            k1: map,
            k2,
            k3,
            scaling,
            provenance: Provenance::Preset,
        }
    }

    /// A machine resembling a c. 2002 SGI Origin 2000: ~10 µs message
    /// start-up, ~100 MB/s per-link bandwidth on 8-byte elements, and
    /// ~100 Mflop/s per-CPU sustained compute with a handful of flops per
    /// element per sweep. This is the preset behind
    /// [`CostModel::origin2000_like`].
    pub fn origin2000_like() -> Self {
        Self::uniform(
            5.0e-8, // 50 ns/element/sweep ≈ a few flops at 10⁸ flop/s
            1.0e-5, // 10 µs start-up
            8.0e-8, // 80 ns/element ≈ 100 MB/s on f64
            BandwidthScaling::Scalable,
        )
    }

    /// A latency-dominated machine: phases are what you pay for. With
    /// `k3 = 0` the search objective degenerates to `Σ γ_i` (the paper's
    /// first simplified form).
    pub fn latency_dominated() -> Self {
        Self::uniform(5.0e-8, 1.0e-4, 0.0, BandwidthScaling::Fixed)
    }

    /// A bandwidth-dominated machine: with `k2 = 0` the objective
    /// degenerates to `Σ γ_i/η_i` (the paper's second simplified form),
    /// which favours cutting *large* dimensions into more pieces.
    pub fn bandwidth_dominated() -> Self {
        Self::uniform(5.0e-8, 0.0, 8.0e-8, BandwidthScaling::Fixed)
    }

    /// The profile calibrated for the NAS SP reproduction.
    ///
    /// Identical to [`MachineProfile::origin2000_like`] except for a larger
    /// per-message overhead `K2 = 150 µs`: in the real SP each
    /// communication phase pays not just MPI latency but also
    /// packing/unpacking of five-component boundary hyperplanes and the
    /// synchronization stall of the slowest rank — an effective per-phase
    /// fixed cost that sits in the 100 µs range on a c. 2002 machine. This
    /// constant is what lets the phase-count differences between
    /// partitionings (e.g. 5×10×10's 22 phases vs 7×7×7's 18) matter
    /// relative to compute, as they visibly do in the paper's Table 1.
    pub fn sp_origin2000() -> Self {
        MachineProfile {
            k2: 1.5e-4,
            ..Self::origin2000_like()
        }
    }

    /// Same profile with a different [`Provenance`] stamp (chainable).
    pub fn with_provenance(mut self, provenance: Provenance) -> Self {
        self.provenance = provenance;
        self
    }

    /// The fallback `K1`: the [`K1_DEFAULT`] entry if present, else the
    /// mean of all kernel entries, else the Origin-2000-like constant
    /// (empty profiles should not occur, but a total function keeps every
    /// consumer panic-free).
    pub fn k1_default(&self) -> f64 {
        if let Some(&v) = self.k1.get(K1_DEFAULT) {
            return v;
        }
        if self.k1.is_empty() {
            return 5.0e-8;
        }
        self.k1.values().sum::<f64>() / self.k1.len() as f64
    }

    /// `K1` for a specific kernel key (e.g. `"thomas_forward@avx2"`),
    /// falling back to [`MachineProfile::k1_default`] for unknown keys.
    pub fn k1_for(&self, kernel: &str) -> f64 {
        self.k1
            .get(kernel)
            .copied()
            .unwrap_or_else(|| self.k1_default())
    }

    /// The §3.1 [`CostModel`] with this profile's constants (`K1` is the
    /// [`MachineProfile::k1_default`] scalar).
    pub fn cost_model(&self) -> CostModel {
        CostModel {
            k1: self.k1_default(),
            k2: self.k2,
            k3: self.k3,
            scaling: self.scaling,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_cost_model_presets() {
        assert_eq!(
            MachineProfile::origin2000_like().cost_model(),
            CostModel::origin2000_like()
        );
        assert_eq!(
            MachineProfile::latency_dominated().cost_model(),
            CostModel::latency_dominated()
        );
        assert_eq!(
            MachineProfile::bandwidth_dominated().cost_model(),
            CostModel::bandwidth_dominated()
        );
    }

    #[test]
    fn sp_preset_only_raises_k2() {
        let base = MachineProfile::origin2000_like();
        let sp = MachineProfile::sp_origin2000();
        assert_eq!(sp.k2, 1.5e-4);
        assert_eq!(sp.k1, base.k1);
        assert_eq!(sp.k3, base.k3);
        assert_eq!(sp.scaling, base.scaling);
    }

    #[test]
    fn k1_lookup_falls_back() {
        let mut prof = MachineProfile::origin2000_like();
        prof.k1.insert("thomas_forward@avx2".into(), 1.0e-9);
        assert_eq!(prof.k1_for("thomas_forward@avx2"), 1.0e-9);
        assert_eq!(prof.k1_for("unknown_kernel"), prof.k1_default());
    }

    #[test]
    fn k1_default_without_entry_is_mean() {
        let mut prof = MachineProfile::origin2000_like();
        prof.k1.clear();
        prof.k1.insert("a".into(), 2.0e-9);
        prof.k1.insert("b".into(), 4.0e-9);
        assert!((prof.k1_default() - 3.0e-9).abs() < 1e-20);
        prof.k1.clear();
        assert_eq!(prof.k1_default(), 5.0e-8); // total even when empty
    }

    #[test]
    fn provenance_names_are_stable() {
        assert_eq!(Provenance::Measured.name(), "measured");
        assert_eq!(Provenance::Preset.name(), "preset");
        assert_eq!(Provenance::File.name(), "file");
        let stamped = MachineProfile::origin2000_like().with_provenance(Provenance::File);
        assert_eq!(stamped.provenance, Provenance::File);
    }
}
