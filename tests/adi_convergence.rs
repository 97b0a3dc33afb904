//! Numerical validation of the ADI machinery beyond structure: on the 3-D
//! heat equation with a product-of-sines initial condition, the exact
//! solution decays as `exp(−3π²t)`; the ADI scheme built from this
//! library's sweep kernels must reproduce that decay rate, with the error
//! shrinking as the time step is refined — i.e. the solvers are not just
//! bit-stable but *numerically correct*.

use multipartition::core::multipart::Direction;
use multipartition::prelude::*;
use multipartition::sweep::thomas::{ThomasBackwardKernel, ThomasForwardKernel};
use multipartition::sweep::verify::serial_sweep;

/// One backward-Euler ADI step (Lie splitting): solve
/// `(I − dt·D_k) u = u` for each dimension in turn.
fn adi_step(u: &mut ArrayD<f64>, n: usize, dt: f64) {
    let eta = [n, n, n];
    let h = 1.0 / (n as f64 + 1.0);
    let lam = dt / (h * h);
    for dim in 0..3 {
        let mut a = ArrayD::from_fn(&eta, |g| if g[dim] == 0 { 0.0 } else { -lam });
        let mut b = ArrayD::from_fn(&eta, |_| 1.0 + 2.0 * lam);
        let mut c = ArrayD::from_fn(&eta, |g| if g[dim] == n - 1 { 0.0 } else { -lam });
        let fwd = ThomasForwardKernel::new(0, 1, 2, 3);
        serial_sweep(
            &mut [&mut a, &mut b, &mut c, u],
            dim,
            Direction::Forward,
            &fwd,
        );
        let bwd = ThomasBackwardKernel::new(0, 1);
        serial_sweep(&mut [&mut c, u], dim, Direction::Backward, &bwd);
    }
}

/// Run to time `t_end` with the given dt; return the ratio of the computed
/// to the exact peak amplitude.
fn amplitude_ratio(n: usize, dt: f64, t_end: f64) -> f64 {
    let pi = std::f64::consts::PI;
    let mut u = ArrayD::from_fn(&[n, n, n], |g| {
        let x = (g[0] as f64 + 1.0) / (n as f64 + 1.0);
        let y = (g[1] as f64 + 1.0) / (n as f64 + 1.0);
        let z = (g[2] as f64 + 1.0) / (n as f64 + 1.0);
        (pi * x).sin() * (pi * y).sin() * (pi * z).sin()
    });
    let steps = (t_end / dt).round() as usize;
    for _ in 0..steps {
        adi_step(&mut u, n, dt);
    }
    // The mode shape is preserved; compare the center amplitude.
    let mid = n / 2;
    let x = (mid as f64 + 1.0) / (n as f64 + 1.0);
    let mode = (pi * x).sin().powi(3);
    let exact = mode * (-3.0 * pi * pi * t_end).exp();
    u.get(&[mid, mid, mid]) / exact
}

#[test]
fn adi_decay_matches_analytic_rate() {
    // dt = 1e-3 for t_end = 0.02: the computed amplitude must be within a
    // few percent of exp(−3π²t) (spatial discretization at n=31 is already
    // accurate; splitting+backward-Euler error is O(dt)).
    let ratio = amplitude_ratio(31, 1e-3, 0.02);
    assert!(
        (ratio - 1.0).abs() < 0.05,
        "amplitude ratio {ratio} too far from 1"
    );
}

#[test]
fn adi_error_shrinks_with_dt() {
    // First-order in dt: halving dt should roughly halve the error.
    let e1 = (amplitude_ratio(31, 2e-3, 0.02) - 1.0).abs();
    let e2 = (amplitude_ratio(31, 1e-3, 0.02) - 1.0).abs();
    assert!(e2 < 0.75 * e1, "error did not shrink with dt: {e1} → {e2}");
    let order = (e1 / e2).log2();
    assert!(
        (0.5..2.5).contains(&order),
        "convergence order {order} implausible"
    );
}

/// The largest of `values` and 0, or NaN if any value is NaN: `f64::max`
/// drops a NaN, so a step that produced one would read as perfectly damped.
fn max_or_nan(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |m: f64, v| {
        if m.is_nan() || v.is_nan() {
            f64::NAN
        } else {
            m.max(v)
        }
    })
}

#[test]
fn adi_is_unconditionally_stable() {
    // Implicit ADI must remain bounded (no mode amplification) even at a
    // large dt where an explicit scheme (stability limit dt < h²/6 ≈ 1.7e-4
    // at n = 31) would explode. Backward Euler *under*-decays at coarse dt,
    // so we check the solution magnitude directly, not the ratio to exact.
    let pi = std::f64::consts::PI;
    let n = 31usize;
    let mut u = ArrayD::from_fn(&[n, n, n], |g| {
        let s = |k: usize| (pi * (g[k] as f64 + 1.0) / (n as f64 + 1.0)).sin();
        s(0) * s(1) * s(2)
    });
    let initial_max = max_or_nan(u.as_slice().iter().copied());
    for _ in 0..10 {
        adi_step(&mut u, n, 5e-2); // ~300× past the explicit limit
    }
    let final_max = max_or_nan(u.as_slice().iter().map(|v| v.abs()));
    assert!(final_max.is_finite());
    assert!(
        final_max < initial_max,
        "implicit scheme must strictly damp: {initial_max} → {final_max}"
    );
}
