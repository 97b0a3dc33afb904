//! ADI heat-equation solver over a multipartitioned 3-D domain, run on the
//! threaded backend and verified against a serial reference.
//!
//! This is the paper's motivating computation (§1): alternating-direction
//! implicit integration = one tridiagonal solve per grid line per dimension
//! per time step, i.e. a forward and a backward line sweep along every
//! dimension — exactly the pattern multipartitioning keeps load-balanced.
//!
//! ```text
//! cargo run --release --example adi_heat -- [p] [n] [steps]
//! ```

use multipartition::core::multipart::Direction;
use multipartition::prelude::*;
use multipartition::sweep::thomas::{ThomasBackwardKernel, ThomasForwardKernel};
use multipartition::sweep::verify::serial_sweep;

/// Fields: 0 = u (temperature), 1..=3 = tridiagonal a/b/c, 4 = rhs.
const U: usize = 0;
const A: usize = 1;
const B: usize = 2;
const C: usize = 3;
const RHS: usize = 4;

struct Adi {
    n: usize,
    dt: f64,
}

impl Adi {
    fn lambda(&self) -> f64 {
        let h = 1.0 / (self.n as f64 + 1.0);
        0.5 * self.dt / (h * h)
    }

    fn coefficients(&self, g: &[usize], dim: usize) -> (f64, f64, f64) {
        let lam = self.lambda();
        let a = if g[dim] == 0 { 0.0 } else { -lam };
        let c = if g[dim] == self.n - 1 { 0.0 } else { -lam };
        (a, 1.0 + 2.0 * lam, c)
    }

    fn initial(&self, g: &[usize]) -> f64 {
        // hot cube in the center
        let third = self.n / 3;
        if g.iter().all(|&x| x >= third && x < 2 * third) {
            1.0
        } else {
            0.0
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let p: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(24);
    let steps: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(5);
    let adi = Adi { n, dt: 0.0005 };
    let eta = [n, n, n];

    println!("ADI heat equation: {n}³ grid, {steps} steps, p = {p}");
    let mp = Multipartitioning::optimal(
        p,
        &[n as u64, n as u64, n as u64],
        &CostModel::origin2000_like(),
    );
    println!("partitioning γ = {:?}", mp.gammas());

    // ---- distributed run ----
    let gam: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
    let grid = TileGrid::new(&eta, &gam);
    let fields = [
        FieldDef::new("u", 0),
        FieldDef::new("a", 0),
        FieldDef::new("b", 0),
        FieldDef::new("c", 0),
        FieldDef::new("rhs", 0),
    ];
    let stores = run_threaded(p, |comm| {
        let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
        store.init_field(U, |g| adi.initial(g));
        let mut plan = SolverPlan::new(SweepOptions::default());
        for _step in 0..steps {
            // copy u into rhs (ADI splitting: each dim solve applied in turn)
            for tile in &mut store.tiles {
                let ext = tile.field(U).interior().to_vec();
                let mut idx = vec![0usize; 3];
                for i in 0..ext[0] {
                    for j in 0..ext[1] {
                        for k in 0..ext[2] {
                            idx[0] = i;
                            idx[1] = j;
                            idx[2] = k;
                            let v = tile.fields[U].get_i(&idx);
                            tile.fields[RHS].set_i(&idx, v);
                        }
                    }
                }
            }
            for dim in 0..3 {
                // fill coefficients
                for tile in &mut store.tiles {
                    let origin = tile.region.origin.clone();
                    let ext = tile.field(A).interior().to_vec();
                    let mut idx = vec![0usize; 3];
                    let mut g = vec![0usize; 3];
                    for i in 0..ext[0] {
                        for j in 0..ext[1] {
                            for k in 0..ext[2] {
                                idx[0] = i;
                                idx[1] = j;
                                idx[2] = k;
                                g[0] = origin[0] + i;
                                g[1] = origin[1] + j;
                                g[2] = origin[2] + k;
                                let (a, b, c) = adi.coefficients(&g, dim);
                                tile.fields[A].set_i(&idx, a);
                                tile.fields[B].set_i(&idx, b);
                                tile.fields[C].set_i(&idx, c);
                            }
                        }
                    }
                }
                let fwd = ThomasForwardKernel::new(A, B, C, RHS);
                plan.sweep(comm, &mut store, &mp, dim, Direction::Forward, &fwd, 1_000);
                let bwd = ThomasBackwardKernel::new(C, RHS);
                plan.sweep(comm, &mut store, &mp, dim, Direction::Backward, &bwd, 2_000);
            }
            // u ← rhs
            for tile in &mut store.tiles {
                let ext = tile.field(U).interior().to_vec();
                let mut idx = vec![0usize; 3];
                for i in 0..ext[0] {
                    for j in 0..ext[1] {
                        for k in 0..ext[2] {
                            idx[0] = i;
                            idx[1] = j;
                            idx[2] = k;
                            let v = tile.fields[RHS].get_i(&idx);
                            tile.fields[U].set_i(&idx, v);
                        }
                    }
                }
            }
        }
        store
    });
    let mut parallel_u = ArrayD::zeros(&eta);
    for store in &stores {
        store.gather_into(U, &mut parallel_u);
    }

    // ---- serial reference ----
    let mut u = ArrayD::from_fn(&eta, |g| adi.initial(g));
    for _ in 0..steps {
        let mut rhs = u.clone();
        for dim in 0..3 {
            let mut a = ArrayD::from_fn(&eta, |g| adi.coefficients(g, dim).0);
            let mut b = ArrayD::from_fn(&eta, |g| adi.coefficients(g, dim).1);
            let mut c = ArrayD::from_fn(&eta, |g| adi.coefficients(g, dim).2);
            let fwd = ThomasForwardKernel::new(0, 1, 2, 3);
            serial_sweep(
                &mut [&mut a, &mut b, &mut c, &mut rhs],
                dim,
                Direction::Forward,
                &fwd,
            );
            let bwd = ThomasBackwardKernel::new(0, 1);
            serial_sweep(&mut [&mut c, &mut rhs], dim, Direction::Backward, &bwd);
        }
        u = rhs;
    }

    let diff = parallel_u.max_abs_diff(&u);
    println!("max |parallel − serial| = {diff:e}");
    assert_eq!(diff, 0.0, "distributed ADI must be bit-identical");
    println!("bit-identical to the serial reference ✓");
    println!(
        "energy (Σu): initial hot cube diffused to L2 norm {:.6} after {steps} steps",
        u.l2_norm()
    );
}
