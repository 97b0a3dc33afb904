//! Integer factorization and elementary number theory.
//!
//! Everything in the generalized multipartitioning algorithm is driven by the
//! prime factorization `p = Π α_j^{r_j}` of the processor count: the
//! enumeration of candidate partitionings distributes the `r_j` copies of each
//! prime factor `α_j` over the array dimensions, and the modular-mapping
//! construction repeatedly takes gcds against `p`.
//!
//! Processor counts are small (at most a few thousand in any realistic
//! line-sweep deployment, and the paper evaluates up to 81), so simple trial
//! division is more than adequate; it is `O(√n)` as the paper assumes.

/// A single prime power `prime^exp` in a factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrimePower {
    /// The prime base `α_j`.
    pub prime: u64,
    /// Its multiplicity `r_j ≥ 1`.
    pub exp: u32,
}

/// The prime factorization of a positive integer, `n = Π primes[j].prime ^ primes[j].exp`.
///
/// Factors are stored in increasing order of prime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Factorization {
    /// The factored integer.
    pub n: u64,
    /// The prime-power factors, sorted by prime.
    pub primes: Vec<PrimePower>,
}

impl Factorization {
    /// Factor `n` by trial division.
    ///
    /// ```
    /// use mp_core::factor::Factorization;
    /// let f = Factorization::of(30);
    /// assert_eq!(f.primes.len(), 3); // 2 · 3 · 5 — the paper's §3.2 example
    /// ```
    ///
    /// # Panics
    /// Panics if `n == 0`; zero has no prime factorization.
    pub fn of(n: u64) -> Self {
        assert!(n > 0, "cannot factor 0");
        let mut primes = Vec::new();
        let mut m = n;
        let mut f = 2u64;
        while f * f <= m {
            if m.is_multiple_of(f) {
                let mut exp = 0u32;
                while m.is_multiple_of(f) {
                    m /= f;
                    exp += 1;
                }
                primes.push(PrimePower { prime: f, exp });
            }
            f += if f == 2 { 1 } else { 2 };
        }
        if m > 1 {
            primes.push(PrimePower { prime: m, exp: 1 });
        }
        Factorization { n, primes }
    }

    /// True if `n` is a perfect `k`-th power (i.e. `n^{1/k}` is integral).
    ///
    /// Diagonal multipartitioning of a `d`-dimensional array requires the
    /// processor count to be a perfect `(d-1)`-th power.
    pub fn is_perfect_power(&self, k: u32) -> bool {
        assert!(k >= 1);
        self.primes.iter().all(|pp| pp.exp % k == 0)
    }

    /// The integral `k`-th root of `n` if `n` is a perfect `k`-th power.
    pub fn perfect_root(&self, k: u32) -> Option<u64> {
        if !self.is_perfect_power(k) {
            return None;
        }
        let mut root = 1u64;
        for pp in &self.primes {
            root *= pp.prime.pow(pp.exp / k);
        }
        Some(root)
    }
}

/// Greatest common divisor (binary-safe Euclid on `u64`).
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// gcd on signed integers, always non-negative.
pub fn gcd_i64(a: i64, b: i64) -> i64 {
    gcd(a.unsigned_abs(), b.unsigned_abs()) as i64
}

/// `gcd(p, Π xs)` computed without forming the (possibly huge) product.
///
/// Uses `gcd(p, z) = gcd(p, z mod p)` and reduces the product mod `p`
/// incrementally in 128-bit arithmetic. The multipartitioning validity test
/// (`p | Π_{j≠i} γ_j`) and the modulus-vector formula of Section 4 both need
/// gcds of `p` against products of up to `d` tile counts, each possibly as
/// large as `p²`; the naive product overflows `u64` long before `p` reaches
/// realistic values.
pub fn gcd_with_product(p: u64, xs: &[u64]) -> u64 {
    assert!(p > 0);
    if p == 1 {
        return 1;
    }
    // A single zero factor makes the product 0, and gcd(p, 0) = p.
    let mut acc: u64 = 1 % p;
    for &x in xs {
        acc = ((acc as u128 * (x % p) as u128) % p as u128) as u64;
    }
    // gcd(p, Π xs) = gcd(p, Π xs mod p) — except that `Π xs mod p == 0`
    // means p | Π xs, i.e. the gcd is exactly p.
    if acc == 0 {
        p
    } else {
        gcd(p, acc)
    }
}

/// True if `p` divides `Π xs`, without forming the product.
pub fn divides_product(p: u64, xs: &[u64]) -> bool {
    gcd_with_product(p, xs) == p
}

/// Extended Euclid: returns `(g, x, y)` with `a·x + b·y = g = gcd(a, b)`.
pub fn extended_gcd(a: i64, b: i64) -> (i64, i64, i64) {
    if b == 0 {
        let sign = if a < 0 { -1 } else { 1 };
        return (a.abs(), sign, 0);
    }
    let (g, x1, y1) = extended_gcd(b, a.rem_euclid(b));
    (g, y1, x1 - (a.div_euclid(b)) * y1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_small() {
        let f = Factorization::of(1);
        assert!(f.primes.is_empty());

        let f = Factorization::of(2);
        assert_eq!(f.primes, vec![PrimePower { prime: 2, exp: 1 }]);

        let f = Factorization::of(360);
        assert_eq!(
            f.primes,
            vec![
                PrimePower { prime: 2, exp: 3 },
                PrimePower { prime: 3, exp: 2 },
                PrimePower { prime: 5, exp: 1 },
            ]
        );
    }

    #[test]
    fn factor_prime_and_prime_power() {
        let f = Factorization::of(97);
        assert_eq!(f.primes, vec![PrimePower { prime: 97, exp: 1 }]);
        let f = Factorization::of(1024);
        assert_eq!(f.primes, vec![PrimePower { prime: 2, exp: 10 }]);
    }

    #[test]
    fn factor_roundtrip_exhaustive() {
        for n in 1..5000u64 {
            let f = Factorization::of(n);
            let back: u64 = f.primes.iter().map(|pp| pp.prime.pow(pp.exp)).product();
            assert_eq!(back, n, "roundtrip failed for {n}");
            // primality of each factor
            for pp in &f.primes {
                assert!(
                    (2..pp.prime).all(|d| pp.prime % d != 0),
                    "{} not prime",
                    pp.prime
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot factor 0")]
    fn factor_zero_panics() {
        let _ = Factorization::of(0);
    }

    #[test]
    fn perfect_powers() {
        assert!(Factorization::of(16).is_perfect_power(2));
        assert_eq!(Factorization::of(16).perfect_root(2), Some(4));
        assert!(!Factorization::of(8).is_perfect_power(2));
        assert_eq!(Factorization::of(8).perfect_root(3), Some(2));
        assert!(Factorization::of(1).is_perfect_power(5));
        assert_eq!(Factorization::of(1).perfect_root(7), Some(1));
        // 36 = 6², relevant: diagonal 3-D multipartitioning works at p = 36.
        assert_eq!(Factorization::of(36).perfect_root(2), Some(6));
        // 50 is not a perfect square — the paper's problematic SP case.
        assert!(!Factorization::of(50).is_perfect_power(2));
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(1, 1), 1);
        assert_eq!(gcd_i64(-12, 18), 6);
    }

    #[test]
    fn gcd_with_product_matches_naive() {
        for p in 1..60u64 {
            for a in 1..20u64 {
                for b in 1..20u64 {
                    let naive = gcd(p, a * b);
                    assert_eq!(gcd_with_product(p, &[a, b]), naive, "p={p} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn gcd_with_product_no_overflow() {
        // Product of these vastly overflows u64; gcd must still be exact.
        let xs = [u64::MAX - 1, u64::MAX - 2, 12345678901234567];
        let g = gcd_with_product(1_000_003, &xs);
        assert!(g >= 1 && 1_000_003 % g == 0);
        // Π xs mod small p, checked against per-factor reduction:
        let p = 97u64;
        let acc = xs.iter().fold(1u64, |a, &x| (a * (x % p)) % p);
        let expect = if acc == 0 { p } else { gcd(p, acc) };
        assert_eq!(gcd_with_product(p, &xs), expect);
    }

    #[test]
    fn divides_product_validity_examples() {
        // The canonical validity checks from the paper (p = 8, d = 3):
        // (4,4,2) is valid: 8 | 4·4, 8 | 4·2, 8 | 4·2.
        assert!(divides_product(8, &[4, 4]));
        assert!(divides_product(8, &[4, 2]));
        // (2,2,2) is valid for p=4 but not p=8 along any removal:
        assert!(!divides_product(8, &[2, 2]));
        assert!(divides_product(4, &[2, 2]));
    }

    #[test]
    fn extended_gcd_bezout() {
        for a in -30i64..30 {
            for b in -30i64..30 {
                let (g, x, y) = extended_gcd(a, b);
                assert_eq!(g, gcd_i64(a, b));
                assert_eq!(a * x + b * y, g, "bezout failed for {a},{b}");
            }
        }
    }
}
