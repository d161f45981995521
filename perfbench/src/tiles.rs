//! Dense tile kernels for the threaded Cholesky, row-major `b × b`
//! tiles. The CPU class runs the naive loops, the emulated GPU class the
//! cache-blocked update kernels, so the two classes measure different
//! times and the history model learns real heterogeneity.

/// Unblocked Cholesky of a tile in place; the strict upper triangle is
/// zeroed. Returns `false` if a pivot is not positive.
pub fn potrf(a: &mut [f64], b: usize) -> bool {
    for k in 0..b {
        let d = a[k * b + k];
        if d.is_nan() || d <= 0.0 {
            return false;
        }
        let d = d.sqrt();
        a[k * b + k] = d;
        for i in k + 1..b {
            a[i * b + k] /= d;
        }
        for j in k + 1..b {
            let ajk = a[j * b + k];
            for i in j..b {
                a[i * b + j] -= a[i * b + k] * ajk;
            }
        }
        for j in k + 1..b {
            a[k * b + j] = 0.0;
        }
    }
    true
}

/// Panel solve `x <- x · L⁻ᵀ` for a lower-triangular `l`.
pub fn trsm(l: &[f64], x: &mut [f64], b: usize) {
    for i in 0..b {
        for k in 0..b {
            let mut s = x[i * b + k];
            for j in 0..k {
                s -= x[i * b + j] * l[k * b + j];
            }
            x[i * b + k] = s / l[k * b + k];
        }
    }
}

/// `c -= a · bᵀ`, naive loop order.
pub fn gemm_naive(a: &[f64], bt: &[f64], c: &mut [f64], b: usize) {
    for i in 0..b {
        for j in 0..b {
            let mut s = 0.0;
            for k in 0..b {
                s += a[i * b + k] * bt[j * b + k];
            }
            c[i * b + j] -= s;
        }
    }
}

/// Dot product with four independent accumulators, so the additions
/// pipeline instead of waiting on each other.
fn dot4(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let (xc, xr) = x.split_at(x.len() / 4 * 4);
    let (yc, yr) = y.split_at(xc.len());
    for (p, q) in xc.chunks_exact(4).zip(yc.chunks_exact(4)) {
        for l in 0..4 {
            acc[l] += p[l] * q[l];
        }
    }
    let tail: f64 = xr.iter().zip(yr).map(|(p, q)| p * q).sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// `c -= a · bᵀ`, blocked for cache reuse: the "accelerated" variant.
pub fn gemm_blocked(a: &[f64], bt: &[f64], c: &mut [f64], b: usize) {
    const BS: usize = 32;
    for ii in (0..b).step_by(BS) {
        for jj in (0..b).step_by(BS) {
            for kk in (0..b).step_by(BS) {
                for i in ii..(ii + BS).min(b) {
                    for j in jj..(jj + BS).min(b) {
                        let mut s = 0.0;
                        for k in kk..(kk + BS).min(b) {
                            s += a[i * b + k] * bt[j * b + k];
                        }
                        c[i * b + j] -= s;
                    }
                }
            }
        }
    }
}

/// A seeded symmetric positive definite `n × n` matrix, row-major:
/// `M·Mᵀ + n·I` with `M` uniform in `[-0.1, 0.1)`.
pub fn spd_matrix(n: usize, seed: u64) -> Vec<f64> {
    let mut mix = crate::order::Mix(seed);
    let m: Vec<f64> = (0..n * n).map(|_| (mix.unit() - 0.5) * 0.2).collect();
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut s = if i == j { n as f64 } else { 0.0 };
            for k in 0..n {
                s += m[i * n + k] * m[j * n + k];
            }
            a[i * n + j] = s;
            a[j * n + i] = s;
        }
    }
    a
}

/// `‖A − L·Lᵀ‖_F / ‖A‖_F` over the lower triangle, for a factor `l`
/// given as a full row-major `n × n` matrix.
pub fn residual(a: &[f64], l: &[f64], n: usize) -> f64 {
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for i in 0..n {
        for j in 0..=i {
            let s = dot4(&l[i * n..i * n + j + 1], &l[j * n..j * n + j + 1]);
            let d = a[i * n + j] - s;
            num += d * d;
            den += a[i * n + j] * a[i * n + j];
        }
    }
    (num / den).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_tile_factor_reproduces_the_matrix() {
        let b = 40;
        let a = spd_matrix(b, 3);
        let mut l = a.clone();
        assert!(potrf(&mut l, b));
        assert!(residual(&a, &l, b) < 1e-14);
    }

    #[test]
    fn blocked_and_naive_gemm_agree() {
        let b = 70;
        let x = spd_matrix(b, 1);
        let y = spd_matrix(b, 2);
        let mut c1 = spd_matrix(b, 4);
        let mut c2 = c1.clone();
        gemm_naive(&x, &y, &mut c1, b);
        gemm_blocked(&x, &y, &mut c2, b);
        let diff = c1
            .iter()
            .zip(&c2)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-9, "{diff}");
    }
}
