//! Hand-written parallel implementations: the shared engine behind the
//! multipartitioning (NPB2.3b2-style hand MPI) and transpose-based
//! (pghpf stand-in) versions of SP and BT.
//!
//! Numerics mirror the Fortran sources *exactly* (same expression
//! association order), so every version verifies against the serial
//! interpreter. Virtual compute time is charged through the calibrated
//! per-phase costs of [`crate::cost`], making times comparable with the
//! compiled versions; the forward/backward split of the solve phases
//! uses the documented static fractions below.
//!
//! Storage note: each simulated processor allocates full-size global
//! arrays but *computes and communicates* exactly what its distribution
//! owns — virtual time depends only on work charged and messages sent,
//! so this simplification does not affect the measured performance
//! shape (see DESIGN.md).

use std::collections::BTreeMap;

/// Fraction of a solve phase's per-point cost spent in the build /
/// forward-elimination / back-substitution sub-phases, from static flop
/// counts of the corresponding Fortran statements.
pub const SP_SOLVE_SPLIT: [f64; 3] = [0.25, 0.50, 0.25];
pub const BT_SOLVE_SPLIT: [f64; 3] = [0.21, 0.73, 0.06];

/// A dense (c, i, j, k) array, 1-based like the Fortran, c components.
#[derive(Clone)]
pub struct Array4 {
    pub c: usize,
    pub n: usize,
    data: Vec<f64>,
}

impl Array4 {
    pub fn new(c: usize, n: usize) -> Self {
        Array4 {
            c,
            n,
            data: vec![0.0; c * n * n * n],
        }
    }

    #[inline]
    pub fn idx(&self, m: usize, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(m >= 1 && m <= self.c && i >= 1 && i <= self.n);
        (m - 1) + self.c * ((i - 1) + self.n * ((j - 1) + self.n * (k - 1)))
    }

    #[inline]
    pub fn get(&self, m: usize, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.idx(m, i, j, k)]
    }

    #[inline]
    pub fn set(&mut self, m: usize, i: usize, j: usize, k: usize, v: f64) {
        let x = self.idx(m, i, j, k);
        self.data[x] = v;
    }

    #[inline]
    pub fn add(&mut self, m: usize, i: usize, j: usize, k: usize, v: f64) {
        let x = self.idx(m, i, j, k);
        self.data[x] += v;
    }
}

/// Axis-indexed point: `pt(axis, s, a, b)` places `s` on `axis` and
/// `(a, b)` on the remaining two axes in order.
#[inline]
pub fn pt(axis: usize, s: usize, a: usize, b: usize) -> (usize, usize, usize) {
    match axis {
        0 => (s, a, b),
        1 => (a, s, b),
        _ => (a, b, s),
    }
}

// ---------------------------------------------------------------------------
// Shared formulas (MUST mirror the Fortran sources exactly)
// ---------------------------------------------------------------------------

/// `u(m,i,j,k)` initial value.
pub fn init_u(m: usize, i: usize, j: usize, k: usize) -> f64 {
    1.0 + 0.01 * i as f64 + 0.02 * j as f64 + 0.03 * k as f64 + 0.1 * m as f64
}

/// The six reciprocal values at one point: rho_i, us, vs, ws, square, qs.
pub fn reciprocals(u: &Array4, i: usize, j: usize, k: usize) -> [f64; 6] {
    let rho_i = 1.0 / u.get(1, i, j, k);
    let us = u.get(2, i, j, k) * rho_i;
    let vs = u.get(3, i, j, k) * rho_i;
    let ws = u.get(4, i, j, k) * rho_i;
    let square = 0.5
        * (u.get(2, i, j, k) * u.get(2, i, j, k)
            + u.get(3, i, j, k) * u.get(3, i, j, k)
            + u.get(4, i, j, k) * u.get(4, i, j, k))
        * rho_i;
    let qs = square * rho_i;
    [rho_i, us, vs, ws, square, qs]
}

/// Reciprocal array indices.
pub const RHO: usize = 1;
pub const US: usize = 2;
pub const VS: usize = 3;
pub const WS: usize = 4;
pub const SQ: usize = 5;
pub const QS: usize = 6;

/// One rhs point (all 5 components), mirroring the Fortran stencil.
/// `r` is the 6-component reciprocal array.
pub fn rhs_point(u: &Array4, r: &Array4, rhs: &mut Array4, i: usize, j: usize, k: usize) {
    for m in 1..=5 {
        let v = 0.05 * (u.get(m, i + 1, j, k) - 2.0 * u.get(m, i, j, k) + u.get(m, i - 1, j, k))
            + 0.05 * (u.get(m, i, j + 1, k) - 2.0 * u.get(m, i, j, k) + u.get(m, i, j - 1, k))
            + 0.05 * (u.get(m, i, j, k + 1) - 2.0 * u.get(m, i, j, k) + u.get(m, i, j, k - 1))
            + 0.02 * (r.get(US, i + 1, j, k) - r.get(US, i - 1, j, k))
            + 0.02 * (r.get(VS, i, j + 1, k) - r.get(VS, i, j - 1, k))
            + 0.02 * (r.get(WS, i, j, k + 1) - r.get(WS, i, j, k - 1))
            + 0.01 * (r.get(QS, i + 1, j, k) - 2.0 * r.get(QS, i, j, k) + r.get(QS, i - 1, j, k))
            + 0.01 * (r.get(QS, i, j + 1, k) - 2.0 * r.get(QS, i, j, k) + r.get(QS, i, j - 1, k))
            + 0.01 * (r.get(QS, i, j, k + 1) - 2.0 * r.get(QS, i, j, k) + r.get(QS, i, j, k - 1))
            + 0.01 * (r.get(SQ, i + 1, j, k) - 2.0 * r.get(SQ, i, j, k) + r.get(SQ, i - 1, j, k))
            + 0.01 * (r.get(SQ, i, j + 1, k) - 2.0 * r.get(SQ, i, j, k) + r.get(SQ, i, j - 1, k))
            + 0.01 * (r.get(SQ, i, j, k + 1) - 2.0 * r.get(SQ, i, j, k) + r.get(SQ, i, j, k - 1))
            + 0.01
                * (r.get(RHO, i + 1, j, k) - 2.0 * r.get(RHO, i, j, k) + r.get(RHO, i - 1, j, k))
            + 0.01
                * (r.get(RHO, i, j + 1, k) - 2.0 * r.get(RHO, i, j, k) + r.get(RHO, i, j - 1, k))
            + 0.01
                * (r.get(RHO, i, j, k + 1) - 2.0 * r.get(RHO, i, j, k) + r.get(RHO, i, j, k - 1));
        rhs.set(m, i, j, k, v);
    }
}

/// `u += 0.5 * rhs` at a point.
pub fn add_point(u: &mut Array4, rhs: &Array4, i: usize, j: usize, k: usize) {
    for m in 1..=5 {
        u.add(m, i, j, k, 0.5 * rhs.get(m, i, j, k));
    }
}

// ---------------------------------------------------------------------------
// Line-solver kernels
// ---------------------------------------------------------------------------

/// Per-axis line solver: SP's scalar tridiagonal or BT's 5×5 block
/// tridiagonal. Coefficients live in a (ncoef, n, n, n) array; a "tail"
/// of `tail_len` words per cross-section point is carried downstream in
/// the forward sweep (the normalized super-diagonal and rhs), and
/// back-substitution needs the 5 rhs words from upstream.
pub trait LineSolver: Sync {
    /// Coefficient words per point.
    const NCOEF: usize;
    /// Forward-tail words per point (normalized super-diagonal coeffs).
    const TAIL: usize;
    /// Build/forward/backward cost split of the solve phase.
    const SPLIT: [f64; 3];

    /// Which reciprocal feeds `cv` on this axis (US/VS/WS).
    fn cv_of(axis: usize) -> usize {
        match axis {
            0 => US,
            1 => VS,
            _ => WS,
        }
    }

    /// Build the coefficients at point `s` along `axis` from the cv
    /// values at s−1, s, s+1.
    fn build(coef: &mut Array4, p: (usize, usize, usize), cv: [f64; 3]);

    /// Normalize the first interior point (s = 2): writes the normalized
    /// tail into `coef`/`rhs` in place.
    fn norm_first(coef: &mut Array4, rhs: &mut Array4, p: (usize, usize, usize));

    /// One forward-elimination step at `p`, consuming the previous
    /// point's normalized values at `prev` (already in the arrays).
    fn forward(
        coef: &mut Array4,
        rhs: &mut Array4,
        p: (usize, usize, usize),
        prev: (usize, usize, usize),
    );

    /// One back-substitution step at `p` using the solved values at `next`.
    fn backward(
        coef: &Array4,
        rhs: &mut Array4,
        p: (usize, usize, usize),
        next: (usize, usize, usize),
    );

    /// Pack the forward tail at a point (normalized coeffs; rhs is packed
    /// separately).
    fn pack_tail(coef: &Array4, p: (usize, usize, usize), out: &mut Vec<f64>);

    /// Unpack the forward tail.
    fn unpack_tail(coef: &mut Array4, p: (usize, usize, usize), buf: &[f64], pos: &mut usize);
}

/// SP: scalar tridiagonal (Thomas algorithm), coefficients lhs(1..3).
pub struct SpSolver;

impl LineSolver for SpSolver {
    const NCOEF: usize = 3;
    const TAIL: usize = 1;
    const SPLIT: [f64; 3] = SP_SOLVE_SPLIT;

    fn build(coef: &mut Array4, (i, j, k): (usize, usize, usize), cv: [f64; 3]) {
        // x_solve builds from cv only; y/z add the rhoq term — the
        // engine passes the combined value in cv (see solve_axis).
        coef.set(1, i, j, k, -0.1 - 0.02 * cv[0]);
        coef.set(2, i, j, k, 2.0 + 0.04 * cv[1]);
        coef.set(3, i, j, k, -0.1 + 0.02 * cv[2]);
    }

    fn norm_first(coef: &mut Array4, rhs: &mut Array4, (i, j, k): (usize, usize, usize)) {
        let d = coef.get(2, i, j, k);
        coef.set(3, i, j, k, coef.get(3, i, j, k) / d);
        for m in 1..=5 {
            rhs.set(m, i, j, k, rhs.get(m, i, j, k) / d);
        }
    }

    fn forward(
        coef: &mut Array4,
        rhs: &mut Array4,
        (i, j, k): (usize, usize, usize),
        (pi, pj, pk): (usize, usize, usize),
    ) {
        let fac1 = 1.0 / (coef.get(2, i, j, k) - coef.get(1, i, j, k) * coef.get(3, pi, pj, pk));
        coef.set(3, i, j, k, coef.get(3, i, j, k) * fac1);
        for m in 1..=5 {
            rhs.set(
                m,
                i,
                j,
                k,
                (rhs.get(m, i, j, k) - coef.get(1, i, j, k) * rhs.get(m, pi, pj, pk)) * fac1,
            );
        }
    }

    fn backward(
        coef: &Array4,
        rhs: &mut Array4,
        (i, j, k): (usize, usize, usize),
        (ni, nj, nk): (usize, usize, usize),
    ) {
        for m in 1..=5 {
            rhs.set(
                m,
                i,
                j,
                k,
                rhs.get(m, i, j, k) - coef.get(3, i, j, k) * rhs.get(m, ni, nj, nk),
            );
        }
    }

    fn pack_tail(coef: &Array4, (i, j, k): (usize, usize, usize), out: &mut Vec<f64>) {
        out.push(coef.get(3, i, j, k));
    }

    fn unpack_tail(
        coef: &mut Array4,
        (i, j, k): (usize, usize, usize),
        buf: &[f64],
        pos: &mut usize,
    ) {
        coef.set(3, i, j, k, buf[*pos]);
        *pos += 1;
    }
}

/// BT: 5×5 block tridiagonal. Coefficient layout: components 1..25 = A
/// (row-major), 26..50 = B, 51..75 = C.
pub struct BtSolver;

#[inline]
fn a_of(m: usize, n: usize) -> usize {
    (m - 1) * 5 + n
}
#[inline]
fn b_of(m: usize, n: usize) -> usize {
    25 + (m - 1) * 5 + n
}
#[inline]
fn c_of(m: usize, n: usize) -> usize {
    50 + (m - 1) * 5 + n
}

impl BtSolver {
    /// Gauss–Jordan on B, applied to C and rhs — mirrors `binvc`.
    fn binvc(coef: &mut Array4, rhs: &mut Array4, (i, j, k): (usize, usize, usize)) {
        for p1 in 1..=5 {
            let piv = 1.0 / coef.get(b_of(p1, p1), i, j, k);
            for n in (p1 + 1)..=5 {
                coef.set(b_of(p1, n), i, j, k, coef.get(b_of(p1, n), i, j, k) * piv);
            }
            for n in 1..=5 {
                coef.set(c_of(p1, n), i, j, k, coef.get(c_of(p1, n), i, j, k) * piv);
            }
            rhs.set(p1, i, j, k, rhs.get(p1, i, j, k) * piv);
            for q1 in 1..=5 {
                if q1 == p1 {
                    continue;
                }
                let c0 = coef.get(b_of(q1, p1), i, j, k);
                for n in (p1 + 1)..=5 {
                    coef.set(
                        b_of(q1, n),
                        i,
                        j,
                        k,
                        coef.get(b_of(q1, n), i, j, k) - c0 * coef.get(b_of(p1, n), i, j, k),
                    );
                }
                for n in 1..=5 {
                    coef.set(
                        c_of(q1, n),
                        i,
                        j,
                        k,
                        coef.get(c_of(q1, n), i, j, k) - c0 * coef.get(c_of(p1, n), i, j, k),
                    );
                }
                rhs.set(
                    q1,
                    i,
                    j,
                    k,
                    rhs.get(q1, i, j, k) - c0 * rhs.get(p1, i, j, k),
                );
            }
        }
    }
}

impl LineSolver for BtSolver {
    const NCOEF: usize = 75;
    const TAIL: usize = 25;
    const SPLIT: [f64; 3] = BT_SOLVE_SPLIT;

    fn build(coef: &mut Array4, (i, j, k): (usize, usize, usize), cv: [f64; 3]) {
        for m in 1..=5 {
            for n in 1..=5 {
                coef.set(a_of(m, n), i, j, k, -0.01 - 0.002 * cv[0]);
                coef.set(b_of(m, n), i, j, k, 0.01 + 0.002 * cv[1]);
                coef.set(c_of(m, n), i, j, k, -0.01 + 0.002 * cv[2]);
            }
            coef.set(b_of(m, m), i, j, k, 2.0 + 0.04 * cv[1]);
        }
    }

    fn norm_first(coef: &mut Array4, rhs: &mut Array4, p: (usize, usize, usize)) {
        Self::binvc(coef, rhs, p);
    }

    fn forward(
        coef: &mut Array4,
        rhs: &mut Array4,
        p: (usize, usize, usize),
        prev: (usize, usize, usize),
    ) {
        let (i, j, k) = p;
        let (pi, pj, pk) = prev;
        // matvec: rhs -= A * rhs_prev
        for m in 1..=5 {
            for n in 1..=5 {
                rhs.set(
                    m,
                    i,
                    j,
                    k,
                    rhs.get(m, i, j, k) - coef.get(a_of(m, n), i, j, k) * rhs.get(n, pi, pj, pk),
                );
            }
        }
        // matmul: B -= A * C_prev
        for m in 1..=5 {
            for n in 1..=5 {
                for q in 1..=5 {
                    coef.set(
                        b_of(m, n),
                        i,
                        j,
                        k,
                        coef.get(b_of(m, n), i, j, k)
                            - coef.get(a_of(m, q), i, j, k) * coef.get(c_of(q, n), pi, pj, pk),
                    );
                }
            }
        }
        Self::binvc(coef, rhs, p);
    }

    fn backward(
        coef: &Array4,
        rhs: &mut Array4,
        (i, j, k): (usize, usize, usize),
        (ni, nj, nk): (usize, usize, usize),
    ) {
        for m in 1..=5 {
            for n in 1..=5 {
                rhs.set(
                    m,
                    i,
                    j,
                    k,
                    rhs.get(m, i, j, k) - coef.get(c_of(m, n), i, j, k) * rhs.get(n, ni, nj, nk),
                );
            }
        }
    }

    fn pack_tail(coef: &Array4, (i, j, k): (usize, usize, usize), out: &mut Vec<f64>) {
        for m in 1..=5 {
            for n in 1..=5 {
                out.push(coef.get(c_of(m, n), i, j, k));
            }
        }
    }

    fn unpack_tail(
        coef: &mut Array4,
        (i, j, k): (usize, usize, usize),
        buf: &[f64],
        pos: &mut usize,
    ) {
        for m in 1..=5 {
            for n in 1..=5 {
                coef.set(c_of(m, n), i, j, k, buf[*pos]);
                *pos += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SP's y/z builds add the rhoq (qs) term — the engine composes cv values
// ---------------------------------------------------------------------------

/// Combined cv triple for a build step. SP x uses us only; SP y/z mix
/// qs in exactly as the Fortran does. BT uses us/vs/ws alone.
fn cv_triple<S: LineSolver>(
    recip: &Array4,
    axis: usize,
    s: usize,
    a: usize,
    b: usize,
    sp_mix: bool,
) -> [[f64; 3]; 1] {
    let comp = S::cv_of(axis);
    let get = |d: i64| {
        let sv = (s as i64 + d) as usize;
        let (i, j, k) = pt(axis, sv, a, b);
        let base = recip.get(comp, i, j, k);
        if sp_mix && axis > 0 {
            // SP's lhsy/lhsz: coefficients also include the rhoq term,
            // folded as (cv ± 0.5·rhoq) so that
            //   -0.1 - 0.02·cv - 0.01·rhoq = -0.1 - 0.02·(cv + 0.5·rhoq)
            //    2.0 + 0.04·cv + 0.02·rhoq = 2.0 + 0.04·(cv + 0.5·rhoq)
            //   -0.1 + 0.02·cv + 0.01·rhoq = -0.1 + 0.02·(cv + 0.5·rhoq)
            let rhoq = recip.get(QS, i, j, k);
            match d {
                -1 => base + 0.5 * rhoq,
                0 => base + 0.5 * rhoq,
                _ => base + 0.5 * rhoq,
            }
        } else {
            base
        }
    };
    [[get(-1), get(0), get(1)]]
}

// (continued in `handpar_drivers.rs`)
pub mod drivers;

pub use drivers::{multipart_for, run_multipart, run_transpose, HandResult};

pub(crate) fn cv3<S: LineSolver>(
    recip: &Array4,
    axis: usize,
    s: usize,
    a: usize,
    b: usize,
    sp_mix: bool,
) -> [f64; 3] {
    cv_triple::<S>(recip, axis, s, a, b, sp_mix)[0]
}

/// Gather helper: merge per-rank arrays by an ownership predicate.
pub fn gather(
    parts: BTreeMap<usize, Array4>,
    n: usize,
    c: usize,
    owner: &dyn Fn(usize, usize, usize) -> usize,
) -> Array4 {
    let mut out = Array4::new(c, n);
    for (rank, arr) in parts {
        for k in 1..=n {
            for j in 1..=n {
                for i in 1..=n {
                    if owner(i, j, k) == rank {
                        for m in 1..=c {
                            out.set(m, i, j, k, arr.get(m, i, j, k));
                        }
                    }
                }
            }
        }
    }
    out
}

/// The fields a hand-written run carries.
pub struct Fields {
    pub u: Array4,
    pub rhs: Array4,
    pub recip: Array4,
    pub coef: Array4,
}

impl Fields {
    pub fn new(n: usize, ncoef: usize) -> Self {
        Fields {
            u: Array4::new(5, n),
            rhs: Array4::new(5, n),
            recip: Array4::new(6, n),
            coef: Array4::new(ncoef, n),
        }
    }
}

/// Shared machinery for both drivers: region pack/unpack over Array4.
pub fn pack_region(
    arr: &Array4,
    mr: (usize, usize),
    ir: (usize, usize),
    jr: (usize, usize),
    kr: (usize, usize),
    out: &mut Vec<f64>,
) {
    for k in kr.0..=kr.1 {
        for j in jr.0..=jr.1 {
            for i in ir.0..=ir.1 {
                for m in mr.0..=mr.1 {
                    out.push(arr.get(m, i, j, k));
                }
            }
        }
    }
}

pub fn unpack_region(
    arr: &mut Array4,
    mr: (usize, usize),
    ir: (usize, usize),
    jr: (usize, usize),
    kr: (usize, usize),
    buf: &[f64],
    pos: &mut usize,
) {
    for k in kr.0..=kr.1 {
        for j in jr.0..=jr.1 {
            for i in ir.0..=ir.1 {
                for m in mr.0..=mr.1 {
                    arr.set(m, i, j, k, buf[*pos]);
                    *pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array4_layout_roundtrip() {
        let mut a = Array4::new(5, 4);
        a.set(3, 2, 4, 1, 7.5);
        assert_eq!(a.get(3, 2, 4, 1), 7.5);
        assert_eq!(a.get(3, 2, 4, 2), 0.0);
    }

    #[test]
    fn pack_unpack_region_roundtrip() {
        let mut a = Array4::new(2, 4);
        for k in 1..=4 {
            for j in 1..=4 {
                for i in 1..=4 {
                    a.set(1, i, j, k, (100 * i + 10 * j + k) as f64);
                }
            }
        }
        let mut buf = Vec::new();
        pack_region(&a, (1, 1), (2, 3), (1, 4), (2, 2), &mut buf);
        let mut b = Array4::new(2, 4);
        let mut pos = 0;
        unpack_region(&mut b, (1, 1), (2, 3), (1, 4), (2, 2), &buf, &mut pos);
        assert_eq!(pos, buf.len());
        assert_eq!(b.get(1, 2, 1, 2), a.get(1, 2, 1, 2));
        assert_eq!(b.get(1, 3, 4, 2), a.get(1, 3, 4, 2));
        assert_eq!(b.get(1, 1, 1, 2), 0.0);
    }

    #[test]
    fn pt_places_sweep_axis() {
        assert_eq!(pt(0, 7, 2, 3), (7, 2, 3));
        assert_eq!(pt(1, 7, 2, 3), (2, 7, 3));
        assert_eq!(pt(2, 7, 2, 3), (2, 3, 7));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // dense Gaussian elimination reads clearer indexed
    fn sp_solver_matches_thomas() {
        // 1-D solve along x at (j,k)=(2,2): compare against a direct
        // dense solve of the tridiagonal system the kernels encode.
        let n = 8;
        let mut f = Fields::new(n, SpSolver::NCOEF);
        for k in 1..=n {
            for j in 1..=n {
                for i in 1..=n {
                    for m in 1..=5 {
                        f.u.set(m, i, j, k, init_u(m, i, j, k));
                        f.rhs.set(m, i, j, k, (i + j + k + m) as f64 * 0.01);
                    }
                    let r = reciprocals(&f.u, i, j, k);
                    for (c, v) in r.iter().enumerate() {
                        f.recip.set(c + 1, i, j, k, *v);
                    }
                }
            }
        }
        let (j, k) = (2, 2);
        let rhs_orig: Vec<f64> = (2..n).map(|i| f.rhs.get(1, i, j, k)).collect();
        // build + solve via kernels
        for i in 2..n {
            let cv = cv3::<SpSolver>(&f.recip, 0, i, j, k, true);
            SpSolver::build(&mut f.coef, (i, j, k), cv);
        }
        let coefs: Vec<[f64; 3]> = (2..n)
            .map(|i| {
                [
                    f.coef.get(1, i, j, k),
                    f.coef.get(2, i, j, k),
                    f.coef.get(3, i, j, k),
                ]
            })
            .collect();
        SpSolver::norm_first(&mut f.coef, &mut f.rhs, (2, j, k));
        for i in 3..n {
            SpSolver::forward(&mut f.coef, &mut f.rhs, (i, j, k), (i - 1, j, k));
        }
        for i in (2..n - 1).rev() {
            SpSolver::backward(&f.coef, &mut f.rhs, (i, j, k), (i + 1, j, k));
        }
        // dense check: A x = rhs_orig
        let sz = n - 2;
        let mut amat = vec![vec![0.0f64; sz]; sz];
        for (r, c3) in coefs.iter().enumerate() {
            if r > 0 {
                amat[r][r - 1] = c3[0];
            }
            amat[r][r] = c3[1];
            if r + 1 < sz {
                amat[r][r + 1] = c3[2];
            }
        }
        // Gaussian elimination
        let mut b = rhs_orig.clone();
        let mut a = amat.clone();
        for p in 0..sz {
            let piv = a[p][p];
            for c in p..sz {
                a[p][c] /= piv;
            }
            b[p] /= piv;
            for r in 0..sz {
                if r != p && a[r][p] != 0.0 {
                    let f0 = a[r][p];
                    for c in p..sz {
                        a[r][c] -= f0 * a[p][c];
                    }
                    b[r] -= f0 * b[p];
                }
            }
        }
        for (r, expect) in b.iter().enumerate() {
            let got = f.rhs.get(1, r + 2, j, k);
            assert!((got - expect).abs() < 1e-9, "row {r}: {got} vs {expect}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // dense Gaussian elimination reads clearer indexed
    fn bt_binvc_inverts() {
        // after norm_first (Gauss-Jordan), B should act as identity:
        // check B^-1 * (B x) == x via the rhs path
        let n = 4;
        let mut f = Fields::new(n, BtSolver::NCOEF);
        let p = (2, 2, 2);
        // diagonally dominant B, random-ish C, rhs
        for m in 1..=5 {
            for q in 1..=5 {
                f.coef
                    .set(b_of(m, q), p.0, p.1, p.2, if m == q { 3.0 } else { 0.2 });
                f.coef.set(c_of(m, q), p.0, p.1, p.2, 0.1 * (m + q) as f64);
            }
            f.rhs.set(m, p.0, p.1, p.2, m as f64);
        }
        // compute expected x = B^-1 rhs by dense elimination
        let mut a = vec![vec![0.0f64; 5]; 5];
        let mut b = [0.0f64; 5];
        for m in 1..=5 {
            for q in 1..=5 {
                a[m - 1][q - 1] = f.coef.get(b_of(m, q), p.0, p.1, p.2);
            }
            b[m - 1] = f.rhs.get(m, p.0, p.1, p.2);
        }
        for pp in 0..5 {
            let piv = a[pp][pp];
            for c in 0..5 {
                a[pp][c] /= piv;
            }
            b[pp] /= piv;
            for r in 0..5 {
                if r != pp {
                    let f0 = a[r][pp];
                    for c in 0..5 {
                        a[r][c] -= f0 * a[pp][c];
                    }
                    b[r] -= f0 * b[pp];
                }
            }
        }
        BtSolver::norm_first(&mut f.coef, &mut f.rhs, p);
        for m in 1..=5 {
            assert!(
                (f.rhs.get(m, p.0, p.1, p.2) - b[m - 1]).abs() < 1e-9,
                "component {m}"
            );
        }
    }

    #[test]
    fn gather_by_owner() {
        let n = 4;
        let mut a0 = Array4::new(1, n);
        let mut a1 = Array4::new(1, n);
        for k in 1..=n {
            for j in 1..=n {
                for i in 1..=n {
                    a0.set(1, i, j, k, 100.0);
                    a1.set(1, i, j, k, 200.0);
                }
            }
        }
        let parts = BTreeMap::from([(0usize, a0), (1usize, a1)]);
        let g = gather(parts, n, 1, &|_i, j, _k| usize::from(j > 2));
        assert_eq!(g.get(1, 1, 1, 1), 100.0);
        assert_eq!(g.get(1, 1, 4, 1), 200.0);
    }
}
