//! Problem classes, scaled from the NAS originals to sizes the
//! interpreted-compiled versions can run in CI time (the paper's Class A
//! is 64³ for SP / 64³ for BT and Class B is 102³; the *ratios* between
//! classes and the processor counts are preserved).

use std::collections::BTreeMap;

/// A problem class: grid size and timestep count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Sanity-test size.
    S,
    /// Workstation size (unit tests).
    W,
    /// Scaled stand-in for the paper's Class A.
    A,
    /// Scaled stand-in for the paper's Class B.
    B,
}

impl Class {
    /// Grid points per dimension.
    pub fn n(self) -> usize {
        match self {
            Class::S => 8,
            Class::W => 12,
            Class::A => 24,
            Class::B => 36,
        }
    }

    /// Benchmark timesteps.
    pub fn niter(self) -> usize {
        match self {
            Class::S => 2,
            Class::W => 2,
            Class::A => 2,
            Class::B => 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::S => "S",
            Class::W => "W",
            Class::A => "A",
            Class::B => "B",
        }
    }
}

/// Processor-grid factorization `(npy, npz)` for `p` processors —
/// near-square, matching the Rice implementations' 2-D BLOCK layout.
pub fn grid_for(p: usize) -> (usize, usize) {
    let mut npy = (p as f64).sqrt() as usize;
    while npy > 1 && !p.is_multiple_of(npy) {
        npy -= 1;
    }
    (npy.max(1), p / npy.max(1))
}

/// Symbol bindings of the SP and BT sources (which declare the same
/// sizes) for a class and processor grid.
pub fn bindings(class: Class, nprocs: usize) -> BTreeMap<String, i64> {
    let n = class.n() as i64;
    let (npy, npz) = grid_for(nprocs);
    BTreeMap::from([
        ("nx".to_string(), n),
        ("ny".to_string(), n),
        ("nz".to_string(), n),
        ("niter".to_string(), class.niter() as i64),
        ("npy".to_string(), npy as i64),
        ("npz".to_string(), npz as i64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_scale_up() {
        assert!(Class::S.n() < Class::W.n());
        assert!(Class::W.n() < Class::A.n());
        assert!(Class::A.n() < Class::B.n());
    }

    #[test]
    fn grids_factorize() {
        for p in [1, 2, 4, 8, 9, 16, 25, 32] {
            let (a, b) = grid_for(p);
            assert_eq!(a * b, p);
            assert!(a <= b);
        }
        assert_eq!(grid_for(25), (5, 5));
        assert_eq!(grid_for(16), (4, 4));
    }
}
