//! Distribution topologies: block partitions and the NPB
//! multipartitioning (diagonal cell) scheme.

/// Split `n` elements (indices `0..n`) across `p` processors in
/// contiguous blocks (HPF `BLOCK` distribution with block size
/// `⌈n/p⌉`). Returns the half-open range `lo..hi` owned by `idx`
/// (possibly empty for trailing processors).
pub fn block_partition(n: usize, p: usize, idx: usize) -> (usize, usize) {
    assert!(idx < p);
    let b = n.div_ceil(p);
    let lo = (b * idx).min(n);
    let hi = (b * (idx + 1)).min(n);
    (lo, hi)
}

/// NPB-style 3-D **multipartitioning** for `P = q²` processors
/// (van der Wijngaart / Naik [paper ref 9]).
///
/// The cubic domain is diced into `q × q × q` cells. Cell `(c1, c2, c3)`
/// is owned by processor
///
/// ```text
/// p = ((c1 + c3) mod q) + q · ((c2 + c3) mod q)
/// ```
///
/// so each processor owns exactly `q` cells — one in each layer along
/// every axis — and during a directional sweep every processor has
/// exactly one active cell at every stage. That is the property that
/// gives the hand-written MPI codes their near-perfect load balance
/// (Figures 8.1 / 8.3 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiPartition {
    pub q: usize,
}

impl MultiPartition {
    /// `nprocs` must be a perfect square.
    pub fn new(nprocs: usize) -> Option<Self> {
        let q = (nprocs as f64).sqrt().round() as usize;
        (q * q == nprocs && q >= 1).then_some(MultiPartition { q })
    }

    pub fn nprocs(&self) -> usize {
        self.q * self.q
    }

    /// Owner of cell `(c1, c2, c3)`.
    pub fn owner(&self, c: [usize; 3]) -> usize {
        let q = self.q;
        ((c[0] + c[2]) % q) + q * ((c[1] + c[2]) % q)
    }

    /// The `q` cells a rank owns, ordered by `c3` layer.
    pub fn cells(&self, rank: usize) -> Vec<[usize; 3]> {
        let q = self.q;
        assert!(rank < q * q);
        let p1 = rank % q;
        let p2 = rank / q;
        (0..q)
            .map(|c3| {
                let c1 = (p1 + q - c3 % q) % q;
                let c2 = (p2 + q - c3 % q) % q;
                [c1, c2, c3]
            })
            .collect()
    }

    /// The active cell of `rank` at `stage` of a sweep along `axis`
    /// (`0 → c1`, `1 → c2`, `2 → c3`): the unique owned cell whose
    /// coordinate along `axis` equals `stage`.
    pub fn active_cell(&self, rank: usize, axis: usize, stage: usize) -> [usize; 3] {
        let q = self.q;
        assert!(axis < 3 && stage < q);
        let p1 = rank % q;
        let p2 = rank / q;
        match axis {
            0 => {
                // c1 = stage ⇒ c3 = (p1 - c1) mod q, c2 = (p2 - c3) mod q
                let c3 = (p1 + q - stage % q) % q;
                let c2 = (p2 + q - c3) % q;
                [stage, c2, c3]
            }
            1 => {
                let c3 = (p2 + q - stage % q) % q;
                let c1 = (p1 + q - c3) % q;
                [c1, stage, c3]
            }
            _ => {
                let c1 = (p1 + q - stage % q) % q;
                let c2 = (p2 + q - stage % q) % q;
                [c1, c2, stage]
            }
        }
    }

    /// Cell extents along one axis for `n` global points: cell `c` covers
    /// `range(n, q, c)`.
    pub fn cell_range(&self, n: usize, c: usize) -> (usize, usize) {
        block_partition(n, self.q, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_partition_covers_exactly() {
        for n in [1usize, 7, 16, 33] {
            for p in [1usize, 2, 3, 5] {
                let mut covered = vec![false; n];
                for idx in 0..p {
                    let (lo, hi) = block_partition(n, p, idx);
                    for c in &mut covered[lo..hi] {
                        assert!(!*c);
                        *c = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn multipartition_each_proc_owns_q_cells() {
        for nprocs in [1usize, 4, 9, 16, 25] {
            let mp = MultiPartition::new(nprocs).unwrap();
            let q = mp.q;
            let mut owned = vec![0usize; nprocs];
            for c1 in 0..q {
                for c2 in 0..q {
                    for c3 in 0..q {
                        owned[mp.owner([c1, c2, c3])] += 1;
                    }
                }
            }
            assert!(owned.iter().all(|&c| c == q), "nprocs={nprocs}: {owned:?}");
            // cells() agrees with owner()
            for r in 0..nprocs {
                let cells = mp.cells(r);
                assert_eq!(cells.len(), q);
                for c in cells {
                    assert_eq!(mp.owner(c), r, "rank {r} cell {c:?}");
                }
            }
        }
    }

    #[test]
    fn multipartition_one_active_cell_per_stage() {
        for nprocs in [4usize, 9, 25] {
            let mp = MultiPartition::new(nprocs).unwrap();
            let q = mp.q;
            for axis in 0..3 {
                for stage in 0..q {
                    let mut seen = vec![false; nprocs];
                    for (r, s) in seen.iter_mut().enumerate() {
                        let c = mp.active_cell(r, axis, stage);
                        assert_eq!(c[axis], stage);
                        assert_eq!(mp.owner(c), r, "axis {axis} stage {stage} rank {r}");
                        assert!(!*s);
                        *s = true;
                    }
                    // all cells at this stage are covered exactly once:
                    // q² cells at a stage, q² processors, bijective.
                }
            }
        }
    }

    #[test]
    fn multipartition_rejects_non_square() {
        assert!(MultiPartition::new(6).is_none());
        assert!(MultiPartition::new(2).is_none());
        assert!(MultiPartition::new(16).is_some());
    }
}
