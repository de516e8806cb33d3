//! Local storage for distributed arrays: each processor allocates the
//! rectangular region it owns plus ghost (overlap) cells, indexed by
//! *global* coordinates. Pack/unpack helpers move rectangular sections in
//! and out of message buffers.
//!
//! This is the runtime realization of dHPF's "overlap areas": the
//! compiler's communication analysis decides which boundary sections to
//! exchange, and the generated code copies them into the neighbors' ghost
//! cells.

/// A dense local window of a global array (column-major like Fortran:
/// the *first* dimension is contiguous).
#[derive(Clone, Debug)]
pub struct LocalArray {
    /// First allocated global index per dimension (owned lo − ghost).
    alo: Vec<i64>,
    /// Allocated extent per dimension.
    shape: Vec<usize>,
    /// Column-major strides.
    strides: Vec<usize>,
    data: Vec<f64>,
}

impl LocalArray {
    /// Allocate the window `[owned_lo[d] - ghost[d], owned_hi[d] + ghost[d]]`
    /// (inclusive) per dimension, zero-filled.
    pub fn new(owned_lo: &[i64], owned_hi: &[i64], ghost: &[usize]) -> Self {
        assert_eq!(owned_lo.len(), owned_hi.len());
        assert_eq!(owned_lo.len(), ghost.len());
        let alo: Vec<i64> = owned_lo
            .iter()
            .zip(ghost)
            .map(|(l, g)| l - *g as i64)
            .collect();
        let shape: Vec<usize> = owned_lo
            .iter()
            .zip(owned_hi)
            .zip(ghost)
            .map(|((l, h), g)| {
                assert!(h >= l, "empty dimension {l}..{h}");
                (h - l + 1) as usize + 2 * g
            })
            .collect();
        let mut strides = vec![0usize; shape.len()];
        let mut acc = 1usize;
        for (d, s) in shape.iter().enumerate() {
            strides[d] = acc;
            acc *= s;
        }
        LocalArray {
            alo,
            shape,
            strides,
            data: vec![0.0; acc],
        }
    }

    /// A full (non-distributed) array covering `[lo, hi]` per dim.
    pub fn dense(lo: &[i64], hi: &[i64]) -> Self {
        Self::new(lo, hi, &vec![0; lo.len()])
    }

    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// First allocated global index per dimension.
    pub fn alloc_lo(&self) -> &[i64] {
        &self.alo
    }

    /// Last allocated global index per dimension.
    pub fn alloc_hi(&self) -> Vec<i64> {
        self.alo
            .iter()
            .zip(&self.shape)
            .map(|(l, s)| l + *s as i64 - 1)
            .collect()
    }

    /// Whether a global index lies in the allocated window.
    pub fn in_window(&self, idx: &[i64]) -> bool {
        idx.len() == self.rank()
            && idx
                .iter()
                .enumerate()
                .all(|(d, &i)| self.dim_in_window(d, i))
    }

    /// Whether `i` lies in the allocated window of dimension `d`.
    pub fn dim_in_window(&self, d: usize, i: i64) -> bool {
        i >= self.alo[d] && i < self.alo[d] + self.shape[d] as i64
    }

    /// Flat offset of a global index (panics outside the window in debug).
    #[inline]
    pub fn offset(&self, idx: &[i64]) -> usize {
        debug_assert!(self.in_window(idx), "index {idx:?} outside window");
        idx.iter()
            .zip(&self.alo)
            .zip(&self.strides)
            .map(|((&i, &lo), &s)| (i - lo) as usize * s)
            .sum()
    }

    /// Column-major strides (for callers that maintain flat cursors).
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    #[inline]
    pub fn get(&self, idx: &[i64]) -> f64 {
        self.data[self.offset(idx)]
    }

    #[inline]
    pub fn set(&mut self, idx: &[i64], v: f64) {
        let off = self.offset(idx);
        self.data[off] = v;
    }

    /// Raw data access.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Append the rectangular section `[lo, hi]` (inclusive, global
    /// coords) to `out` in column-major order.
    pub fn pack_into(&self, lo: &[i64], hi: &[i64], out: &mut Vec<f64>) {
        out.reserve(section_len(lo, hi));
        self.for_each_run(lo, hi, |off, len| {
            out.extend_from_slice(&self.data[off..off + len])
        });
    }

    /// Unpack a flat buffer (as produced by [`LocalArray::pack_into`])
    /// into the section `[lo, hi]`.
    pub fn unpack(&mut self, lo: &[i64], hi: &[i64], buf: &[f64]) {
        assert_eq!(
            buf.len(),
            section_len(lo, hi),
            "buffer/section size mismatch"
        );
        let mut rest = buf;
        // the walk reads only the window geometry, so the data can be
        // written while it runs
        let mut data = std::mem::take(&mut self.data);
        self.for_each_run(lo, hi, |off, len| {
            let (run, tail) = rest.split_at(len);
            data[off..off + len].copy_from_slice(run);
            rest = tail;
        });
        self.data = data;
    }

    /// Visit the section's contiguous first-dimension runs as
    /// `(flat offset, length)` in column-major order. A section that is
    /// empty in any dimension visits nothing.
    fn for_each_run(&self, lo: &[i64], hi: &[i64], mut f: impl FnMut(usize, usize)) {
        assert_eq!(lo.len(), self.rank());
        assert_eq!(hi.len(), self.rank());
        if lo.iter().zip(hi).any(|(l, h)| l > h) {
            return;
        }
        debug_assert!(
            self.in_window(lo) && self.in_window(hi),
            "section outside window"
        );
        let Some(len) = lo.first().map(|l| (hi[0] - l + 1) as usize) else {
            return f(0, 1); // rank 0: the single element
        };
        let rank = self.rank();
        let mut idx: Vec<i64> = lo.to_vec();
        loop {
            f(self.offset(&idx), len);
            // odometer over the outer dimensions, second dim fastest
            let mut d = 1;
            loop {
                if d == rank {
                    return;
                }
                idx[d] += 1;
                if idx[d] <= hi[d] {
                    break;
                }
                idx[d] = lo[d];
                d += 1;
            }
        }
    }
}

/// Number of points in an inclusive rectangular section.
pub fn section_len(lo: &[i64], hi: &[i64]) -> usize {
    lo.iter()
        .zip(hi)
        .map(|(l, h)| (h - l + 1).max(0) as usize)
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip() {
        let mut a = LocalArray::dense(&[1, 1], &[3, 2]);
        a.set(&[1, 1], 11.0);
        a.set(&[3, 2], 32.0);
        assert_eq!(a.get(&[1, 1]), 11.0);
        assert_eq!(a.get(&[3, 2]), 32.0);
        assert_eq!(a.get(&[2, 2]), 0.0);
    }

    #[test]
    fn ghost_window_extends_bounds() {
        let a = LocalArray::new(&[4, 0], &[7, 9], &[2, 0]);
        assert_eq!(a.alloc_lo(), &[2, 0]);
        assert_eq!(a.alloc_hi(), vec![9, 9]);
        assert!(a.in_window(&[2, 0]));
        assert!(a.in_window(&[9, 9]));
        assert!(!a.in_window(&[1, 0]));
        assert!(!a.in_window(&[2, 10]));
    }

    #[test]
    fn column_major_layout() {
        let a = LocalArray::dense(&[0, 0], &[2, 1]);
        // first dim contiguous
        assert_eq!(a.offset(&[1, 0]) - a.offset(&[0, 0]), 1);
        assert_eq!(a.offset(&[0, 1]) - a.offset(&[0, 0]), 3);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let mut a = LocalArray::dense(&[0, 0], &[3, 3]);
        for i in 0..=3i64 {
            for j in 0..=3i64 {
                a.set(&[i, j], (10 * i + j) as f64);
            }
        }
        let mut buf = Vec::new();
        a.pack_into(&[1, 0], &[2, 3], &mut buf);
        assert_eq!(buf.len(), 8);
        // column-major: (1,0),(2,0),(1,1),(2,1),...
        assert_eq!(buf[0], 10.0);
        assert_eq!(buf[1], 20.0);
        assert_eq!(buf[2], 11.0);

        let mut b = LocalArray::dense(&[0, 0], &[3, 3]);
        b.unpack(&[1, 0], &[2, 3], &buf);
        for i in 1..=2i64 {
            for j in 0..=3i64 {
                assert_eq!(b.get(&[i, j]), a.get(&[i, j]));
            }
        }
        assert_eq!(b.get(&[0, 0]), 0.0);
    }

    #[test]
    fn ghost_exchange_pattern() {
        // two "processors": p0 owns i in 0..=3, p1 owns 4..=7, ghost 1.
        let mut p0 = LocalArray::new(&[0], &[3], &[1]);
        let mut p1 = LocalArray::new(&[4], &[7], &[1]);
        for i in 0..=3i64 {
            p0.set(&[i], i as f64);
        }
        for i in 4..=7i64 {
            p1.set(&[i], i as f64);
        }
        // exchange boundary values into ghosts
        let (mut from0, mut from1) = (Vec::new(), Vec::new());
        p0.pack_into(&[3], &[3], &mut from0);
        p1.pack_into(&[4], &[4], &mut from1);
        p1.unpack(&[3], &[3], &from0);
        p0.unpack(&[4], &[4], &from1);
        assert_eq!(p0.get(&[4]), 4.0);
        assert_eq!(p1.get(&[3]), 3.0);
    }

    #[test]
    fn pack_unpack_roundtrip_3d_with_ghost() {
        // owned 2..=5 x 1..=3 x 0..=2 with ghosts (1, 0, 2): the section
        // reaches into ghost cells and is appended after earlier payload
        let mut a = LocalArray::new(&[2, 1, 0], &[5, 3, 2], &[1, 0, 2]);
        let value = |i: i64, j: i64, k: i64| (100 * i + 10 * j + k) as f64;
        for k in -2..=4i64 {
            for j in 1..=3i64 {
                for i in 1..=6i64 {
                    a.set(&[i, j, k], value(i, j, k));
                }
            }
        }
        let (lo, hi) = ([1, 2, -1], [4, 3, 3]);
        let mut buf = vec![-1.0];
        a.pack_into(&lo, &hi, &mut buf);
        assert_eq!(buf.len(), 1 + section_len(&lo, &hi));
        assert_eq!(buf[0], -1.0, "pack_into appends");
        // column-major: first dim fastest, then second, then third
        assert_eq!(&buf[1..6], &[119.0, 219.0, 319.0, 419.0, 129.0]);

        let mut b = LocalArray::new(&[2, 1, 0], &[5, 3, 2], &[1, 0, 2]);
        b.unpack(&lo, &hi, &buf[1..]);
        for k in -2..=4i64 {
            for j in 1..=3i64 {
                for i in 1..=6i64 {
                    let inside =
                        (1..=4).contains(&i) && (2..=3).contains(&j) && (-1..=3).contains(&k);
                    let want = if inside { value(i, j, k) } else { 0.0 };
                    assert_eq!(b.get(&[i, j, k]), want, "({i},{j},{k})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "buffer/section size mismatch")]
    fn unpack_rejects_wrong_length() {
        let mut a = LocalArray::dense(&[1, 1], &[4, 4]);
        a.unpack(&[1, 1], &[2, 2], &[0.0; 3]);
    }

    #[test]
    fn section_len_empty() {
        assert_eq!(section_len(&[2], &[1]), 0);
        assert_eq!(section_len(&[0, 0], &[1, 2]), 6);
    }
}

#[cfg(test)]
mod empty_section_tests {
    use super::*;

    #[test]
    fn empty_section_packs_nothing() {
        let a = LocalArray::dense(&[1, 1], &[4, 4]);
        let mut buf = Vec::new();
        a.pack_into(&[2, 3], &[4, 2], &mut buf);
        assert!(buf.is_empty(), "lo > hi in dim 1");
        a.pack_into(&[3, 1], &[2, 4], &mut buf);
        assert!(buf.is_empty(), "lo > hi in dim 0");
    }

    #[test]
    fn empty_section_unpacks_nothing() {
        let mut a = LocalArray::dense(&[1], &[4]);
        a.unpack(&[3], &[2], &[]);
        assert!(a.data().iter().all(|v| *v == 0.0));
    }
}
