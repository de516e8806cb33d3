//! The two hand-written parallel drivers: diagonal multipartitioning
//! (NPB2.3b2-style hand MPI) and the 1-D + transpose scheme (the `pghpf`
//! stand-in).

use super::*;
use crate::cost::PhaseCosts;
use dhpf_spmd::machine::{Machine, MachineConfig, Proc, RunResult};
use dhpf_spmd::topo::{block_partition, MultiPartition};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Result of a hand-written run: machine outcome + gathered fields.
pub struct HandResult {
    pub run: RunResult,
    pub u: Array4,
    pub rhs: Array4,
}

/// Inclusive 1-based range of cell `c` (0-based) along an axis.
fn cell_range(n: usize, q: usize, c: usize) -> (usize, usize) {
    let (lo, hi) = block_partition(n, q, c);
    (lo + 1, hi) // convert 0-based half-open to 1-based inclusive
}

fn clamp(r: (usize, usize), lo: usize, hi: usize) -> (usize, usize) {
    (r.0.max(lo), r.1.min(hi))
}

fn span(r: (usize, usize)) -> usize {
    if r.1 >= r.0 {
        r.1 - r.0 + 1
    } else {
        0
    }
}

/// The multipartitioning of an `n³` grid over `nprocs` processors:
/// `nprocs` must be a perfect square and every cell non-empty
/// (ceil-blocks leave trailing cells empty when (q-1)·⌈n/q⌉ ≥ n).
pub fn multipart_for(n: usize, nprocs: usize) -> Option<MultiPartition> {
    let mp = MultiPartition::new(nprocs)?;
    let (lo, hi) = cell_range(n, mp.q, mp.q - 1);
    (lo <= hi).then_some(mp)
}

/// Run the multipartitioning version. `nprocs` must be a perfect square
/// with `q | n`; returns `None` otherwise (the hand-written NPB codes
/// have the same restriction).
pub fn run_multipart<S: LineSolver>(
    n: usize,
    niter: usize,
    nprocs: usize,
    machine: MachineConfig,
    costs: &PhaseCosts,
    sp_mix: bool,
) -> Option<HandResult> {
    let mp = multipart_for(n, nprocs)?;
    let q = mp.q;
    let finals: Mutex<BTreeMap<usize, (Array4, Array4)>> = Mutex::new(BTreeMap::new());
    let costs = costs.clone();

    let run = Machine::run(machine, |proc| {
        let rank = proc.rank();
        let cells = mp.cells(rank);
        let mut f = Fields::new(n, S::NCOEF);
        let cell_pts = (n / q).pow(3) as f64;

        // ---- initialize ----------------------------------------------------
        for c in &cells {
            let (ir, jr, kr) = (
                cell_range(n, q, c[0]),
                cell_range(n, q, c[1]),
                cell_range(n, q, c[2]),
            );
            for k in kr.0..=kr.1 {
                for j in jr.0..=jr.1 {
                    for i in ir.0..=ir.1 {
                        for m in 1..=5 {
                            f.u.set(m, i, j, k, init_u(m, i, j, k));
                            f.rhs.set(m, i, j, k, 0.0);
                        }
                    }
                }
            }
            proc.work(cell_pts * costs.of("initialize"));
        }

        for step in 0..niter {
            let base = (step as u64 + 1) * 100_000;
            proc.phase("compute_rhs");
            exchange_u_faces(proc, &mp, &cells, &mut f.u, n, base);
            // reciprocals on the extended (face-ghosted) region + rhs
            for c in &cells {
                let ranges = [
                    cell_range(n, q, c[0]),
                    cell_range(n, q, c[1]),
                    cell_range(n, q, c[2]),
                ];
                compute_recips_extended(&f.u, &mut f.recip, n, &ranges);
                let ir = clamp(ranges[0], 2, n - 1);
                let jr = clamp(ranges[1], 2, n - 1);
                let kr = clamp(ranges[2], 2, n - 1);
                for k in kr.0..=kr.1 {
                    for j in jr.0..=jr.1 {
                        for i in ir.0..=ir.1 {
                            rhs_point(&f.u, &f.recip, &mut f.rhs, i, j, k);
                        }
                    }
                }
                proc.work(cell_pts * costs.of("compute_rhs"));
            }

            for axis in 0..3 {
                let phase = ["x_solve", "y_solve", "z_solve"][axis];
                proc.phase(phase);
                // charge fractions of the phase's GLOBAL budget: the
                // solve works on interior points only, so a per-point
                // charge over interior counts would under-bill relative
                // to the calibrated per-point (over n³) weights
                let interior = ((n - 2) as f64).powi(3);
                let cost = costs.of(phase) * (n as f64).powi(3) / interior;
                multipart_solve::<S>(
                    proc,
                    &mp,
                    rank,
                    axis,
                    n,
                    &mut f,
                    cost,
                    sp_mix,
                    base + 10_000 * (axis as u64 + 1),
                );
            }

            proc.phase("add");
            for c in &cells {
                let ir = clamp(cell_range(n, q, c[0]), 2, n - 1);
                let jr = clamp(cell_range(n, q, c[1]), 2, n - 1);
                let kr = clamp(cell_range(n, q, c[2]), 2, n - 1);
                for k in kr.0..=kr.1 {
                    for j in jr.0..=jr.1 {
                        for i in ir.0..=ir.1 {
                            add_point(&mut f.u, &f.rhs, i, j, k);
                        }
                    }
                }
                proc.work(cell_pts * costs.of("add"));
            }
        }
        finals.lock().unwrap().insert(rank, (f.u, f.rhs));
    });

    // gather by cell ownership
    let finals = finals.into_inner().unwrap();
    let owner = |i: usize, j: usize, k: usize| -> usize {
        let cell_of = |x: usize| -> usize {
            (0..q)
                .find(|&c| {
                    let (lo, hi) = cell_range(n, q, c);
                    x >= lo && x <= hi
                })
                .unwrap()
        };
        mp.owner([cell_of(i), cell_of(j), cell_of(k)])
    };
    let us: BTreeMap<usize, Array4> = finals.iter().map(|(r, (u, _))| (*r, u.clone())).collect();
    let rs: BTreeMap<usize, Array4> = finals.iter().map(|(r, (_, rh))| (*r, rh.clone())).collect();
    Some(HandResult {
        run,
        u: gather(us, n, 5, &owner),
        rhs: gather(rs, n, 5, &owner),
    })
}

/// Exchange the 6 face planes of `u` for every owned cell (the
/// hand-written codes' `copy_faces`).
fn exchange_u_faces(
    proc: &mut Proc,
    mp: &MultiPartition,
    cells: &[[usize; 3]],
    u: &mut Array4,
    n: usize,
    base: u64,
) {
    let q = mp.q;
    let lin = |c: &[usize; 3]| (c[0] + q * (c[1] + q * c[2])) as u64;
    // sends
    for c in cells {
        for axis in 0..3 {
            for dir in [-1i64, 1] {
                let nc_a = c[axis] as i64 + dir;
                if nc_a < 0 || nc_a >= q as i64 {
                    continue;
                }
                let mut nc = *c;
                nc[axis] = nc_a as usize;
                let to = mp.owner(nc);
                let my = [
                    cell_range(n, q, c[0]),
                    cell_range(n, q, c[1]),
                    cell_range(n, q, c[2]),
                ];
                let s = if dir > 0 { my[axis].1 } else { my[axis].0 };
                let mut r = my;
                r[axis] = (s, s);
                let mut buf = Vec::new();
                pack_region(u, (1, 5), r[0], r[1], r[2], &mut buf);
                let tag = base + lin(c) * 8 + (axis as u64) * 2 + u64::from(dir > 0);
                proc.send(to, tag, buf);
            }
        }
    }
    // receives (matching: the plane adjacent to my cell on side `dir`
    // was sent by the neighbor cell with the OPPOSITE direction flag)
    for c in cells {
        for axis in 0..3 {
            for dir in [-1i64, 1] {
                let nc_a = c[axis] as i64 + dir;
                if nc_a < 0 || nc_a >= q as i64 {
                    continue;
                }
                let mut nc = *c;
                nc[axis] = nc_a as usize;
                let from = mp.owner(nc);
                let their = [
                    cell_range(n, q, nc[0]),
                    cell_range(n, q, nc[1]),
                    cell_range(n, q, nc[2]),
                ];
                let s = if dir > 0 {
                    their[axis].0
                } else {
                    their[axis].1
                };
                let mut r = their;
                r[axis] = (s, s);
                let tag = base + lin(&nc) * 8 + (axis as u64) * 2 + u64::from(dir < 0);
                let buf = proc.recv(from, tag);
                let mut pos = 0;
                unpack_region(u, (1, 5), r[0], r[1], r[2], &buf, &mut pos);
            }
        }
    }
}

/// Reciprocals over a cell expanded by one face layer per axis
/// (corner/edge points outside two axes at once are skipped — never
/// read by the stencils).
fn compute_recips_extended(u: &Array4, recip: &mut Array4, n: usize, ranges: &[(usize, usize); 3]) {
    let ext = |r: (usize, usize)| (r.0.saturating_sub(1).max(1), (r.1 + 1).min(n));
    let (ei, ej, ek) = (ext(ranges[0]), ext(ranges[1]), ext(ranges[2]));
    let inside = |x: usize, r: (usize, usize)| x >= r.0 && x <= r.1;
    for k in ek.0..=ek.1 {
        for j in ej.0..=ej.1 {
            for i in ei.0..=ei.1 {
                let out = usize::from(!inside(i, ranges[0]))
                    + usize::from(!inside(j, ranges[1]))
                    + usize::from(!inside(k, ranges[2]));
                if out > 1 {
                    continue;
                }
                let r = reciprocals(u, i, j, k);
                for (c, v) in r.iter().enumerate() {
                    recip.set(c + 1, i, j, k, *v);
                }
            }
        }
    }
}

/// One multipartitioned line solve along `axis` (build → staged forward
/// elimination → staged back substitution).
#[allow(clippy::too_many_arguments)]
fn multipart_solve<S: LineSolver>(
    proc: &mut Proc,
    mp: &MultiPartition,
    rank: usize,
    axis: usize,
    n: usize,
    f: &mut Fields,
    phase_cost: f64,
    sp_mix: bool,
    base: u64,
) {
    let q = mp.q;
    let cells = mp.cells(rank);
    let cross = |c: &[usize; 3]| -> ((usize, usize), (usize, usize)) {
        let other: Vec<usize> = (0..3).filter(|d| *d != axis).collect();
        (
            clamp(cell_range(n, q, c[other[0]]), 2, n - 1),
            clamp(cell_range(n, q, c[other[1]]), 2, n - 1),
        )
    };

    // ---- build -------------------------------------------------------------
    for c in &cells {
        let (ar, br) = cross(c);
        let sr = clamp(cell_range(n, q, c[axis]), 2, n - 1);
        for b in br.0..=br.1 {
            for a in ar.0..=ar.1 {
                for s in sr.0..=sr.1 {
                    let cv = cv3::<S>(&f.recip, axis, s, a, b, sp_mix);
                    S::build(&mut f.coef, pt(axis, s, a, b), cv);
                }
            }
        }
        let pts = (span(sr) * span(ar) * span(br)) as f64;
        proc.work(pts * phase_cost * S::SPLIT[0]);
    }

    // ---- forward elimination (staged pipeline) ------------------------------
    for stage in 0..q {
        let c = mp.active_cell(rank, axis, stage);
        let (ar, br) = cross(&c);
        let sr = cell_range(n, q, c[axis]);
        let words = S::TAIL + 5;
        if stage > 0 {
            // receive the previous cell's last normalized plane
            let mut prev_c = c;
            prev_c[axis] = c[axis] - 1;
            let from = mp.owner(prev_c);
            let buf = proc.recv(from, base + stage as u64);
            let mut pos = 0;
            let s = sr.0 - 1;
            for b in br.0..=br.1 {
                for a in ar.0..=ar.1 {
                    let p = pt(axis, s, a, b);
                    S::unpack_tail(&mut f.coef, p, &buf, &mut pos);
                    for m in 1..=5 {
                        f.rhs.set(m, p.0, p.1, p.2, buf[pos]);
                        pos += 1;
                    }
                }
            }
            debug_assert_eq!(pos, span(ar) * span(br) * words);
        }
        // eliminate through this cell
        let lo = if stage == 0 { 2 } else { sr.0 };
        let hi = sr.1.min(n - 1);
        for b in br.0..=br.1 {
            for a in ar.0..=ar.1 {
                let mut s = lo;
                if stage == 0 {
                    S::norm_first(&mut f.coef, &mut f.rhs, pt(axis, 2, a, b));
                    s = 3;
                }
                while s <= hi {
                    S::forward(
                        &mut f.coef,
                        &mut f.rhs,
                        pt(axis, s, a, b),
                        pt(axis, s - 1, a, b),
                    );
                    s += 1;
                }
            }
        }
        let rows = if hi >= lo { hi - lo + 1 } else { 0 };
        proc.work((rows * span(ar) * span(br)) as f64 * phase_cost * S::SPLIT[1]);
        if stage + 1 < q {
            // send my last plane to the next cell's owner
            let mut next_c = c;
            next_c[axis] = c[axis] + 1;
            let to = mp.owner(next_c);
            let s = sr.1;
            let mut buf = Vec::with_capacity(span(ar) * span(br) * words);
            for b in br.0..=br.1 {
                for a in ar.0..=ar.1 {
                    let p = pt(axis, s, a, b);
                    S::pack_tail(&f.coef, p, &mut buf);
                    for m in 1..=5 {
                        buf.push(f.rhs.get(m, p.0, p.1, p.2));
                    }
                }
            }
            proc.send(to, base + stage as u64 + 1, buf);
        }
    }

    // ---- back substitution (reverse pipeline) --------------------------------
    for stage in (0..q).rev() {
        let c = mp.active_cell(rank, axis, stage);
        let (ar, br) = cross(&c);
        let sr = cell_range(n, q, c[axis]);
        if stage + 1 < q {
            let mut next_c = c;
            next_c[axis] = c[axis] + 1;
            let from = mp.owner(next_c);
            let buf = proc.recv(from, base + 500 + stage as u64);
            let mut pos = 0;
            let s = sr.1 + 1;
            for b in br.0..=br.1 {
                for a in ar.0..=ar.1 {
                    let p = pt(axis, s, a, b);
                    for m in 1..=5 {
                        f.rhs.set(m, p.0, p.1, p.2, buf[pos]);
                        pos += 1;
                    }
                }
            }
        }
        let hi = sr.1.min(n - 2);
        let lo = sr.0.max(2);
        for b in br.0..=br.1 {
            for a in ar.0..=ar.1 {
                let mut s = hi;
                while s >= lo {
                    S::backward(
                        &f.coef,
                        &mut f.rhs,
                        pt(axis, s, a, b),
                        pt(axis, s + 1, a, b),
                    );
                    s -= 1;
                }
            }
        }
        let rows = if hi >= lo { hi - lo + 1 } else { 0 };
        proc.work((rows * span(ar) * span(br)) as f64 * phase_cost * S::SPLIT[2]);
        if stage > 0 {
            let mut prev_c = c;
            prev_c[axis] = c[axis] - 1;
            let to = mp.owner(prev_c);
            let s = sr.0;
            let mut buf = Vec::with_capacity(span(ar) * span(br) * 5);
            for b in br.0..=br.1 {
                for a in ar.0..=ar.1 {
                    let p = pt(axis, s, a, b);
                    for m in 1..=5 {
                        buf.push(f.rhs.get(m, p.0, p.1, p.2));
                    }
                }
            }
            proc.send(to, base + 500 + stage as u64 - 1, buf);
        }
    }
}

// ---------------------------------------------------------------------------
// Transpose-based version (the pghpf stand-in)
// ---------------------------------------------------------------------------

/// Run the 1-D (z-block) + transpose version.
pub fn run_transpose<S: LineSolver>(
    n: usize,
    niter: usize,
    nprocs: usize,
    machine: MachineConfig,
    costs: &PhaseCosts,
    sp_mix: bool,
) -> Option<HandResult> {
    if nprocs > n {
        return None;
    }
    let finals: Mutex<BTreeMap<usize, (Array4, Array4)>> = Mutex::new(BTreeMap::new());
    let costs = costs.clone();
    // balanced split (remainder spread over the first ranks) so every
    // rank owns a non-empty slab for any count ≤ n
    let krange = move |r: usize| -> (usize, usize) {
        let base = n / nprocs;
        let rem = n % nprocs;
        let lo = r * base + r.min(rem);
        let hi = lo + base + usize::from(r < rem);
        (lo + 1, hi)
    };
    let jrange = krange;

    let run = Machine::run(machine, |proc| {
        let rank = proc.rank();
        let p = proc.nprocs();
        let (klo, khi) = krange(rank);
        let (jlo, jhi) = jrange(rank);
        let mut f = Fields::new(n, S::NCOEF);
        let slab_pts = (n * n * (khi - klo + 1)) as f64;

        for k in klo..=khi {
            for j in 1..=n {
                for i in 1..=n {
                    for m in 1..=5 {
                        f.u.set(m, i, j, k, init_u(m, i, j, k));
                        f.rhs.set(m, i, j, k, 0.0);
                    }
                }
            }
        }
        proc.work(slab_pts * costs.of("initialize"));

        for step in 0..niter {
            let base = (step as u64 + 1) * 1_000_000;
            // ---- compute_rhs: k-face exchange + recips + stencil ----------
            proc.phase("compute_rhs");
            if rank + 1 < p {
                let mut buf = Vec::new();
                pack_region(&f.u, (1, 5), (1, n), (1, n), (khi, khi), &mut buf);
                proc.send(rank + 1, base, buf);
            }
            if rank > 0 {
                let mut buf = Vec::new();
                pack_region(&f.u, (1, 5), (1, n), (1, n), (klo, klo), &mut buf);
                proc.send(rank - 1, base + 1, buf);
            }
            if rank > 0 {
                let buf = proc.recv(rank - 1, base);
                let mut pos = 0;
                unpack_region(
                    &mut f.u,
                    (1, 5),
                    (1, n),
                    (1, n),
                    (klo - 1, klo - 1),
                    &buf,
                    &mut pos,
                );
            }
            if rank + 1 < p {
                let buf = proc.recv(rank + 1, base + 1);
                let mut pos = 0;
                unpack_region(
                    &mut f.u,
                    (1, 5),
                    (1, n),
                    (1, n),
                    (khi + 1, khi + 1),
                    &buf,
                    &mut pos,
                );
            }
            let kx = (klo.saturating_sub(1).max(1), (khi + 1).min(n));
            for k in kx.0..=kx.1 {
                for j in 1..=n {
                    for i in 1..=n {
                        let r = reciprocals(&f.u, i, j, k);
                        for (c, v) in r.iter().enumerate() {
                            f.recip.set(c + 1, i, j, k, *v);
                        }
                    }
                }
            }
            for k in klo.max(2)..=khi.min(n - 1) {
                for j in 2..=n - 1 {
                    for i in 2..=n - 1 {
                        rhs_point(&f.u, &f.recip, &mut f.rhs, i, j, k);
                    }
                }
            }
            proc.work(slab_pts * costs.of("compute_rhs"));

            // ---- x and y solves: fully local in the k-slab ----------------
            for (axis, phase) in [(0usize, "x_solve"), (1, "y_solve")] {
                proc.phase(phase);
                local_solve::<S>(&mut f, axis, n, (klo.max(2), khi.min(n - 1)), sp_mix);
                proc.work(slab_pts * costs.of(phase));
            }

            // ---- z solve: transpose, local solve, transpose back ----------
            proc.phase("z_solve");
            // forward transpose: rhs + ws/qs reciprocals
            for peer in 0..p {
                if peer == rank {
                    continue;
                }
                let (pjlo, pjhi) = jrange(peer);
                let mut buf = Vec::new();
                pack_region(&f.rhs, (1, 5), (1, n), (pjlo, pjhi), (klo, khi), &mut buf);
                pack_region(
                    &f.recip,
                    (WS, WS),
                    (1, n),
                    (pjlo, pjhi),
                    (klo, khi),
                    &mut buf,
                );
                pack_region(
                    &f.recip,
                    (QS, QS),
                    (1, n),
                    (pjlo, pjhi),
                    (klo, khi),
                    &mut buf,
                );
                proc.send(peer, base + 10 + peer as u64, buf);
            }
            for peer in 0..p {
                if peer == rank {
                    continue;
                }
                let (pklo, pkhi) = krange(peer);
                let buf = proc.recv(peer, base + 10 + rank as u64);
                let mut pos = 0;
                unpack_region(
                    &mut f.rhs,
                    (1, 5),
                    (1, n),
                    (jlo, jhi),
                    (pklo, pkhi),
                    &buf,
                    &mut pos,
                );
                unpack_region(
                    &mut f.recip,
                    (WS, WS),
                    (1, n),
                    (jlo, jhi),
                    (pklo, pkhi),
                    &buf,
                    &mut pos,
                );
                unpack_region(
                    &mut f.recip,
                    (QS, QS),
                    (1, n),
                    (jlo, jhi),
                    (pklo, pkhi),
                    &buf,
                    &mut pos,
                );
            }
            // local z solve over my j-rows
            local_solve_z::<S>(&mut f, n, (jlo.max(2), jhi.min(n - 1)), sp_mix);
            proc.work(slab_pts * costs.of("z_solve"));
            // transpose back: rhs only
            for peer in 0..p {
                if peer == rank {
                    continue;
                }
                let (pklo, pkhi) = krange(peer);
                let mut buf = Vec::new();
                pack_region(&f.rhs, (1, 5), (1, n), (jlo, jhi), (pklo, pkhi), &mut buf);
                proc.send(peer, base + 100 + peer as u64, buf);
            }
            for peer in 0..p {
                if peer == rank {
                    continue;
                }
                let (pjlo, pjhi) = jrange(peer);
                let buf = proc.recv(peer, base + 100 + rank as u64);
                let mut pos = 0;
                unpack_region(
                    &mut f.rhs,
                    (1, 5),
                    (1, n),
                    (pjlo, pjhi),
                    (klo, khi),
                    &buf,
                    &mut pos,
                );
            }

            // ---- add -------------------------------------------------------
            proc.phase("add");
            for k in klo.max(2)..=khi.min(n - 1) {
                for j in 2..=n - 1 {
                    for i in 2..=n - 1 {
                        add_point(&mut f.u, &f.rhs, i, j, k);
                    }
                }
            }
            proc.work(slab_pts * costs.of("add"));
        }
        finals.lock().unwrap().insert(rank, (f.u, f.rhs));
    });

    let finals = finals.into_inner().unwrap();
    let owner = |_i: usize, _j: usize, k: usize| -> usize {
        (0..nprocs)
            .find(|&r| {
                let (lo, hi) = krange(r);
                k >= lo && k <= hi
            })
            .unwrap()
    };
    let us: BTreeMap<usize, Array4> = finals.iter().map(|(r, (u, _))| (*r, u.clone())).collect();
    let rs: BTreeMap<usize, Array4> = finals.iter().map(|(r, (_, rh))| (*r, rh.clone())).collect();
    Some(HandResult {
        run,
        u: gather(us, n, 5, &owner),
        rhs: gather(rs, n, 5, &owner),
    })
}

/// Local line solve along `axis` (0 = x, 1 = y) for `k` in the given
/// range — used by the transpose version where those axes are local.
fn local_solve<S: LineSolver>(
    f: &mut Fields,
    axis: usize,
    n: usize,
    kr: (usize, usize),
    sp_mix: bool,
) {
    for k in kr.0..=kr.1 {
        for a in 2..=n - 1 {
            // (a = the other non-axis, non-k dimension)
            for s in 2..=n - 1 {
                let (i, j, kk) = match axis {
                    0 => (s, a, k),
                    _ => (a, s, k),
                };
                let cv = cv3::<S>(&f.recip, axis, s, a, k, sp_mix);
                S::build(&mut f.coef, (i, j, kk), cv);
            }
            let p_at = |s: usize| match axis {
                0 => (s, a, k),
                _ => (a, s, k),
            };
            S::norm_first(&mut f.coef, &mut f.rhs, p_at(2));
            for s in 3..=n - 1 {
                S::forward(&mut f.coef, &mut f.rhs, p_at(s), p_at(s - 1));
            }
            for s in (2..=n - 2).rev() {
                S::backward(&f.coef, &mut f.rhs, p_at(s), p_at(s + 1));
            }
        }
    }
}

/// Local z solve for `j` in the given range (transposed layout).
fn local_solve_z<S: LineSolver>(f: &mut Fields, n: usize, jr: (usize, usize), sp_mix: bool) {
    for j in jr.0..=jr.1 {
        for i in 2..=n - 1 {
            for s in 2..=n - 1 {
                let cv = cv3::<S>(&f.recip, 2, s, i, j, sp_mix);
                S::build(&mut f.coef, (i, j, s), cv);
            }
            S::norm_first(&mut f.coef, &mut f.rhs, (i, j, 2));
            for s in 3..=n - 1 {
                S::forward(&mut f.coef, &mut f.rhs, (i, j, s), (i, j, s - 1));
            }
            for s in (2..=n - 2).rev() {
                S::backward(&f.coef, &mut f.rhs, (i, j, s), (i, j, s + 1));
            }
        }
    }
}
