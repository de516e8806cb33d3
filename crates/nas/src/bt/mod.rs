//! The BT benchmark: 5×5 block-tridiagonal ADI line solves.
//!
//! The solve phases mirror NPB BT's structure: block Jacobian assembly
//! (`lhsa`/`lhsb`/`lhsc`), then bi-directional block-Thomas sweeps whose
//! per-point work is done by **leaf subroutines** — `matvec_*` (block ·
//! vector), `matmul_*` (block · block), `backsub_*` and `binvc`
//! (Gauss–Jordan on the diagonal block) — called from inside the sweep
//! loops exactly as in Figure 6.1 of the paper. Interprocedural CP
//! selection (§6) gives those call sites the callee's translated entry
//! CP; the driver then inlines the leaves so the sweep pipelines like
//! any other nest.

pub mod multipart;
pub mod transpose;

fn decls() -> String {
    "      integer nx, ny, nz, niter
      double precision u(5, nx, ny, nz), rhs(5, nx, ny, nz)
      double precision lhsa(5, 5, nx, ny, nz), lhsb(5, 5, nx, ny, nz)
      double precision lhsc(5, 5, nx, ny, nz)
      double precision rho_i(nx, ny, nz), us(nx, ny, nz), vs(nx, ny, nz)
      double precision ws(nx, ny, nz), square(nx, ny, nz), qs(nx, ny, nz)
      common /fields/ u, rhs, lhsa, lhsb, lhsc, rho_i, us, vs, ws, square, qs
!hpf$ processors p(npy, npz)
!hpf$ distribute (*, *, block, block) onto p :: u, rhs
!hpf$ distribute (*, *, *, block, block) onto p :: lhsa, lhsb, lhsc
!hpf$ distribute (*, block, block) onto p :: rho_i, us, vs, ws, square, qs
"
    .to_string()
}

/// One solve direction: block assembly + forward block elimination +
/// back substitution with §6 leaf calls.
fn solve_unit(name: &str, axis: char) -> String {
    let d = decls();
    let (h1, h2, build_hdr, sweep_hdr, back_hdr, sv, nvar, cvsrc, first) = match axis {
        'x' => (
            "do k = 2, nz - 1",
            "do j = 2, ny - 1",
            "do i = 2, nx - 1",
            "do i = 3, nx - 1",
            "do i = nx - 2, 2, -1",
            "i",
            "nx",
            "us",
            "2, j, k",
        ),
        'y' => (
            "do k = 2, nz - 1",
            "do i = 2, nx - 1",
            "do j = 2, ny - 1",
            "do j = 3, ny - 1",
            "do j = ny - 2, 2, -1",
            "j",
            "ny",
            "vs",
            "i, 2, k",
        ),
        _ => (
            "do j = 2, ny - 1",
            "do i = 2, nx - 1",
            "do k = 2, nz - 1",
            "do k = 3, nz - 1",
            "do k = nz - 2, 2, -1",
            "k",
            "nz",
            "ws",
            "i, j, 2",
        ),
    };
    format!(
        "      subroutine {name}
{d}      integer i, j, k, m, n
      double precision cv(0:127)
!hpf$ independent, new(cv)
      {h1}
         {h2}
            do {sv} = 1, {nvar}
               cv({sv}) = {cvsrc}(i, j, k)
            enddo
            {build_hdr}
               do m = 1, 5
                  do n = 1, 5
                     lhsa(m, n, i, j, k) = -0.01d0 - 0.002d0 * cv({sv} - 1)
                     lhsb(m, n, i, j, k) = 0.01d0 + 0.002d0 * cv({sv})
                     lhsc(m, n, i, j, k) = -0.01d0 + 0.002d0 * cv({sv} + 1)
                  enddo
                  lhsb(m, m, i, j, k) = 2.0d0 + 0.04d0 * cv({sv})
               enddo
            enddo
         enddo
      enddo
      {h1}
         {h2}
            call binvc(lhsb, lhsc, rhs, {first})
         enddo
      enddo
      {h1}
         {sweep_hdr}
            {h2}
               call matvec_{axis}(lhsa, rhs, i, j, k)
               call matmul_{axis}(lhsa, lhsc, lhsb, i, j, k)
               call binvc(lhsb, lhsc, rhs, i, j, k)
            enddo
         enddo
      enddo
      {h1}
         {back_hdr}
            {h2}
               call backsub_{axis}(lhsc, rhs, i, j, k)
            enddo
         enddo
      enddo
      end
"
    )
}

fn leaves(axis: char) -> String {
    let d = decls();
    let prev = match axis {
        'x' => "i - 1, j, k",
        'y' => "i, j - 1, k",
        _ => "i, j, k - 1",
    };
    let next = match axis {
        'x' => "i + 1, j, k",
        'y' => "i, j + 1, k",
        _ => "i, j, k + 1",
    };
    format!(
        "      subroutine matvec_{axis}(ablock, bvec, i, j, k)
{d}      double precision ablock(5, 5, nx, ny, nz), bvec(5, nx, ny, nz)
      integer i, j, k, m, n
      do m = 1, 5
         do n = 1, 5
            bvec(m, i, j, k) = bvec(m, i, j, k)
     &           - ablock(m, n, i, j, k) * bvec(n, {prev})
         enddo
      enddo
      end

      subroutine matmul_{axis}(ablock, cblock, bblock, i, j, k)
{d}      double precision ablock(5, 5, nx, ny, nz), cblock(5, 5, nx, ny, nz)
      double precision bblock(5, 5, nx, ny, nz)
      integer i, j, k, m, n, q
      do m = 1, 5
         do n = 1, 5
            do q = 1, 5
               bblock(m, n, i, j, k) = bblock(m, n, i, j, k)
     &              - ablock(m, q, i, j, k) * cblock(q, n, {prev})
            enddo
         enddo
      enddo
      end

      subroutine backsub_{axis}(cblock, bvec, i, j, k)
{d}      double precision cblock(5, 5, nx, ny, nz), bvec(5, nx, ny, nz)
      integer i, j, k, m, n
      do m = 1, 5
         do n = 1, 5
            bvec(m, i, j, k) = bvec(m, i, j, k)
     &           - cblock(m, n, i, j, k) * bvec(n, {next})
         enddo
      enddo
      end
"
    )
}

/// The full BT source. `initialize`, `compute_rhs` and `add` share SP's
/// physics verbatim (with BT's declaration block spliced in).
pub fn source() -> String {
    let d = decls();
    let sp_src = crate::sp::source();
    let sp_d = crate::sp::decls();
    let grab = |unit: &str| -> String {
        let marker = format!("      subroutine {unit}\n");
        let start = sp_src.find(&marker).unwrap();
        let end = sp_src[start..].find("\n      end\n").unwrap() + start + "\n      end\n".len();
        sp_src[start..end].replace(&sp_d, &d)
    };
    format!(
        "      program bt
{d}      integer step
      call initialize
      do step = 1, niter
         call compute_rhs
         call x_solve
         call y_solve
         call z_solve
         call add
      enddo
      end

{init}
{rhs}
{xs}
{ys}
{zs}
{addu}
      subroutine binvc(bblock, cblock, bvec, i, j, k)
{d}      double precision bblock(5, 5, nx, ny, nz), cblock(5, 5, nx, ny, nz)
      double precision bvec(5, nx, ny, nz)
      integer i, j, k, p1, q1, n
      double precision piv, coef
      do p1 = 1, 5
         piv = 1.0d0 / bblock(p1, p1, i, j, k)
         do n = p1 + 1, 5
            bblock(p1, n, i, j, k) = bblock(p1, n, i, j, k) * piv
         enddo
         do n = 1, 5
            cblock(p1, n, i, j, k) = cblock(p1, n, i, j, k) * piv
         enddo
         bvec(p1, i, j, k) = bvec(p1, i, j, k) * piv
         do q1 = 1, 5
            if (q1 .ne. p1) then
               coef = bblock(q1, p1, i, j, k)
               do n = p1 + 1, 5
                  bblock(q1, n, i, j, k) = bblock(q1, n, i, j, k)
     &                 - coef * bblock(p1, n, i, j, k)
               enddo
               do n = 1, 5
                  cblock(q1, n, i, j, k) = cblock(q1, n, i, j, k)
     &                 - coef * cblock(p1, n, i, j, k)
               enddo
               bvec(q1, i, j, k) = bvec(q1, i, j, k)
     &              - coef * bvec(p1, i, j, k)
            endif
         enddo
      enddo
      end

{lx}
{ly}
{lz}",
        init = grab("initialize"),
        rhs = grab("compute_rhs"),
        xs = solve_unit("x_solve", 'x'),
        ys = solve_unit("y_solve", 'y'),
        zs = solve_unit("z_solve", 'z'),
        addu = grab("add"),
        lx = leaves('x'),
        ly = leaves('y'),
        lz = leaves('z'),
    )
}

#[cfg(test)]
mod tests {
    use crate::verify::compare_fields;
    use crate::{Class, Kernel};
    use dhpf_spmd::machine::MachineConfig;

    #[test]
    fn bt_source_parses_and_runs_serially() {
        let r = Kernel::Bt.run_serial_reference(Class::S);
        assert!(r.arrays["u"].data.iter().all(|v| v.is_finite()));
        assert!(r.flops > 0);
    }

    #[test]
    fn bt_dhpf_matches_serial_on_4_procs() {
        let serial = Kernel::Bt.run_serial_reference(Class::S);
        let par = Kernel::Bt.run_dhpf(Class::S, 4, MachineConfig::sp2(4));
        compare_fields(&serial, &par, &["u", "rhs"], 1e-9);
        assert!(par.run.stats.messages > 0);
    }

    #[test]
    fn bt_block_solve_differs_from_sp() {
        let sp = crate::Kernel::Sp.run_serial_reference(Class::S);
        let bt = Kernel::Bt.run_serial_reference(Class::S);
        let d: f64 = sp.arrays["u"]
            .data
            .iter()
            .zip(&bt.arrays["u"].data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(
            d > 1e-9,
            "BT's block solve must differ from SP's scalar solve"
        );
    }
}
