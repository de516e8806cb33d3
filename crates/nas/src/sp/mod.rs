//! The SP benchmark: scalar (tridiagonal) ADI line solves.

pub mod multipart;
pub mod transpose;

/// Shared declaration block (the NPB `include` idiom): every unit
/// re-declares the COMMON fields and the HPF mapping directives.
pub(crate) fn decls() -> String {
    "      integer nx, ny, nz, niter
      double precision u(5, nx, ny, nz), rhs(5, nx, ny, nz)
      double precision lhs(3, nx, ny, nz)
      double precision rho_i(nx, ny, nz), us(nx, ny, nz), vs(nx, ny, nz)
      double precision ws(nx, ny, nz), square(nx, ny, nz), qs(nx, ny, nz)
      common /fields/ u, rhs, lhs, rho_i, us, vs, ws, square, qs
!hpf$ processors p(npy, npz)
!hpf$ distribute (*, *, block, block) onto p :: u, rhs, lhs
!hpf$ distribute (*, block, block) onto p :: rho_i, us, vs, ws, square, qs
"
    .to_string()
}

/// The full HPF source of mini-SP. Sizes (`nx`, `ny`, `nz`, `niter`,
/// `npy`, `npz`) are bound at compile time, exactly like the paper's
/// dHPF experiments ("problem size and processor grid organization was
/// compiled into the program").
pub fn source() -> String {
    let d = decls();
    format!(
        "      program sp
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

      subroutine initialize
{d}      integer i, j, k, m
      do k = 1, nz
         do j = 1, ny
            do i = 1, nx
               do m = 1, 5
                  u(m, i, j, k) = 1.0d0 + 0.01d0 * i + 0.02d0 * j
     &                 + 0.03d0 * k + 0.1d0 * m
                  rhs(m, i, j, k) = 0.0d0
               enddo
            enddo
         enddo
      enddo
      end

      subroutine compute_rhs
{d}      integer i, j, k, m, one
!hpf$ independent, localize(rho_i, us, vs, ws, square, qs)
      do one = 1, 1
         do k = 1, nz
            do j = 1, ny
               do i = 1, nx
                  rho_i(i, j, k) = 1.0d0 / u(1, i, j, k)
                  us(i, j, k) = u(2, i, j, k) * rho_i(i, j, k)
                  vs(i, j, k) = u(3, i, j, k) * rho_i(i, j, k)
                  ws(i, j, k) = u(4, i, j, k) * rho_i(i, j, k)
                  square(i, j, k) = 0.5d0 * (u(2, i, j, k) * u(2, i, j, k)
     &                 + u(3, i, j, k) * u(3, i, j, k)
     &                 + u(4, i, j, k) * u(4, i, j, k)) * rho_i(i, j, k)
                  qs(i, j, k) = square(i, j, k) * rho_i(i, j, k)
               enddo
            enddo
         enddo
         do k = 2, nz - 1
            do j = 2, ny - 1
               do i = 2, nx - 1
                  do m = 1, 5
                     rhs(m, i, j, k) =
     &                 0.05d0 * (u(m, i + 1, j, k) - 2.0d0 * u(m, i, j, k)
     &                         + u(m, i - 1, j, k))
     &               + 0.05d0 * (u(m, i, j + 1, k) - 2.0d0 * u(m, i, j, k)
     &                         + u(m, i, j - 1, k))
     &               + 0.05d0 * (u(m, i, j, k + 1) - 2.0d0 * u(m, i, j, k)
     &                         + u(m, i, j, k - 1))
     &               + 0.02d0 * (us(i + 1, j, k) - us(i - 1, j, k))
     &               + 0.02d0 * (vs(i, j + 1, k) - vs(i, j - 1, k))
     &               + 0.02d0 * (ws(i, j, k + 1) - ws(i, j, k - 1))
     &               + 0.01d0 * (qs(i + 1, j, k) - 2.0d0 * qs(i, j, k)
     &                         + qs(i - 1, j, k))
     &               + 0.01d0 * (qs(i, j + 1, k) - 2.0d0 * qs(i, j, k)
     &                         + qs(i, j - 1, k))
     &               + 0.01d0 * (qs(i, j, k + 1) - 2.0d0 * qs(i, j, k)
     &                         + qs(i, j, k - 1))
     &               + 0.01d0 * (square(i + 1, j, k)
     &                         - 2.0d0 * square(i, j, k)
     &                         + square(i - 1, j, k))
     &               + 0.01d0 * (square(i, j + 1, k)
     &                         - 2.0d0 * square(i, j, k)
     &                         + square(i, j - 1, k))
     &               + 0.01d0 * (square(i, j, k + 1)
     &                         - 2.0d0 * square(i, j, k)
     &                         + square(i, j, k - 1))
     &               + 0.01d0 * (rho_i(i + 1, j, k)
     &                         - 2.0d0 * rho_i(i, j, k)
     &                         + rho_i(i - 1, j, k))
     &               + 0.01d0 * (rho_i(i, j + 1, k)
     &                         - 2.0d0 * rho_i(i, j, k)
     &                         + rho_i(i, j - 1, k))
     &               + 0.01d0 * (rho_i(i, j, k + 1)
     &                         - 2.0d0 * rho_i(i, j, k)
     &                         + rho_i(i, j, k - 1))
                  enddo
               enddo
            enddo
         enddo
      enddo
      end

      subroutine x_solve
{d}      integer i, j, k, m
      double precision cv(0:127), fac1
!hpf$ independent, new(cv)
      do k = 2, nz - 1
         do j = 2, ny - 1
            do i = 1, nx
               cv(i) = us(i, j, k)
            enddo
            do i = 2, nx - 1
               lhs(1, i, j, k) = -0.1d0 - 0.02d0 * cv(i - 1)
               lhs(2, i, j, k) = 2.0d0 + 0.04d0 * cv(i)
               lhs(3, i, j, k) = -0.1d0 + 0.02d0 * cv(i + 1)
            enddo
         enddo
      enddo
      do k = 2, nz - 1
         do j = 2, ny - 1
            lhs(3, 2, j, k) = lhs(3, 2, j, k) / lhs(2, 2, j, k)
            do m = 1, 5
               rhs(m, 2, j, k) = rhs(m, 2, j, k) / lhs(2, 2, j, k)
            enddo
         enddo
      enddo
!hpf$ new(fac1)
      do k = 2, nz - 1
         do j = 2, ny - 1
            do i = 3, nx - 1
               fac1 = 1.0d0 / (lhs(2, i, j, k)
     &              - lhs(1, i, j, k) * lhs(3, i - 1, j, k))
               lhs(3, i, j, k) = lhs(3, i, j, k) * fac1
               do m = 1, 5
                  rhs(m, i, j, k) = (rhs(m, i, j, k)
     &                 - lhs(1, i, j, k) * rhs(m, i - 1, j, k)) * fac1
               enddo
            enddo
         enddo
      enddo
      do k = 2, nz - 1
         do j = 2, ny - 1
            do i = nx - 2, 2, -1
               do m = 1, 5
                  rhs(m, i, j, k) = rhs(m, i, j, k)
     &                 - lhs(3, i, j, k) * rhs(m, i + 1, j, k)
               enddo
            enddo
         enddo
      enddo
      end

      subroutine y_solve
{d}      integer i, j, k, m
      double precision cv(0:127), rhoq(0:127), fac1
!hpf$ independent, new(cv, rhoq)
      do k = 2, nz - 1
         do i = 2, nx - 1
            do j = 1, ny
               cv(j) = vs(i, j, k)
               rhoq(j) = qs(i, j, k)
            enddo
            do j = 2, ny - 1
               lhs(1, i, j, k) = -0.1d0 - 0.02d0 * cv(j - 1)
     &              - 0.01d0 * rhoq(j - 1)
               lhs(2, i, j, k) = 2.0d0 + 0.04d0 * cv(j)
     &              + 0.02d0 * rhoq(j)
               lhs(3, i, j, k) = -0.1d0 + 0.02d0 * cv(j + 1)
     &              + 0.01d0 * rhoq(j + 1)
            enddo
         enddo
      enddo
      do k = 2, nz - 1
         do i = 2, nx - 1
            lhs(3, i, 2, k) = lhs(3, i, 2, k) / lhs(2, i, 2, k)
            do m = 1, 5
               rhs(m, i, 2, k) = rhs(m, i, 2, k) / lhs(2, i, 2, k)
            enddo
         enddo
      enddo
!hpf$ new(fac1)
      do k = 2, nz - 1
         do j = 3, ny - 1
            do i = 2, nx - 1
               fac1 = 1.0d0 / (lhs(2, i, j, k)
     &              - lhs(1, i, j, k) * lhs(3, i, j - 1, k))
               lhs(3, i, j, k) = lhs(3, i, j, k) * fac1
               do m = 1, 5
                  rhs(m, i, j, k) = (rhs(m, i, j, k)
     &                 - lhs(1, i, j, k) * rhs(m, i, j - 1, k)) * fac1
               enddo
            enddo
         enddo
      enddo
      do k = 2, nz - 1
         do j = ny - 2, 2, -1
            do i = 2, nx - 1
               do m = 1, 5
                  rhs(m, i, j, k) = rhs(m, i, j, k)
     &                 - lhs(3, i, j, k) * rhs(m, i, j + 1, k)
               enddo
            enddo
         enddo
      enddo
      end

      subroutine z_solve
{d}      integer i, j, k, m
      double precision cv(0:127), rhoq(0:127), fac1
!hpf$ independent, new(cv, rhoq)
      do j = 2, ny - 1
         do i = 2, nx - 1
            do k = 1, nz
               cv(k) = ws(i, j, k)
               rhoq(k) = qs(i, j, k)
            enddo
            do k = 2, nz - 1
               lhs(1, i, j, k) = -0.1d0 - 0.02d0 * cv(k - 1)
     &              - 0.01d0 * rhoq(k - 1)
               lhs(2, i, j, k) = 2.0d0 + 0.04d0 * cv(k)
     &              + 0.02d0 * rhoq(k)
               lhs(3, i, j, k) = -0.1d0 + 0.02d0 * cv(k + 1)
     &              + 0.01d0 * rhoq(k + 1)
            enddo
         enddo
      enddo
      do j = 2, ny - 1
         do i = 2, nx - 1
            lhs(3, i, j, 2) = lhs(3, i, j, 2) / lhs(2, i, j, 2)
            do m = 1, 5
               rhs(m, i, j, 2) = rhs(m, i, j, 2) / lhs(2, i, j, 2)
            enddo
         enddo
      enddo
!hpf$ new(fac1)
      do j = 2, ny - 1
         do k = 3, nz - 1
            do i = 2, nx - 1
               fac1 = 1.0d0 / (lhs(2, i, j, k)
     &              - lhs(1, i, j, k) * lhs(3, i, j, k - 1))
               lhs(3, i, j, k) = lhs(3, i, j, k) * fac1
               do m = 1, 5
                  rhs(m, i, j, k) = (rhs(m, i, j, k)
     &                 - lhs(1, i, j, k) * rhs(m, i, j, k - 1)) * fac1
               enddo
            enddo
         enddo
      enddo
      do j = 2, ny - 1
         do k = nz - 2, 2, -1
            do i = 2, nx - 1
               do m = 1, 5
                  rhs(m, i, j, k) = rhs(m, i, j, k)
     &                 - lhs(3, i, j, k) * rhs(m, i, j, k + 1)
               enddo
            enddo
         enddo
      enddo
      end

      subroutine add
{d}      integer i, j, k, m
      do k = 2, nz - 1
         do j = 2, ny - 1
            do i = 2, nx - 1
               do m = 1, 5
                  u(m, i, j, k) = u(m, i, j, k) + 0.5d0 * rhs(m, i, j, k)
               enddo
            enddo
         enddo
      enddo
      end
"
    )
}

#[cfg(test)]
mod tests {
    use crate::verify::compare_fields;
    use crate::{Class, Kernel};
    use dhpf_spmd::machine::MachineConfig;

    #[test]
    fn sp_source_parses_and_runs_serially() {
        let r = Kernel::Sp.run_serial_reference(Class::S);
        let u = &r.arrays["u"];
        // values evolved away from the initial condition
        let init = 1.0 + 0.01 * 3.0 + 0.02 * 3.0 + 0.03 * 3.0 + 0.1;
        assert!((u.get(&[1, 3, 3, 3]) - init).abs() > 1e-9, "u must change");
        assert!(u.data.iter().all(|v| v.is_finite()));
        assert!(r.flops > 0);
    }

    #[test]
    fn sp_dhpf_matches_serial_on_4_procs() {
        let serial = Kernel::Sp.run_serial_reference(Class::S);
        let par = Kernel::Sp.run_dhpf(Class::S, 4, MachineConfig::sp2(4));
        compare_fields(&serial, &par, &["u", "rhs"], 1e-9);
        assert!(par.run.stats.messages > 0);
    }

    #[test]
    fn sp_dhpf_matches_serial_on_9_procs() {
        let serial = Kernel::Sp.run_serial_reference(Class::W);
        let par = Kernel::Sp.run_dhpf(Class::W, 9, MachineConfig::sp2(9));
        compare_fields(&serial, &par, &["u", "rhs"], 1e-9);
    }

    #[test]
    fn sp_dhpf_single_proc_no_comm() {
        let serial = Kernel::Sp.run_serial_reference(Class::S);
        let par = Kernel::Sp.run_dhpf(Class::S, 1, MachineConfig::sp2(1));
        compare_fields(&serial, &par, &["u", "rhs"], 1e-12);
        assert_eq!(par.run.stats.messages, 0);
    }
}
