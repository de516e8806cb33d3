      program timeloop
c     jacobi.f with more than nests in its time loop: a replicated
c     scalar accumulation and a CONTINUE. Neither touches a distributed
c     array, so the two nests are still planned one by one and each
c     time step exchanges its own boundary cells. dhpf-lint --verify:
c     no findings expected.
      parameter (n = 64)
      integer i, it
      double precision a(n), b(n), t
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a, b
      t = 0.0d0
      do i = 1, n
         a(i) = i * 1.0d0
         b(i) = 0.0d0
      enddo
      do it = 1, 4
         do i = 2, n - 1
            b(i) = 0.5d0 * (a(i - 1) + a(i + 1))
         enddo
         do i = 2, n - 1
            a(i) = b(i)
         enddo
         t = t + 0.25d0
         continue
      enddo
      end
