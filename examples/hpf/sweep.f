      program sweep
c     a (block, block) wavefront: the i loop carries a flow dependence
c     across the first grid dimension, so the nest is pipelined, strip-
c     mined along j. Each strip chunk receives the plane behind its
c     block from its predecessor and forwards its own last plane.
c     dhpf-lint --verify proves every read covered, the carried ones by
c     the hops; no findings expected.
      parameter (n = 32)
      integer i, j
      double precision a(n, n)
!hpf$ processors p(2, 2)
!hpf$ distribute (block, block) onto p :: a
      do j = 1, n
         do i = 1, n
            a(i, j) = i + j * 0.5d0
         enddo
      enddo
      do j = 1, n
         do i = 2, n
            a(i, j) = a(i, j) + 0.5d0 * a(i - 1, j)
         enddo
      enddo
      end
