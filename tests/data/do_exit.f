c     DO-variable values after completed loops with non-unit steps: the
c     Fortran exit value is init + trips*step, here 10 and 1.
      program doexit
      integer a(20)
      do i = 1, 9, 3
        a(i) = i
      end do
      do j = 10, 2, -3
        a(j) = j
      end do
      print *, i, j, a(7), a(4)
      end
