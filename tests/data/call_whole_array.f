c     A whole array passed by CALL to a scalar dummy.
      program badarr
      real a(3)
      call s(a)
      end
      subroutine s(c)
      real c
      print *, c
      end
