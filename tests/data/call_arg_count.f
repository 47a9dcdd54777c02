c     A CALL with more actuals than the subroutine has dummies.
      program badcnt
      call s(1.0, 2.0)
      end
      subroutine s(c)
      real c
      print *, c
      end
