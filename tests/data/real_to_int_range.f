c     A real with no 64-bit integer value assigned to an integer: the
c     run must stop with a user error instead of printing whatever an
c     out-of-range conversion happens to produce.
      program r2int
      x = 1.0e30
      i = x
      print *, i
      end
