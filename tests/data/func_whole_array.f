c     A whole array passed by function reference to a scalar dummy.
      program badfar
      real a(3)
      x = h(a)
      print *, x
      end
      real function h(b)
      real b
      h = b
      end
