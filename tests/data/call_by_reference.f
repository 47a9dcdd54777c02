c     Function references bind actuals as CALLs do: an array element on
c     an array dummy is the section starting there (g sees a(2), a(3)),
c     and an element on a scalar dummy is copied back (f sets a(2)).
      program byref
      real a(3)
      a(1) = 1.0
      a(2) = 2.0
      a(3) = 3.0
      y = g(a(2))
      print *, y
      x = f(a(2))
      print *, a(2), x
      end
      real function f(b)
      real b
      b = 12.0
      f = b
      end
      real function g(b)
      real b(2)
      g = b(1) + b(2)
      end
