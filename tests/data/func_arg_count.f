c     A function reference with more actuals than the function has dummies.
      program badfct
      x = f(1.0, 2.0)
      print *, x
      end
      real function f(b)
      real b
      f = b
      end
