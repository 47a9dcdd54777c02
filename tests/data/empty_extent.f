      program empty
      real a(0)
      a(1) = 1.0
      print *, a(1)
      end
