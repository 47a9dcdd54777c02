      program huge
      real a(3000000000,3000000000,3000000000)
      a(1,1,1) = 1.0
      print *, a(1,1,1)
      end
