      program t
      real x, y
      data x, y /0*5.0, 7.0/
      print *, x, y
      end
