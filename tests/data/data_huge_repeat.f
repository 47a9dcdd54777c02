      program t
      real x
      data x /1000000000*1.0/
      print *, x
      end
