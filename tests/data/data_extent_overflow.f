      program t
      real a(3000000000,3000000000,3000000000)
      data a /1.0/
      end
