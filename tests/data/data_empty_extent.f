      program t
      real a(0)
      data a /1.0/
      end
