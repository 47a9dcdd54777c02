c     A reference to a function the program does not define.
      program badfn
      x = nosuch(1.0)
      print *, x
      end
