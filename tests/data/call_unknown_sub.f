c     A CALL to a subroutine the program does not define.
      program badsub
      call nosuch(1.0)
      end
