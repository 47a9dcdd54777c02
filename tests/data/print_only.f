c     Only PRINTs of constants: neither run charges any time, and -run
c     must still report a speedup of 1.00.
      program printonly
      print *, 1
      print *, 'done'
      end
