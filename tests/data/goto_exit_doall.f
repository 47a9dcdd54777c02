c     A hand-written DOALL whose body a GOTO leaves.  The sequential
c     reference (-seq, and -run's reference) ignores the directive, so
c     the GOTO leaves the loop at i = 3: one line, "3 3".
      program gotoexit
      k = 0
csrd$ doall
      do i = 1, 10
        k = k + 1
        if (i .eq. 3) goto 20
      end do
      print *, 'none'
   20 print *, i, k
      end
