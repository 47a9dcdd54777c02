c     Integer arithmetic at the int64 edge wraps: -2**63 / -1 is -2**63
c     and mod(-2**63, -1) is 0 (the int64 division traps), and
c     (2**63 - 1) + 1, abs(-2**63) and sign(-2**63, +-1) are -2**63
c     (signed overflow is undefined).
      program intedge
      integer i, j, k
      i = -9223372036854775807 - 1
      j = -1
      print *, i / j
      print *, mod(i, j)
      k = 9223372036854775807
      j = k + 1
      print *, j
      print *, abs(i)
      print *, sign(i, -1)
      print *, sign(i, 1)
      end
