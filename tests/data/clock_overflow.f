c     The empty DO charges its 2^63 - 1 trips at once, 2^64 - 2 units,
c     and the PRINTs' loads pass 2^64 - 1: the serial clock overflows,
c     a user error naming the clock where it used to wrap to 0 units.
      program clkovf
      do i = 1, 9223372036854775807
      end do
      print *, i
      print *, i
      end
