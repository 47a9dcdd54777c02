      program badlit
      x = 1.0
      y = 1.0e999
      end
