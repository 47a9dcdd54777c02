#include "interp/interp.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "parser/parser.h"

namespace polaris {
namespace {

RunResult run_src(const std::string& src, MachineConfig cfg = {}) {
  auto p = parse_program(src);
  return run_program(*p, cfg);
}

TEST(InterpTest, ArithmeticAndPrint) {
  auto r = run_src(
      "      program t\n"
      "      i = 2 + 3*4\n"
      "      x = 1.5*2.0\n"
      "      print *, i, x\n"
      "      end\n");
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_EQ(r.output[0], "14 3");
}

TEST(InterpTest, IntegerDivisionTruncates) {
  auto r = run_src(
      "      print *, 7/2, (-7)/2, mod(7,2)\n");
  EXPECT_EQ(r.output[0], "3 -3 1");
}

TEST(InterpTest, DoLoopAccumulation) {
  auto r = run_src(
      "      s = 0.0\n"
      "      do i = 1, 10\n"
      "        s = s + i\n"
      "      end do\n"
      "      print *, s, i\n");
  // Sum 1..10 = 55; index after loop = 11.
  EXPECT_EQ(r.output[0], "55 11");
}

TEST(InterpTest, NegativeStepAndZeroTrip) {
  auto r = run_src(
      "      k = 0\n"
      "      do i = 10, 1, -2\n"
      "        k = k + 1\n"
      "      end do\n"
      "      m = 0\n"
      "      do j = 5, 1\n"
      "        m = m + 1\n"
      "      end do\n"
      "      print *, k, m\n");
  EXPECT_EQ(r.output[0], "5 0");
}

TEST(InterpTest, DoVariableExitValueIsInitPlusTripsTimesStep) {
  // Fortran: trips = max(0, (limit - init + step) / step) and the DO
  // variable ends at init + trips*step, not past the limit by a full step.
  auto r = run_src(
      "      do i = 1, 9, 3\n"
      "      end do\n"
      "      do j = 10, 2, -3\n"
      "      end do\n"
      "      do m = 5, 1, 2\n"
      "      end do\n"
      "      do n = 0, 1, -1\n"
      "      end do\n"
      "      print *, i, j, m, n\n");
  EXPECT_EQ(r.output[0], "10 1 5 0");
}

TEST(InterpTest, IntegerPowerFollowsFortranRules) {
  // A negative exponent truncates 1/base**|exp| toward zero.  A 2e9
  // exponent is ~31 squarings, and an overflowing power wraps.
  auto r = run_src(
      "      print *, 2**10, (-3)**3, 3**0, 0**0\n"
      "      print *, 2**(-1), 1**(-5), (-1)**(-3), (-1)**(-4), (-2)**(-1)\n"
      "      k = 2\n"
      "      print *, k**2000000000, 2**62, (-1)**2000000001\n");
  EXPECT_EQ(r.output[0], "1024 -27 1 1");
  EXPECT_EQ(r.output[1], "0 1 -1 1 0");
  EXPECT_EQ(r.output[2], "0 4611686018427387904 -1");
}

TEST(InterpTest, ZeroToNegativePowerIsUserError) {
  EXPECT_THROW(run_src("      k = 0\n"
                       "      print *, k**(-2)\n"),
               UserError);
}

TEST(InterpTest, OutOfRangeRealToIntegerIsUserError) {
  // Assignment, int() and nint() of NaN or |x| >= 2^63 used to be
  // undefined behaviour (in practice INT64_MIN and exit 0).
  for (const char* src : {"      x = 1.0e30\n      i = x\n      print *, i\n",
                          "      print *, int(-1.0e19)\n",
                          "      print *, nint(sqrt(-1.0))\n",
                          "      print *, nint(9.3e18)\n"})
    EXPECT_THROW(run_src(src), UserError) << src;
  auto r = run_src("      print *, int(-9.2e18), nint(-2.5), nint(2.5)\n");
  EXPECT_EQ(r.output[0], "-9200000000000000000 -3 3");
}

TEST(InterpTest, BadArrayExtentsAreUserErrorsNamingTheArray) {
  // None of these may attempt its allocation: under the sanitize presets
  // ASan's allocation-size check would abort a huge one.
  const std::pair<const char*, const char*> cases[] = {
      {"      real a(0)\n", "array a has an empty dimension 1:0"},
      {"      real b(5:4)\n", "array b has an empty dimension 5:4"},
      {"      real c(3000000000,3000000000,3000000000)\n",
       "array c has too many elements"},
      {"      real d(-9000000000000000000:9000000000000000000)\n",
       "array d has too many elements"},
      // Fits int64, but no vector can hold it.
      {"      real e(3000000000,3000000000)\n",
       "array e has too many elements"},
  };
  for (const auto& [decl, message] : cases) {
    try {
      run_src(std::string("      program t\n") + decl + "      end\n");
      FAIL() << "expected UserError for " << decl;
    } catch (const UserError& e) {
      EXPECT_EQ(std::string(e.what()), message) << decl;
    }
  }
  // An assumed-size upper bound that int64 cannot hold.
  try {
    run_src(
        "      program t\n      real a(10)\n      call s(a)\n      end\n"
        "      subroutine s(b)\n      real b(9223372036854775807:*)\n"
        "      end\n");
    FAIL() << "expected UserError";
  } catch (const UserError& e) {
    EXPECT_EQ(std::string(e.what()),
              "array b has an upper bound past the integer range");
  }
}

TEST(InterpTest, IfElseChain) {
  auto r = run_src(
      "      do i = 1, 4\n"
      "        if (i .eq. 1) then\n"
      "          k = 10\n"
      "        else if (i .eq. 2) then\n"
      "          k = 20\n"
      "        else\n"
      "          k = 30\n"
      "        end if\n"
      "        print *, k\n"
      "      end do\n");
  ASSERT_EQ(r.output.size(), 4u);
  EXPECT_EQ(r.output[0], "10");
  EXPECT_EQ(r.output[1], "20");
  EXPECT_EQ(r.output[2], "30");
  EXPECT_EQ(r.output[3], "30");
}

TEST(InterpTest, LogicalIfAndOperators) {
  auto r = run_src(
      "      x = 2.0\n"
      "      if (x .gt. 1.0 .and. x .lt. 3.0) print *, 'in'\n"
      "      if (.not. (x .eq. 2.0)) print *, 'out'\n");
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_EQ(r.output[0], "in");
}

TEST(InterpTest, ArraysAndBounds) {
  auto r = run_src(
      "      program t\n"
      "      real a(3, 0:2)\n"
      "      do j = 0, 2\n"
      "        do i = 1, 3\n"
      "          a(i, j) = i*10 + j\n"
      "        end do\n"
      "      end do\n"
      "      print *, a(1,0), a(3,2), a(2,1)\n"
      "      end\n");
  EXPECT_EQ(r.output[0], "10 32 21");
}

TEST(InterpTest, OutOfBoundsAborts) {
  EXPECT_THROW(run_src("      program t\n"
                       "      real a(3)\n"
                       "      a(4) = 1.0\n"
                       "      end\n"),
               InternalError);
}

TEST(InterpTest, GotoFlow) {
  auto r = run_src(
      "      program t\n"
      "      i = 0\n"
      "   10 i = i + 1\n"
      "      if (i .lt. 3) goto 10\n"
      "      print *, i\n"
      "      end\n");
  EXPECT_EQ(r.output[0], "3");
}

TEST(InterpTest, DataInitialization) {
  auto r = run_src(
      "      program t\n"
      "      real a(4)\n"
      "      integer k\n"
      "      data a /1.0, 2*2.5, 4.0/\n"
      "      data k /7/\n"
      "      print *, a(1), a(2), a(3), a(4), k\n"
      "      end\n");
  EXPECT_EQ(r.output[0], "1 2.5 2.5 4 7");
}

TEST(InterpTest, SubroutineByReference) {
  auto r = run_src(
      "      program t\n"
      "      x = 1.0\n"
      "      call bump(x)\n"
      "      print *, x\n"
      "      end\n"
      "      subroutine bump(a)\n"
      "      a = a + 1.0\n"
      "      end\n");
  EXPECT_EQ(r.output[0], "2");
}

TEST(InterpTest, ArrayArgumentAliased) {
  auto r = run_src(
      "      program t\n"
      "      real v(5)\n"
      "      call fill(v, 5)\n"
      "      print *, v(1), v(5)\n"
      "      end\n"
      "      subroutine fill(a, n)\n"
      "      real a(n)\n"
      "      do i = 1, n\n"
      "        a(i) = i*1.0\n"
      "      end do\n"
      "      end\n");
  EXPECT_EQ(r.output[0], "1 5");
}

TEST(InterpTest, ArraySectionArgument) {
  // Passing v(3) gives the callee a view starting at element 3.
  auto r = run_src(
      "      program t\n"
      "      real v(6)\n"
      "      call fill(v(3), 2)\n"
      "      print *, v(1), v(3), v(4)\n"
      "      end\n"
      "      subroutine fill(a, n)\n"
      "      real a(n)\n"
      "      do i = 1, n\n"
      "        a(i) = 9.0\n"
      "      end do\n"
      "      end\n");
  EXPECT_EQ(r.output[0], "0 9 9");
}

TEST(InterpTest, ScalarElementCopyRestore) {
  auto r = run_src(
      "      program t\n"
      "      real v(3)\n"
      "      v(2) = 5.0\n"
      "      call bump(v(2))\n"
      "      print *, v(2)\n"
      "      end\n"
      "      subroutine bump(a)\n"
      "      a = a + 1.0\n"
      "      end\n");
  EXPECT_EQ(r.output[0], "6");
}

TEST(InterpTest, UserFunction) {
  auto r = run_src(
      "      program t\n"
      "      y = sq(3.0) + sq(4.0)\n"
      "      print *, y\n"
      "      end\n"
      "      real function sq(x)\n"
      "      sq = x*x\n"
      "      end\n");
  EXPECT_EQ(r.output[0], "25");
}

TEST(InterpTest, FunctionBindsArgumentsLikeCall) {
  // A function reference binds its actuals exactly as a CALL does: an
  // element on a scalar dummy is copied back, and an element on an array
  // dummy is the section starting there.
  auto r = run_src(
      "      program t\n"
      "      real a(3)\n"
      "      a(1) = 1.0\n"
      "      a(2) = 2.0\n"
      "      a(3) = 3.0\n"
      "      y = g(a(2))\n"
      "      print *, y\n"
      "      x = f(a(2))\n"
      "      print *, a(2), x\n"
      "      end\n"
      "      real function f(b)\n"
      "      real b\n"
      "      b = 12.0\n"
      "      f = b\n"
      "      end\n"
      "      real function g(b)\n"
      "      real b(2)\n"
      "      g = b(1) + b(2)\n"
      "      end\n");
  ASSERT_EQ(r.output.size(), 2u);
  EXPECT_EQ(r.output[0], "5");
  EXPECT_EQ(r.output[1], "12 12");
}

TEST(InterpTest, MalformedCallsAreUserErrorsNamingTheCallee) {
  const std::string callees =
      "      subroutine s(c)\n"
      "      real c\n"
      "      end\n"
      "      real function h(b)\n"
      "      real b\n"
      "      h = b\n"
      "      end\n"
      "      subroutine v(d)\n"
      "      real d(2)\n"
      "      end\n";
  const std::pair<const char*, const char*> cases[] = {
      {"      call nosuch(1.0)\n", "call to unknown subroutine nosuch"},
      {"      x = nosuch(1.0)\n", "reference to unknown function nosuch"},
      {"      call s(1.0, 2.0)\n",
       "argument count mismatch calling s: 2 actual, 1 dummy"},
      {"      x = h(1.0, 2.0)\n",
       "argument count mismatch calling h: 2 actual, 1 dummy"},
      {"      call s(a)\n", "array a passed to scalar dummy c of s"},
      {"      x = h(a)\n", "array a passed to scalar dummy b of h"},
      {"      call v(x)\n", "scalar actual for array dummy d of v"},
  };
  for (const auto& [call, message] : cases) {
    const std::string src = "      program t\n"
                            "      real a(3)\n" +
                            std::string(call) + "      end\n" + callees;
    try {
      run_src(src);
      ADD_FAILURE() << "no error for: " << call;
    } catch (const UserError& e) {
      EXPECT_EQ(std::string(e.what()), message) << call;
    }
  }
}

TEST(InterpTest, CommonBlocksShareStorage) {
  auto r = run_src(
      "      program t\n"
      "      common /blk/ x, y\n"
      "      x = 1.0\n"
      "      y = 2.0\n"
      "      call swap\n"
      "      print *, x, y\n"
      "      end\n"
      "      subroutine swap\n"
      "      common /blk/ x, y\n"
      "      t = x\n"
      "      x = y\n"
      "      y = t\n"
      "      end\n");
  EXPECT_EQ(r.output[0], "2 1");
}

TEST(InterpTest, Intrinsics) {
  // max/min are integer only when every argument is; aliases (max0,
  // dabs) reach the generic through the parser's canonical name.
  auto r = run_src(
      "      print *, abs(-3), max(2, 7, 5), min(1.5, 0.5), sqrt(16.0),\n"
      "     &  sign(3, -1), nint(2.6)\n"
      "      print *, max(1, 2.5), min(2.5, 1), max0(1, 5, 3, 2, 9, 4, 7, 8),\n"
      "     &  mod(-17, 5), mod(7.5, 2.0), dabs(-1.5d0), int(-3.7)\n"
      "      print *, iand(12, 10), ior(12, 10), ieor(12, 10), real(7),\n"
      "     &  sign(2.5, -1.0), log10(1000.0), atan2(0.0, 1.0)\n");
  EXPECT_EQ(r.output[0], "3 7 0.5 4 -3 3");
  EXPECT_EQ(r.output[1], "2.5 1 9 -2 1.5 1.5 -3");
  EXPECT_EQ(r.output[2], "8 14 6 7 -2.5 3 0");
}

TEST(InterpTest, StopTerminates) {
  auto r = run_src(
      "      print *, 1\n"
      "      stop\n"
      "      print *, 2\n");
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_TRUE(r.stopped);
}

TEST(InterpTest, StopInsideSubroutineTerminates) {
  auto r = run_src(
      "      program t\n"
      "      call quit\n"
      "      print *, 'after'\n"
      "      end\n"
      "      subroutine quit\n"
      "      stop\n"
      "      end\n");
  EXPECT_TRUE(r.stopped);
  EXPECT_TRUE(r.output.empty());
}

TEST(InterpTest, StatementLimitGuards) {
  auto p = parse_program(
      "      program t\n"
      "   10 continue\n"
      "      goto 10\n"
      "      end\n");
  Interpreter interp(*p);
  interp.set_statement_limit(1000);
  EXPECT_THROW(interp.run(), UserError);
}

TEST(InterpTest, CostsAccumulate) {
  auto r = run_src(
      "      s = 0.0\n"
      "      do i = 1, 100\n"
      "        s = s + i*2\n"
      "      end do\n");
  EXPECT_GT(r.clock.serial, 100u);
  EXPECT_EQ(r.clock.serial, r.clock.parallel);  // nothing parallel
}

TEST(InterpTest, ParallelLoopSpeedsUpModeledClock) {
  auto p = parse_program(
      "      program t\n"
      "      real a(4000)\n"
      "      do i = 1, 4000\n"
      "        a(i) = i*2.0 + 1.0\n"
      "      end do\n"
      "      print *, a(123)\n"
      "      end\n");
  // Mark the loop parallel by hand (the driver normally does this).
  DoStmt* loop = p->main()->stmts().loops()[0];
  loop->par.is_parallel = true;
  MachineConfig cfg;
  cfg.processors = 8;
  auto r = run_program(*p, cfg);
  EXPECT_EQ(r.output[0], "247");
  EXPECT_EQ(r.parallel_instances, 1);
  EXPECT_GT(r.clock.speedup(), 4.0);
  EXPECT_LT(r.clock.speedup(), 8.0);
}

TEST(InterpTest, NestedParallelOnlyOutermostCounts) {
  auto p = parse_program(
      "      program t\n"
      "      real a(50,50)\n"
      "      do i = 1, 50\n"
      "        do j = 1, 50\n"
      "          a(i,j) = i + j\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  for (DoStmt* loop : p->main()->stmts().loops())
    loop->par.is_parallel = true;
  MachineConfig cfg;
  cfg.processors = 4;
  auto r = run_program(*p, cfg);
  EXPECT_EQ(r.parallel_instances, 1);  // inner executed within iterations
}

}  // namespace
}  // namespace polaris
