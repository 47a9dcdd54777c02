#include "interp/interp.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

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
  // A store (1), then 100 times the iteration (2), two loads (2), the
  // product (2), the sum (1) and a store (1).
  EXPECT_EQ(r.clock.serial, 801u);
  EXPECT_EQ(r.clock.serial, r.clock.parallel);  // nothing parallel
  EXPECT_EQ(r.statements, 102u);
}

// A PARAMETER defined through itself fails where it is evaluated (the
// tree walk recursed until the stack overflowed); an unevaluated
// reference costs nothing.
TEST(InterpTest, SelfReferentialParameterIsUserErrorWhereEvaluated) {
  auto r = run_src(
      "      program t\n"
      "      parameter (n = n + 1)\n"
      "      if (.false.) print *, n\n"
      "      print *, 1\n"
      "      end\n");
  EXPECT_EQ(r.output, std::vector<std::string>{"1"});
  try {
    run_src("      program t\n"
            "      parameter (n = m + 1, m = n * 2)\n"
            "      print *, 2\n"
            "      print *, n\n"
            "      end\n");
    ADD_FAILURE() << "no error for a PARAMETER cycle";
  } catch (const UserError& e) {
    EXPECT_EQ(std::string(e.what()),
              "PARAMETER n is defined in terms of itself");
  }
}

// Exact clocks for what lowering folds or resolves once: a PARAMETER
// defined by an expression (its charge still paid at every reference),
// max/min over mixed kinds, mod, a logical IF chain and a user function
// inside an expression.  The figures are the tree-walking interpreter's.
TEST(InterpTest, ChargesArePinned) {
  const char* src =
      "      program t\n"
      "      integer n, n2\n"
      "      parameter (n = 8, n2 = n*2)\n"
      "      real a(n2), s\n"
      "      integer k\n"
      "      s = 0.0\n"
      "      do i = 1, n2\n"
      "        a(i) = max(i, 2.5) + min(real(i), 3) + mod(i, 3) + max(i, n)\n"
      "      end do\n"
      "      do i = 1, n2 - n\n"
      "        if (a(i) .gt. 10.0 .and. i .lt. n2) then\n"
      "          k = 1\n"
      "        else if (mod(i, 2) .eq. 0 .or. a(i) .lt. 0.0) then\n"
      "          k = 2\n"
      "        else\n"
      "          k = 3\n"
      "        end if\n"
      "        s = s + a(n2 - i + 1) * k + f(a(i), i)\n"
      "      end do\n"
      "      print *, s, a(n2), n2\n"
      "      end\n"
      "      real function f(x, j)\n"
      "      real x\n"
      "      integer j\n"
      "      f = x / j + min(j, 4)\n"
      "      end\n";
  const struct {
    int processors;
    std::uint64_t serial, parallel;
  } runs[] = {{1, 2102, 2102}, {8, 2102, 3288}};
  for (const auto& want : runs) {
    auto p = parse_program(src);
    p->main()->stmts().loops()[0]->par.is_parallel = true;
    MachineConfig cfg;
    cfg.processors = want.processors;
    RunResult r = run_program(*p, cfg);
    ASSERT_EQ(r.output.size(), 1u);
    EXPECT_EQ(r.output[0], "297.189286 36 16");
    EXPECT_EQ(r.clock.serial, want.serial) << "p=" << want.processors;
    EXPECT_EQ(r.clock.parallel, want.parallel) << "p=" << want.processors;
    EXPECT_EQ(r.statements, 68u);
    EXPECT_EQ(r.parallel_instances, want.processors > 1 ? 1 : 0);
  }
}

// The PD test's shadows see an iteration's reads and writes in program
// order: reading a(k(i)) before writing it is a flow dependence across
// the colliding iterations (the attempt fails and re-executes), writing it
// first makes the element privatizable (the attempt passes).
TEST(InterpTest, SpeculativeMarkingFollowsProgramOrder) {
  const std::string setup =
      "      program t\n"
      "      integer k(20)\n"
      "      real a(20), y(20)\n"
      "      do i = 1, 20\n"
      "        k(i) = mod(i, 4) + 1\n"
      "        a(i) = i\n"
      "      end do\n"
      "      do i = 1, 20\n";
  const std::string finish =
      "        y(i) = x\n"
      "      end do\n"
      "      print *, a(1), a(4), y(20)\n"
      "      end\n";
  const struct {
    const char* body;
    const char* output;
    int failures;
    std::uint64_t parallel;
  } loops[] = {
      {"        x = a(k(i))\n        a(k(i)) = x + i\n", "61 59 41", 1, 3394},
      {"        a(k(i)) = i*2.0\n        x = a(k(i))\n", "40 38 40", 0, 3094},
  };
  for (const auto& want : loops) {
    auto p = parse_program(setup + want.body + finish);
    DoStmt* d = p->main()->stmts().loops()[1];
    d->par.speculative = true;
    d->par.speculative_arrays = {p->main()->symtab().lookup("a")};
    MachineConfig cfg;
    cfg.processors = 8;
    RunResult r = run_program(*p, cfg);
    ASSERT_EQ(r.output.size(), 1u);
    EXPECT_EQ(r.output[0], want.output) << want.body;
    EXPECT_EQ(r.speculative_attempts, 1) << want.body;
    EXPECT_EQ(r.speculative_failures, want.failures) << want.body;
    EXPECT_EQ(r.pd_test_cost, 46u) << want.body;
    EXPECT_EQ(r.clock.serial, 803u) << want.body;
    EXPECT_EQ(r.clock.parallel, want.parallel) << want.body;
  }
}

// Run-time errors no other test pins: each keeps its exception type, its
// failed condition and its message.
TEST(InterpTest, RunTimeErrorsKeepTypeConditionAndText) {
  const struct {
    const char* src;
    const char* cond;
    const char* message;
  } cases[] = {
      // A COMMON array reshaped, narrowed to a scalar or widened from one
      // by a second unit.
      {"      program t\n      common /c/ a(10)\n      call s\n      end\n"
       "      subroutine s\n      common /c/ a(2,5)\n      a(1,2) = 2.0\n"
       "      end\n",
       "rank == bounds.size()", "subscript rank mismatch at run time"},
      {"      program t\n      common /c/ a\n      call s\n      end\n"
       "      subroutine s\n      common /c/ a(3)\n      x = a(1)\n"
       "      end\n",
       "cell != nullptr && cell->is_array", "array not bound: a"},
      {"      program t\n      common /c/ a\n      call s\n      end\n"
       "      subroutine s\n      common /c/ a(3)\n      a(1) = 2.0\n"
       "      end\n",
       "cell != nullptr && cell->is_array", "bad array store to a"},
      {"      program t\n      common /c/ a(3)\n      call s\n      end\n"
       "      subroutine s\n      common /c/ a\n      a = 2.0\n      end\n",
       "cell != nullptr && !cell->is_array", "bad scalar store to a"},
      {"      program t\n      common /c/ a(3)\n      call s\n      end\n"
       "      subroutine s\n      common /c/ a\n      x = a + 1.0\n"
       "      end\n",
       "!cell->is_array", "whole array used as a value: a"},
      // A dummy declared past its actual's storage.
      {"      program t\n      real v(3)\n      call s(v)\n      end\n"
       "      subroutine s(b)\n      real b(10)\n      b(5) = 1.0\n"
       "      end\n",
       "flat >= 0 && static_cast<std::size_t>(flat) < data->size()",
       "flat array index out of storage"},
      {"      program t\n      real a(3)\n      print *, a(4)\n      end\n",
       "subs[d] >= lo && subs[d] <= hi",
       "array subscript out of declared bounds"},
      {"      k = 0\n      print *, mod(5, k)\n", "a[1].as_int() != 0",
       "mod by zero"},
      {"      k = 0\n      print *, 5 / k\n", "r.as_int() != 0",
       "integer division by zero"},
      {"      k = 0\n      do i = 1, 10, k\n      end do\n", "step != 0",
       "DO step is zero"},
      {"      logical l\n      l = .true.\n      print *, max(l, 2)\n",
       "false", "logical used as real"},
      {"      x = 2.0\n      if (x) print *, 1\n", "is_logical()",
       "non-logical used in condition"},
  };
  for (const auto& c : cases) {
    try {
      run_src(c.src);
      ADD_FAILURE() << "no error for:\n" << c.src;
    } catch (const InternalError& e) {
      EXPECT_EQ(e.condition(), c.cond) << c.src;
      const std::string what = e.what();
      const std::string tail = std::string(": ") + c.message;
      EXPECT_TRUE(what.size() >= tail.size() &&
                  what.compare(what.size() - tail.size(), tail.size(),
                               tail) == 0)
          << what;
    }
  }
  try {
    run_src("      program t\n      y = f(1.0)\n      end\n"
            "      real function f(x)\n      stop\n      end\n");
    ADD_FAILURE() << "no error for STOP inside a function";
  } catch (const UserError& e) {
    EXPECT_EQ(std::string(e.what()), "STOP inside function");
  }
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
