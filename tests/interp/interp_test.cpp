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

TEST(InterpTest, LongPrintPrintsEveryValue) {
  // More values than a 16-bit count holds.
  constexpr int kValues = 65537;
  std::string src = "      print *, 'a'";
  std::string expect = "a";
  for (int v = 1; v <= kValues; ++v) {
    src += ", " + std::to_string(v);
    expect += " " + std::to_string(v);
  }
  src += ", 'z'\n      print *, 'next'\n";
  expect += " z";
  auto r = run_src(src);
  ASSERT_EQ(r.output.size(), 2u);
  EXPECT_EQ(r.output[0], expect);
  EXPECT_EQ(r.output[1], "next");
  EXPECT_EQ(r.statements, 2u);
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

// A limit at the int64 edge: the trip count is computed once at entry,
// so stepping past 2^63 - 1 ends the loop instead of wrapping below the
// limit (and running into the statement limit).
TEST(InterpTest, DoNearTheInt64EdgeMakesItsTrips) {
  const struct {
    const char* header;
    const char* trips;
  } cases[] = {
      {"      do i = 9223372036854775806, 9223372036854775807\n", "2"},
      {"      do i = -9223372036854775807, 9223372036854775807, "
       "9223372036854775807\n",
       "3"},
  };
  for (const auto& c : cases) {
    auto p = parse_program(std::string("      n = 0\n") + c.header +
                           "        n = n + 1\n      end do\n"
                           "      print *, n\n");
    Interpreter interp(*p);
    interp.set_statement_limit(1000);
    RunResult r = interp.run();
    ASSERT_EQ(r.output.size(), 1u) << c.header;
    EXPECT_EQ(r.output[0], c.trips) << c.header;
  }
}

// Integer + - * / mod, negation, abs and sign wrap at the int64 edge
// instead of trapping (-2^63 / -1) or being undefined (2^63 - 1 + 1,
// abs(-2^63)).
TEST(InterpTest, IntegerArithmeticWrapsAtTheInt64Edge) {
  auto r = run_src(
      "      integer i, j, k\n"
      "      i = -9223372036854775807 - 1\n"
      "      j = -1\n"
      "      k = 9223372036854775807\n"
      "      print *, i / j, mod(i, j), k + 1, -i, i - 1, k * 2\n"
      "      print *, abs(i), sign(i, -1), sign(i, 1)\n");
  ASSERT_EQ(r.output.size(), 2u);
  EXPECT_EQ(r.output[0],
            "-9223372036854775808 0 -9223372036854775808 "
            "-9223372036854775808 9223372036854775807 -2");
  EXPECT_EQ(r.output[1],
            "-9223372036854775808 -9223372036854775808 "
            "-9223372036854775808");
}

// A DO with an empty body makes every trip at its entry, with the value
// and the charge the trips reach: no statement runs in them, so the
// statement limit could not stop 2^63 - 1 trips one by one.
TEST(InterpTest, EmptyDoBodyMakesItsTripsAtOnce) {
  auto p = parse_program(
      "      program t\n"
      "      do i = 1, 9223372036854775807\n"
      "      end do\n"
      "      print *, i\n"
      "      end\n");
  Interpreter interp(*p);
  interp.set_statement_limit(1000);
  RunResult r = interp.run();
  EXPECT_EQ(r.output, std::vector<std::string>{"-9223372036854775808"});
  EXPECT_EQ(r.statements, 2u);
  // (2^63 - 1) trips of loop_iter 2, and the PRINT's load.
  EXPECT_EQ(r.clock.serial, UINT64_MAX);
}

/// What running `src` gives: its printed lines, or its error's type,
/// condition and message (without the raising site's file and line).
std::string outcome(const std::string& src) {
  try {
    std::string out;
    for (const std::string& line : run_src(src).output) out += line + "\n";
    return out;
  } catch (const InternalError& e) {
    const std::string what = e.what();
    const std::string site = e.file() + ":" + std::to_string(e.line());
    return "InternalError " + e.condition() + " " +
           what.substr(what.find(site) + site.size());
  } catch (const UserError& e) {
    return std::string("UserError ") + e.what();
  }
}

// The fused binary ops take their right operand from the op: a constant
// (`x OP 3`) or a scalar's slot (`x OP y`).  Each must give what the
// unfused op gives over an element load (`x OP w(1)`, w(1) holding the
// same value), values and errors alike, with y a stable local (typed ops)
// and a COMMON member (tag-checked ops).
TEST(InterpTest, FusedRightOperandsMatchTheUnfusedOps) {
  struct Operand {
    const char* type;
    const char* value;
  };
  const Operand integer{"integer", "3"}, real{"real", "3.0"},
      logical{"logical", ".false."};
  const struct {
    Operand x, right;
    const char* x_value;
  } pairings[] = {
      {integer, integer, "7"},    {real, real, "7.5"},
      {integer, real, "7"},       {real, integer, "7.5"},
      {logical, logical, ".true."},
  };
  const char* const ops[] = {"+",     "-",     "*",     "/",     "**",
                             ".eq.",  ".ne.",  ".lt.",  ".le.",  ".gt.",
                             ".ge.",  ".and.", ".or.",  "max",   "min"};
  int compared = 0;
  for (const char* op : ops) {
    const std::string name = op;
    const bool logical_op = name == ".and." || name == ".or.";
    for (const auto& p : pairings) {
      const bool logical_pair = std::string(p.x.type) == "logical";
      if (logical_op != logical_pair && !(logical_pair && name == ".eq."))
        continue;
      for (const char* storage : {"", "      common /c/ y\n"}) {
        auto program = [&](const std::string& right) {
          const std::string expr =
              name == "max" || name == "min"
                  ? name + "(x, " + right + ")"
                  : "x " + name + " " + right;
          return std::string("      program t\n") + "      " + p.x.type +
                 " x\n" + "      " + p.right.type + " y, w(1)\n" + storage +
                 "      x = " + p.x_value + "\n      y = " + p.right.value +
                 "\n      w(1) = " + p.right.value + "\n      print *, " +
                 expr + "\n      end\n";
        };
        const std::string want = outcome(program("w(1)"));
        // Only .eq. over logicals fails ("logical used as real").
        if (!logical_pair) {
          EXPECT_EQ(want.find("Error"), std::string::npos) << want;
        }
        EXPECT_EQ(outcome(program(p.right.value)), want)
            << program(p.right.value);
        EXPECT_EQ(outcome(program("y")), want) << program("y");
        compared += 2;
      }
    }
  }
  EXPECT_EQ(compared, 4 * (13 * 4 + 1 + 2));
}

// The fused element accesses read each subscript from the slot of an
// integer scalar local and add a constant: v(i), v(i+1), a(i-1, j+1).
// Each program runs with i and j as locals (fused) and as COMMON members
// (never fused: a COMMON member is not stable); both must load, store and
// fail alike.
TEST(InterpTest, FusedSubscriptsMatchTheUnfusedAccesses) {
  auto program = [](const char* storage, const std::string& i,
                    const char* body) {
    return std::string("      program t\n      integer i, j\n") +
           "      real v(3), a(3, 2)\n      integer n(3, 2)\n" + storage +
           "      i = " + i + "\n      j = 1\n" +
           "      do k = 1, 3\n        v(k) = k*1.5\n"
           "        a(k, 1) = k*2.5\n        a(k, 2) = k*3.5\n"
           "        n(k, 1) = k\n        n(k, 2) = 10*k\n"
           "      end do\n" +
           body + "      print *, v(1), v(2), v(3), x\n" +
           "      print *, a(1, 1), a(2, 1), a(3, 1), a(1, 2), "
           "a(2, 2), a(3, 2)\n" +
           "      print *, n(1, 1), n(2, 1), n(3, 1), n(1, 2), "
           "n(2, 2), n(3, 2)\n      end\n";
  };
  const char* const common = "      common /c/ i, j\n";
  int compared = 0;
  auto compare = [&](const std::string& i, const char* body) {
    const std::string want = outcome(program(common, i, body));
    EXPECT_EQ(outcome(program("", i, body)), want) << program("", i, body);
    ++compared;
    return want;
  };
  const char* const accesses[] = {
      "      print *, v(i)\n",
      "      print *, v(i+1), v(i-1)\n",
      "      print *, a(i, j)\n",
      "      print *, a(i-1, j+1)\n",
      "      print *, n(j+1, i-1)\n",
      "      v(i) = 7\n",
      "      v(i+1) = 9.5\n",
      "      v(i-1) = 7\n",
      "      a(i-1, j+1) = 9.5\n",
      "      n(j+1, i-1) = 8\n",
      "      x = v(i+1) + a(i-1, j+1)*n(j+1, i-1)\n",
  };
  for (const char* i : {"2", "3", "4", "0"}) {
    for (const char* access : accesses) {
      const std::string want = compare(i, access);
      // In bounds, the programs run to completion.
      if (std::string(i) == "2") {
        EXPECT_EQ(want.find("Error"), std::string::npos) << want;
      }
    }
  }
  // Offsets at the 32-bit limit are fused, one past it is not; each reads
  // v(1).
  const struct {
    const char* i;
    const char* access;
  } limits[] = {
      {"-2147483646", "      print *, v(i + 2147483647)\n"},
      {"-2147483647", "      print *, v(i + 2147483648)\n"},
      {"2147483649", "      print *, v(i - 2147483648)\n"},
      {"2147483650", "      print *, v(i - 2147483649)\n"},
  };
  for (const auto& l : limits) {
    const std::string want = compare(l.i, l.access);
    EXPECT_EQ(want.rfind("1.5\n", 0), 0u) << want;
  }
  // The offset wraps as the addition does: 2^63 - 1 + 1 is -2^63.
  for (const char* access : {"      print *, v(i+1)\n", "      v(i+1) = 1\n"}) {
    const std::string want = compare("9223372036854775807", access);
    EXPECT_EQ(want,
              "InternalError subs[d] >= lo && subs[d] <= hi : array "
              "subscript out of declared bounds")
        << want;
  }
  EXPECT_EQ(compared, 4 * 11 + 4 + 2);
}

// A COMMON member or a dummy can hold a value of another kind than it is
// declared with.  A subscript through one converts that value, as it does
// any subscript whose kind lowering cannot prove, so such a subscript is
// never fused: a fused access would read a real's bits as an integer.
TEST(InterpTest, CommonAndDummySubscriptsConvertTheirValues) {
  auto r = run_src(
      "      program t\n"
      "      real v(3), r\n"
      "      common /c/ r\n"
      "      v(1) = 1.5\n      v(2) = 2.5\n      v(3) = 3.5\n"
      "      r = 2.0\n"
      "      call s(v, r)\n"
      "      end\n"
      "      subroutine s(v, k)\n"
      "      real v(3)\n"
      "      integer k, r\n"
      "      common /c/ r\n"
      "      print *, v(r), v(r+1), v(k), v(k-1)\n"
      "      v(r) = 7\n      v(k-1) = 8\n"
      "      print *, v(1), v(2), v(3)\n"
      "      end\n");
  EXPECT_EQ(r.output, (std::vector<std::string>{"2.5 3.5 2.5 1.5",
                                                 "8 7 3.5"}));
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

// Statement counts and both clocks through every control construct, as
// the statement-by-statement walker counted them: an IF chain counts its
// IF once however many arms it tests, an ELSE IF or ELSE reached by
// sequential flow counts itself and its END IF, an END IF reached by the
// dispatch and every END DO count nothing.  A row with a statement limit
// runs under a limit of exactly its count, then fails one under it.
TEST(InterpTest, ControlConstructsCountLikeTheWalker) {
  const char* doall =
      "      program t\n      real a(8)\n      k = 0\n"
      "csrd$ doall\n      do i = 1, 8\n"
      "        if (i .lt. 3) then\n          a(i) = 1.0\n"
      "        else if (i .lt. 6) then\n          a(i) = 2.0\n"
      "          do j = 1, i - 3\n            a(i) = a(i) + j\n"
      "          end do\n        else\n          a(i) = 3.0\n        end if\n"
      "        do j = i, 1\n          a(i) = 0.0\n        end do\n"
      "      end do\n      print *, a(1), a(4), a(5), a(8), i, j\n      end\n";
  const struct {
    const char* name;
    const char* src;
    std::vector<std::string> output;
    std::uint64_t statements, serial, parallel;
    int processors = 8;
    std::uint64_t limit = 0;  ///< 0: the default limit
  } cases[] = {
      {"goto to an END DO label",
       "      program t\n      n = 0\n      do i = 1, 5\n"
       "        if (i .gt. 3) goto 20\n        n = n + i\n"
       "   20 end do\n      print *, n, i\n      end\n",
       {"6 6"}, 13, 42, 42},
      {"backward goto loop, at the statement limit",
       "      program t\n      i = 0\n      s = 0.0\n   10 i = i + 1\n"
       "      s = s + i\n      if (i .lt. 5) goto 10\n"
       "      print *, i, s\n      end\n",
       {"5 15"}, 22, 58, 58, 8, 22},
      {"else if and else reached by sequential flow",
       "      program t\n      k = 0\n      do i = 1, 3\n"
       "        if (i .eq. 1) then\n          k = k + 1\n"
       "        else if (i .eq. 2) then\n          k = k + 10\n"
       "        else\n          k = k + 100\n        end if\n      end do\n"
       "      print *, k\n      end\n",
       {"111"}, 14, 32, 32},
      {"false if with no else",
       "      program t\n      k = 0\n      do i = 1, 4\n"
       "        if (i .gt. 2) then\n          k = k + i\n        end if\n"
       "        if (i .eq. 1) k = k + 100\n      end do\n"
       "      print *, k\n      end\n",
       {"107"}, 17, 45, 45},
      {"zero-trip and negative-step DOs",
       "      program t\n      k = 0\n      do i = 5, 1\n        k = k + 1\n"
       "      end do\n      do j = 10, 1, -3\n        k = k + j\n"
       "      end do\n      do m = 1, 5, -1\n        k = k + 100\n"
       "      end do\n      print *, k, i, j, m\n      end\n",
       {"22 5 -2 1"}, 9, 31, 31},
      {"limit variable changed in the body",
       "      program t\n      n = 3\n      k = 0\n      do i = 1, n\n"
       "        n = n + 1\n        k = k + 1\n      end do\n"
       "      print *, k, n, i\n      end\n",
       {"3 6 4"}, 10, 30, 30},
      {"return from inside a DO in a subroutine",
       "      program t\n      call s(k)\n      print *, k\n      end\n"
       "      subroutine s(k)\n      k = 0\n      do i = 1, 10\n"
       "        k = k + i\n        if (k .gt. 10) return\n      end do\n"
       "      k = -1\n      end\n",
       {"15"}, 15, 71, 71},
      {"stop inside a DO",
       "      program t\n      k = 0\n      do i = 1, 10\n        k = k + 1\n"
       "        if (i .eq. 4) stop\n        print *, k\n      end do\n"
       "      print *, 'after'\n      end\n",
       {"1", "2", "3"}, 14, 36, 36},
      {"if chain and nested DOs inside a doall", doall, {"0 3 5 3 9 8"}, 47,
       123, 2496},
      {"the same doall at p=1", doall, {"0 3 5 3 9 8"}, 47, 123, 123, 1},
      // An empty DO body makes its trips at DO entry, with their charges.
      {"empty DO of 5 trips, at the statement limit",
       "      program t\n      do i = 1, 5\n      end do\n"
       "      print *, i\n      end\n",
       {"6"}, 2, 11, 11, 8, 2},
      {"zero-trip empty DO",
       "      program t\n      k = 3\n      do i = 5, 1\n      end do\n"
       "      print *, i, k\n      end\n",
       {"5 3"}, 3, 3, 3},
      {"negative-step empty DO",
       "      program t\n      do i = 10, 1, -3\n      end do\n"
       "      print *, i\n      end\n",
       {"-2"}, 2, 10, 10},
      {"empty DO inside a doall",
       "      program t\n      real a(4)\ncsrd$ doall\n      do i = 1, 4\n"
       "        a(i) = i\n        do j = 1, i\n        end do\n"
       "      end do\n      print *, a(4), i, j\n      end\n",
       {"4 5 5"}, 10, 47, 1997},
  };
  for (const auto& c : cases) {
    auto p = parse_program(c.src);
    MachineConfig cfg;
    cfg.processors = c.processors;
    Interpreter interp(*p, cfg);
    if (c.limit != 0) interp.set_statement_limit(c.limit);
    RunResult r = interp.run();
    EXPECT_EQ(r.output, c.output) << c.name;
    EXPECT_EQ(r.statements, c.statements) << c.name;
    EXPECT_EQ(r.clock.serial, c.serial) << c.name;
    EXPECT_EQ(r.clock.parallel, c.parallel) << c.name;
    if (c.limit == 0) continue;
    Interpreter over(*p, cfg);
    over.set_statement_limit(c.limit - 1);
    try {
      over.run();
      ADD_FAILURE() << "no error one statement over the limit: " << c.name;
    } catch (const UserError& e) {
      EXPECT_EQ(std::string(e.what()), "interpreter statement limit exceeded");
    }
  }
}

// A GOTO out of a DO body leaves the loop, with the DO variable at its
// current value.  The walker ran the rest of the unit inside the
// iteration and then resumed the loop.
TEST(InterpTest, GotoOutOfDoLeavesTheLoop) {
  const struct {
    const char* src;
    std::vector<std::string> output;
    std::uint64_t statements;
  } cases[] = {
      {"      program t\n      do i = 1, 10\n"
       "        if (i .eq. 3) goto 20\n      end do\n"
       "      print *, 'none'\n   20 print *, i\n      end\n",
       {"3"}, 6},
      // Out of the inner of two DOs, to the outer's body.
      {"      program t\n      n = 0\n      do i = 1, 4\n"
       "        do j = 1, 4\n          n = n + 1\n"
       "          if (j .eq. 2) goto 30\n        end do\n"
       "   30   continue\n      end do\n      print *, n, i, j\n      end\n",
       {"8 5 2"}, 31},
      // Back to the DO statement: the loop starts again.
      {"      program t\n      n = 0\n   10 do i = 1, 3\n"
       "        n = n + 1\n        if (n .eq. 2) goto 10\n      end do\n"
       "      print *, n, i\n      end\n",
       {"5 4"}, 15},
  };
  for (const auto& c : cases) {
    RunResult r = run_src(c.src);
    EXPECT_EQ(r.output, c.output) << c.src;
    EXPECT_EQ(r.statements, c.statements) << c.src;
  }
}

// A GOTO out of a loop run as parallel is a UserError naming the loop;
// the same loop run sequentially leaves as any DO does.
TEST(InterpTest, GotoOutOfParallelLoopIsUserError) {
  const char* src =
      "      program t\n      k = 0\ncsrd$ doall\n      do i = 1, 10\n"
      "        k = k + 1\n        if (i .eq. 3) goto 20\n      end do\n"
      "      print *, 'none'\n   20 print *, i, k\n      end\n";
  auto p = parse_program(src);
  MachineConfig one;
  one.processors = 1;
  RunResult r = run_program(*p, one);
  EXPECT_EQ(r.output, std::vector<std::string>{"3 3"});
  EXPECT_EQ(r.statements, 10u);
  try {
    run_src(src);
    ADD_FAILURE() << "no error for a GOTO out of a parallel loop";
  } catch (const UserError& e) {
    EXPECT_EQ(std::string(e.what()),
              "GOTO leaves the body of parallel loop do#2");
  }
}

// A GOTO out of an inner DO that stays inside a parallel loop's body is
// an ordinary exit from the inner loop, at any processor count.
TEST(InterpTest, GotoOutOfInnerLoopStaysInParallelBody) {
  const char* src =
      "      program t\n      integer m(4)\ncsrd$ doall\n      do i = 1, 4\n"
      "        do j = 1, 10\n          if (j .eq. i) goto 30\n"
      "        end do\n   30   m(i) = j * 10\n      end do\n"
      "      print *, m(1), m(2), m(3), m(4)\n      end\n";
  for (int processors : {1, 8}) {
    auto p = parse_program(src);
    MachineConfig cfg;
    cfg.processors = processors;
    RunResult r = run_program(*p, cfg);
    EXPECT_EQ(r.output, std::vector<std::string>{"10 20 30 40"});
    EXPECT_EQ(r.parallel_instances, processors > 1 ? 1 : 0);
  }
}

// A GOTO into a DO body from outside it has no iteration to join.
TEST(InterpTest, GotoIntoDoBodyIsUserError) {
  try {
    run_src("      program t\n      goto 10\n      do i = 1, 3\n"
            "   10   print *, i\n      end do\n      end\n");
    ADD_FAILURE() << "no error for a GOTO into a DO body";
  } catch (const UserError& e) {
    EXPECT_EQ(std::string(e.what()), "GOTO into the body of do#2");
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

// Shadows mark only the accesses made in the speculative loop's own frame:
// a callee's writes and reads through its dummy alias of the array stay
// unmarked, so its cross-iteration dependence does not fail the attempt.
// The dummy b has the frame slot that a has in the caller.
TEST(InterpTest, SpeculativeShadowsIgnoreCalleeAliases) {
  auto p = parse_program(
      "      program t\n      real a(20)\n      integer k(20)\n"
      "      do i = 1, 20\n        k(i) = mod(i, 4) + 1\n      end do\n"
      "      do i = 1, 20\n        call bump(a, k(i))\n      end do\n"
      "      print *, a(1), a(2), a(4)\n      end\n"
      "      subroutine bump(b, j)\n      real b(20)\n"
      "      b(j) = b(j) + 1.0\n      end\n");
  DoStmt* d = p->main()->stmts().loops()[1];
  d->par.speculative = true;
  d->par.speculative_arrays = {p->main()->symtab().lookup("a")};
  MachineConfig cfg;
  cfg.processors = 8;
  RunResult r = run_program(*p, cfg);
  EXPECT_EQ(r.output, std::vector<std::string>{"5 5 5"});
  EXPECT_EQ(r.speculative_attempts, 1);
  EXPECT_EQ(r.speculative_failures, 0);
  EXPECT_EQ(r.pd_test_cost, 36u);
  EXPECT_EQ(r.clock.serial, 1083u);
  EXPECT_EQ(r.clock.parallel, 3035u);
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
      // A stable local that is an array, where a fused op takes the
      // operand: a subscript of a load and of a store, and the right
      // operand of a binary op.
      {"      integer k(2)\n      real v(3)\n      x = v(k)\n",
       "!cell->is_array", "whole array used as a value: k"},
      {"      integer k(2)\n      real v(3)\n      v(k) = 1.0\n",
       "!cell->is_array", "whole array used as a value: k"},
      {"      real a(2)\n      x = 1.0 + a\n", "!cell->is_array",
       "whole array used as a value: a"},
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
