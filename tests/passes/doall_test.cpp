// DOALL driver tests: the interplay of reductions, privatization and
// dependence tests, and the speculative fallback.
#include "passes/doall.h"

#include <gtest/gtest.h>

#include "parser/parser.h"

namespace polaris {
namespace {

struct Fix {
  std::unique_ptr<Program> prog;
  Diagnostics diags;
  Options opts = Options::polaris();

  explicit Fix(const std::string& src) : prog(parse_program(src)) {}
  DoallSummary run() {
    AnalysisManager am;
    return mark_doall_loops(nullptr, *prog->main(), opts, diags, am, nullptr);
  }
  DoStmt* loop(size_t i) { return prog->main()->stmts().loops()[i]; }
};

TEST(DoallTest, SimpleParallelLoop) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 100\n"
      "        a(i) = i*1.0\n"
      "      end do\n"
      "      end\n");
  auto s = f.run();
  EXPECT_EQ(s.parallel, 1);
  EXPECT_TRUE(f.loop(0)->par.is_parallel);
}

TEST(DoallTest, ReductionAnnotated) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 100\n"
      "        s = s + a(i)\n"
      "      end do\n"
      "      print *, s\n"
      "      end\n");
  auto sum = f.run();
  EXPECT_EQ(sum.parallel, 1);
  ASSERT_EQ(f.loop(0)->par.reductions.size(), 1u);
  EXPECT_EQ(f.loop(0)->par.reductions[0].var->name(), "s");
}

TEST(DoallTest, InjectiveArrayUpdateNotTreatedAsReduction) {
  // v(i) = v(i) + t matches the reduction idiom, but the dependence test
  // proves the subscript injective — the flag must be dropped (paper
  // Section 3.2) so no merge cost is paid.
  Fix f(
      "      program t\n"
      "      real v(100)\n"
      "      do i = 1, 100\n"
      "        v(i) = v(i) + 1.5\n"
      "      end do\n"
      "      end\n");
  auto s = f.run();
  EXPECT_EQ(s.parallel, 1);
  EXPECT_TRUE(f.loop(0)->par.reductions.empty());
  EXPECT_TRUE(f.diags.contains("flag removed"));
  // And the statement's flag itself was cleared.
  auto* a = static_cast<AssignStmt*>(f.loop(0)->next());
  EXPECT_EQ(a->reduction_flag, ReductionKind::None);
}

TEST(DoallTest, HistogramKeptAsReduction) {
  Fix f(
      "      program t\n"
      "      real h(50)\n"
      "      integer b(100)\n"
      "      do i = 1, 100\n"
      "        h(b(i)) = h(b(i)) + 1.0\n"
      "      end do\n"
      "      end\n");
  auto s = f.run();
  EXPECT_EQ(s.parallel, 1);
  ASSERT_EQ(f.loop(0)->par.reductions.size(), 1u);
  EXPECT_TRUE(f.loop(0)->par.reductions[0].histogram);
}

TEST(DoallTest, ScalarRecurrenceBlocks) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 100\n"
      "        x = x*0.5 + a(i)\n"
      "        a(i) = x\n"
      "      end do\n"
      "      end\n");
  auto s = f.run();
  EXPECT_EQ(s.parallel, 0);
  EXPECT_NE(f.loop(0)->par.serial_reason.find("scalar"), std::string::npos);
}

TEST(DoallTest, IrregularFlowBlocks) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 100\n"
      "        a(i) = 1.0\n"
      "        if (a(i) .gt. 0.5) goto 10\n"
      "      end do\n"
      "   10 continue\n"
      "      end\n");
  auto s = f.run();
  EXPECT_EQ(s.parallel, 0);
  EXPECT_NE(f.loop(0)->par.serial_reason.find("irregular"),
            std::string::npos);
}

TEST(DoallTest, CallBlocksWithoutInlining) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 100\n"
      "        call touch(a, i)\n"
      "      end do\n"
      "      end\n"
      "      subroutine touch(a, i)\n"
      "      real a(100)\n"
      "      a(i) = 1.0\n"
      "      end\n");
  auto s = f.run();
  EXPECT_EQ(s.parallel, 0);
  EXPECT_NE(f.loop(0)->par.serial_reason.find("call"), std::string::npos);
}

TEST(DoallTest, IoBlocks) {
  Fix f(
      "      program t\n"
      "      do i = 1, 10\n"
      "        print *, i\n"
      "      end do\n"
      "      end\n");
  auto s = f.run();
  EXPECT_EQ(s.parallel, 0);
}

TEST(DoallTest, SpeculativeMarkingInnermostOnly) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      integer idx(100)\n"
      "      do s = 1, 5\n"
      "        do i = 1, 100\n"
      "          a(idx(i)) = i*1.0\n"
      "        end do\n"
      "      end do\n"
      "      print *, a(1)\n"
      "      end\n");
  f.opts.runtime_pd_test = true;
  auto sum = f.run();
  EXPECT_EQ(sum.speculative, 1);
  EXPECT_FALSE(f.loop(0)->par.speculative);  // outer s loop: no
  EXPECT_TRUE(f.loop(1)->par.speculative);   // inner i loop: yes
  ASSERT_EQ(f.loop(1)->par.speculative_arrays.size(), 1u);
  EXPECT_EQ(f.loop(1)->par.speculative_arrays[0]->name(), "a");
}

TEST(DoallTest, SpeculationDisabledByDefault) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      integer idx(100)\n"
      "      do i = 1, 100\n"
      "        a(idx(i)) = i*1.0\n"
      "      end do\n"
      "      print *, a(1)\n"
      "      end\n");
  auto s = f.run();
  EXPECT_EQ(s.speculative, 0);
  EXPECT_FALSE(f.loop(0)->par.speculative);
}

TEST(DoallTest, PrivateVarsRecorded) {
  Fix f(
      "      program t\n"
      "      real a(100), w(10)\n"
      "      do i = 1, 100\n"
      "        t = i*0.5\n"
      "        do j = 1, 10\n"
      "          w(j) = t + j\n"
      "        end do\n"
      "        a(i) = w(1) + w(10)\n"
      "      end do\n"
      "      end\n");
  auto s = f.run();
  EXPECT_GE(s.parallel, 1);
  const auto& priv = f.loop(0)->par.private_vars;
  auto has = [&](const char* n) {
    for (Symbol* sym : priv)
      if (sym->name() == n) return true;
    return false;
  };
  EXPECT_TRUE(has("t"));
  EXPECT_TRUE(has("j"));
  EXPECT_TRUE(has("w"));
}

}  // namespace
}  // namespace polaris
