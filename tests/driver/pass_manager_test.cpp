// PassPipeline tests: spec parsing, standard-battery equivalence, and the
// per-pass instrumentation the `-timing` flag surfaces.
#include "driver/pass_manager.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "driver/compiler.h"
#include "parser/parser.h"
#include "suite/suite.h"

namespace polaris {
namespace {

const char* kVectorKernel =
    "      program t\n"
    "      real a(100), b(100)\n"
    "      do i = 1, 100\n"
    "        b(i) = 1.0*i\n"
    "      end do\n"
    "      do i = 1, 100\n"
    "        a(i) = b(i)*2.0\n"
    "      end do\n"
    "      end\n";

TEST(PassPipelineTest, ParsesValidSpec) {
  PassPipeline p = PassPipeline::parse("constprop,doall");
  EXPECT_EQ(p.pass_names(),
            (std::vector<std::string>{"constprop", "doall"}));
}

TEST(PassPipelineTest, ParseTrimsAndAllowsReordering) {
  PassPipeline p = PassPipeline::parse(" doall , constprop ");
  EXPECT_EQ(p.pass_names(),
            (std::vector<std::string>{"doall", "constprop"}));
}

TEST(PassPipelineTest, RejectsUnknownPass) {
  EXPECT_THROW(PassPipeline::parse("constprop,bogus"), UserError);
  try {
    PassPipeline::parse("bogus");
    FAIL() << "expected UserError";
  } catch (const UserError& e) {
    // The message names the offender and lists the registry.
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("doall"), std::string::npos);
  }
}

TEST(PassPipelineTest, RejectsEmptySpecAndEmptyComponent) {
  EXPECT_THROW(PassPipeline::parse(""), UserError);
  EXPECT_THROW(PassPipeline::parse("constprop,,doall"), UserError);
  EXPECT_THROW(PassPipeline::parse(","), UserError);
}

TEST(PassPipelineTest, StandardBatteryMatchesRegistry) {
  // The standard battery is the registry prefix; "reduction" and
  // "privatization" are registered extras available to -passes= specs only.
  EXPECT_EQ(PassPipeline::standard().pass_names(),
            (std::vector<std::string>{"inline", "constprop", "normalize",
                                      "induction", "forwardsub", "doall",
                                      "strength"}));
  EXPECT_EQ(PassPipeline::registered_passes(),
            (std::vector<std::string>{"inline", "constprop", "normalize",
                                      "induction", "forwardsub", "doall",
                                      "strength", "reduction",
                                      "privatization"}));
}

TEST(PassPipelineTest, FromOptionsSelectsSpecOrStandard) {
  Options opts = Options::polaris();
  EXPECT_EQ(PassPipeline::from_options(opts).pass_names(),
            PassPipeline::standard().pass_names());
  opts.pipeline_spec = "normalize,doall";
  EXPECT_EQ(PassPipeline::from_options(opts).pass_names(),
            (std::vector<std::string>{"normalize", "doall"}));
}

TEST(PassPipelineTest, CustomPipelineDrivesCompiler) {
  Options opts = Options::polaris();
  opts.pipeline_spec = "doall";  // dependence testing alone
  Compiler compiler(opts);
  CompileReport report;
  compiler.compile(kVectorKernel, &report);
  EXPECT_EQ(report.doall.loops, 2);
  EXPECT_EQ(report.doall.parallel, 2);
  // Only the requested pass ran.
  ASSERT_EQ(report.pass_timings.size(), 1u);
  EXPECT_EQ(report.pass_timings[0].pass, "doall");
}

TEST(PassPipelineTest, TimingsCoverEveryPassInOrder) {
  Compiler compiler(CompilerMode::Polaris);
  CompileReport report;
  compiler.compile(kVectorKernel, &report);

  std::vector<std::string> timed;
  for (const PassTiming& t : report.pass_timings) {
    timed.push_back(t.pass);
    EXPECT_GE(t.runs, 1) << t.pass;
    EXPECT_GE(t.ms, 0.0) << t.pass;
  }
  EXPECT_EQ(timed, PassPipeline::standard().pass_names());
  // The battery exercised the analysis cache and got hits from it.
  EXPECT_GT(report.analysis.queries, 0u);
  EXPECT_GT(report.analysis.hits, 0u);
}

TEST(PassPipelineTest, InstrumentationRecordsIrGrowth) {
  // Strength reduction splices temp assignments into a parallel loop with
  // a substituted induction expression: positive statement delta.
  const char* src =
      "      program t\n"
      "      real a(400)\n"
      "      k = 0\n"
      "      do i = 1, 20\n"
      "        do j = 1, 20\n"
      "          k = k + 1\n"
      "          a(k) = 1.0\n"
      "        end do\n"
      "      end do\n"
      "      end\n";
  Compiler compiler(CompilerMode::Polaris);
  CompileReport report;
  compiler.compile(src, &report);

  long induction_stmt_delta = 0, strength_stmt_delta = 0;
  for (const PassTiming& t : report.pass_timings) {
    if (t.pass == "induction") induction_stmt_delta = t.stmt_delta;
    if (t.pass == "strength") strength_stmt_delta = t.stmt_delta;
  }
  EXPECT_LT(induction_stmt_delta, 0);  // k = k + 1 substituted away
  EXPECT_GT(strength_stmt_delta, 0);   // private-copy temps spliced in
}

TEST(PassPipelineTest, StandardPipelineMatchesDirectBattery) {
  // Options::polaris() through the pipeline must report exactly what the
  // seed's hard-coded call sequence reported.
  Compiler compiler(CompilerMode::Polaris);
  CompileReport report;
  compiler.compile(kVectorKernel, &report);
  EXPECT_EQ(report.doall.loops, 2);
  EXPECT_EQ(report.doall.parallel, 2);
  EXPECT_EQ(report.doall.speculative, 0);
  ASSERT_EQ(report.loops.size(), 2u);
  EXPECT_TRUE(report.loops[0].parallel);
  EXPECT_TRUE(report.loops[1].parallel);
}

// An AnalysisManager lives for one (pass, unit) run: no cached fact
// reaches a later pass.  On the 17-unit combined suite that pins every
// pass's (queries, hits) exactly; a manager shared across passes answers
// 3 more doall and 3 more strength queries from an earlier pass's cache.
TEST(PassPipelineTest, AnalysisCacheLivesOnePassRun) {
  using QueriesHits = std::pair<std::uint64_t, std::uint64_t>;
  const std::map<std::string, QueriesHits> expected = {
      {"induction", {112, 56}}, {"doall", {582, 146}}, {"strength", {10, 7}}};
  for (int jobs : {1, 4}) {
    Options opts = Options::polaris();
    opts.jobs = jobs;
    CompileReport report;
    Compiler(opts).compile(combined_suite_source(), &report);
    ASSERT_TRUE(report.failures.empty());
    for (const PassTiming& t : report.pass_timings) {
      const auto it = expected.find(t.pass);
      const QueriesHits want =
          it == expected.end() ? QueriesHits{} : it->second;
      EXPECT_EQ(QueriesHits(t.analysis_queries, t.analysis_hits), want)
          << t.pass << " at jobs=" << jobs;
    }
    EXPECT_EQ(report.analysis.queries, 704u) << "jobs=" << jobs;
    EXPECT_EQ(report.analysis.hits, 209u) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace polaris
