// Symbolic-kernel statistics baseline (the `bench-smoke` battery).
//
// The hot-path rework (hash-consed atoms, flat polynomial terms,
// counter-guided range-test search) must change *speed* and nothing else.
// The statistic deltas of a whole-suite compile are the cheapest
// observable proxy for "nothing else": every extra or missing
// `simplify.canonical_roundtrips` or `rangetest.permutations_tried` tick
// means the engine took a different decision path somewhere.  This test
// compiles all 16 suite codes as one program at -jobs=1 and asserts the
// per-compile deltas against the checked-in baseline
// (tests/data/stats_baseline.json, the values the `-report-json` stats
// section carries).  An intentional algorithm change updates the baseline
// file in the same commit; an accidental one fails here.
//
// The interpreter golden (tests/data/interp_baseline.json) does the same
// for execution: every Figure 6/7 number is a simulated clock, so the
// statement count, both clocks, the parallel and PD-test counters and a
// hash of the printed lines of each suite run are pinned exactly.  An
// interpreter rewrite that moves a single CostModel charge fails here.
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "interp/interp.h"
#include "parser/parser.h"
#include "suite/suite.h"
#include "support/json.h"

namespace polaris {
namespace {

std::map<std::string, std::int64_t> load_baseline(
    const char* path = POLARIS_STATS_BASELINE) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  JsonValue doc = parse_json(text.str());
  std::map<std::string, std::int64_t> out;
  for (const auto& [key, value] : doc.members)
    out[key] = static_cast<std::int64_t>(value.number);
  return out;
}

TEST(StatsBaseline, SuiteCompileDeltasMatchCheckedInBaseline) {
  ASSERT_TRUE(std::ifstream(POLARIS_STATS_BASELINE).good())
      << "baseline file missing: " << POLARIS_STATS_BASELINE;
  std::map<std::string, std::int64_t> baseline = load_baseline();
  ASSERT_FALSE(baseline.empty());

  Options opts = Options::polaris();
  opts.jobs = 1;
  Compiler compiler(opts);
  CompileReport rep;
  compiler.compile(combined_suite_source(), &rep);

  std::map<std::string, std::int64_t> got;
  for (const StatisticValue& s : rep.stats)
    got[s.component + "." + s.name] = s.value;

  // Every baselined counter must be present with exactly its recorded
  // value — and no counter may appear that the baseline does not know
  // (a new statistic that fires during suite compiles belongs in the
  // baseline file, in the same commit that introduces it).
  for (const auto& [key, expected] : baseline) {
    auto it = got.find(key);
    ASSERT_NE(it, got.end()) << "counter disappeared: " << key;
    EXPECT_EQ(it->second, expected) << key;
  }
  for (const auto& [key, value] : got)
    EXPECT_TRUE(baseline.count(key))
        << "unbaselined counter fired during the suite compile: " << key
        << " = " << value;
}

/// 32-bit FNV-1a over the printed lines, each terminated by a newline.
std::uint32_t output_hash(const std::vector<std::string>& lines) {
  std::uint32_t h = 2166136261u;
  for (const std::string& line : lines) {
    for (char c : line + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 16777619u;
    }
  }
  return h;
}

void record_run(std::map<std::string, std::int64_t>& out,
                const std::string& prefix, const RunResult& r) {
  auto put = [&](const std::string& key, std::uint64_t v) {
    out[prefix + "." + key] = static_cast<std::int64_t>(v);
  };
  put("statements", r.statements);
  put("clock.serial", r.clock.serial);
  put("clock.parallel", r.clock.parallel);
  put("parallel_instances", static_cast<std::uint64_t>(r.parallel_instances));
  put("speculative_attempts",
      static_cast<std::uint64_t>(r.speculative_attempts));
  put("speculative_failures",
      static_cast<std::uint64_t>(r.speculative_failures));
  put("pd_test_cost", r.pd_test_cost);
  put("speculative_wasted", r.speculative_wasted);
  put("output_fnv1a", output_hash(r.output));
}

RunResult run_on(Program& program, int processors) {
  MachineConfig cfg;
  cfg.processors = processors;
  return run_program(program, cfg);
}

/// combined_suite_source() with a main program that CALLs the 16
/// subroutines in table order (its own main program is empty).
std::string calling_suite_source() {
  const std::string head = "      program driver\n";
  std::string src = combined_suite_source();
  EXPECT_EQ(src.compare(0, head.size(), head), 0);
  std::string calls;
  for (const BenchProgram& bp : benchmark_suite())
    calls += "      call " + bp.name + "\n";
  return src.insert(head.size(), calls);
}

std::string to_json(const std::map<std::string, std::int64_t>& values) {
  std::ostringstream os;
  os << "{\n";
  std::size_t i = 0;
  for (const auto& [key, value] : values)
    os << "  \"" << key << "\": " << value
       << (++i < values.size() ? ",\n" : "\n");
  os << "}\n";
  return os.str();
}

TEST(InterpBaseline, SuiteRunsMatchCheckedInGolden) {
  ASSERT_TRUE(std::ifstream(POLARIS_INTERP_BASELINE).good())
      << "golden file missing: " << POLARIS_INTERP_BASELINE;
  std::map<std::string, std::int64_t> golden =
      load_baseline(POLARIS_INTERP_BASELINE);

  std::map<std::string, std::int64_t> got;
  for (const BenchProgram& bp : benchmark_suite()) {
    auto reference = parse_program(bp.source);
    record_run(got, bp.name + ".reference.p1", run_on(*reference, 1));
    auto polaris = Compiler(CompilerMode::Polaris).compile(bp.source);
    record_run(got, bp.name + ".polaris.p1", run_on(*polaris, 1));
    record_run(got, bp.name + ".polaris.p8", run_on(*polaris, 8));
    auto baseline = Compiler(CompilerMode::Baseline).compile(bp.source);
    record_run(got, bp.name + ".baseline.p8", run_on(*baseline, 8));
  }
  Options pd = Options::polaris();
  pd.runtime_pd_test = true;
  // Every point of Figure 6's curve.
  auto track = Compiler(pd).compile(kTrackSource);
  for (int p = 1; p <= 8; ++p)
    record_run(got, "track.pdtest.p" + std::to_string(p), run_on(*track, p));
  // The 16 codes as subroutines of one driver that CALLs each in table
  // order: the runs through CALL, invoke and a callee's frame.
  const std::string calls = calling_suite_source();
  auto reference = parse_program(calls);
  record_run(got, "driver.reference.p1", run_on(*reference, 1));
  auto polaris = Compiler(CompilerMode::Polaris).compile(calls);
  record_run(got, "driver.polaris.p8", run_on(*polaris, 8));

  // Every key must match both ways; on any mismatch the full actual JSON
  // is printed, so an intended change regenerates the golden by copy.
  std::ostringstream diff;
  for (const auto& [key, expected] : golden) {
    auto it = got.find(key);
    if (it == got.end())
      diff << key << ": missing (golden " << expected << ")\n";
    else if (it->second != expected)
      diff << key << ": " << it->second << " (golden " << expected << ")\n";
  }
  for (const auto& [key, value] : got)
    if (!golden.count(key))
      diff << key << ": " << value << " (not in golden)\n";
  EXPECT_TRUE(diff.str().empty())
      << diff.str() << "actual interpreter golden:\n" << to_json(got);
}

}  // namespace
}  // namespace polaris
