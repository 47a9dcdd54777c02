// Parallel-compilation determinism, end to end over the 16-code suite.
//
// The tentpole guarantee under test: `-jobs=N` changes wall-clock time and
// nothing else.  Every report artifact — report JSON, the remarks JSONL
// stream, per-compile statistic deltas, diagnostics, and the annotated
// source-to-source output — must be byte-identical between a sequential
// compile and an 8-worker compile, for every suite code in both compiler
// modes.  (Wall-clock "ms" fields in the timing table are the one
// legitimate difference; the comparison scrubs exactly those.)
//
// Plus the fault-isolation interaction: a unit that faults under
// concurrency unwinds only its own shard — sibling units keep their
// transformations, the report matches the sequential faulted report, and
// with recovery off the lowest-unit-index failure wins deterministically.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "driver/profile_dir.h"
#include "driver/report_json.h"
#include "suite/suite.h"

namespace polaris {
namespace {

/// Replaces the numeric value of every `"ms": <number>` field — the only
/// nondeterministic content in the report document.
std::string scrub_ms(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  const std::string key = "\"ms\":";
  std::size_t i = 0;
  while (i < json.size()) {
    if (json.compare(i, key.size(), key) == 0) {
      out += key;
      out += 'X';
      i += key.size();
      if (i < json.size() && json[i] == ' ') ++i;
      while (i < json.size() &&
             (std::isdigit(static_cast<unsigned char>(json[i])) ||
              json[i] == '.' || json[i] == '-' || json[i] == '+' ||
              json[i] == 'e' || json[i] == 'E'))
        ++i;
    } else {
      out += json[i++];
    }
  }
  return out;
}

/// Replaces the values of the wall-clock `"ts"` / `"dur"` fields in a
/// Chrome trace document — like "ms" in the report, the only fields a
/// worker count may legitimately change.
std::string scrub_trace_times(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  std::size_t i = 0;
  auto scrub_key = [&](const char* key, std::size_t len) {
    if (json.compare(i, len, key) != 0) return false;
    out += key;
    out += 'X';
    i += len;
    while (i < json.size() &&
           (std::isdigit(static_cast<unsigned char>(json[i])) ||
            json[i] == '.' || json[i] == '-'))
      ++i;
    return true;
  };
  while (i < json.size()) {
    if (scrub_key("\"ts\":", 5) || scrub_key("\"dur\":", 6)) continue;
    out += json[i++];
  }
  return out;
}

/// Every byte-comparable artifact of one compile, timing scrubbed.  Since
/// the parse-boundary id renumbering landed, statement ids (and so the
/// `do#<N>` loop names in every artifact) are a pure function of the
/// source text — the comparison is raw bytes, with no loop-id
/// normalization pass hiding reorderings.
struct Artifacts {
  std::string report_json;
  std::string remarks;
  std::string annotated_source;
  std::string diagnostics;
  std::string trace;  ///< Chrome trace, ts/dur scrubbed
  std::vector<StatisticValue> stats;
  std::vector<PassFailure> failures;
  std::optional<CompileReport::CrashInfo> crash;
};

Artifacts compile_artifacts(Options opts, const std::string& source) {
  namespace fs = std::filesystem;
  // Pid-qualified: ctest runs each test as its own process, concurrently,
  // and a bare sequence number would collide across them.
  static int trace_seq = 0;
  const fs::path trace_path =
      fs::temp_directory_path() /
      ("polaris_determinism_" + std::to_string(::getpid()) + "_" +
       std::to_string(trace_seq++) + ".trace.json");
  opts.trace_path = trace_path.string();
  Artifacts a;
  CompileReport rep;
  Compiler c(std::move(opts));
  try {
    c.compile(source, &rep);
  } catch (const InternalError&) {
    // no-recover compiles abort; the report still carries the crash info
  }
  a.report_json = scrub_ms(compile_report_json(rep));
  std::ostringstream remarks, diags;
  rep.diagnostics.print_remarks(remarks);
  rep.diagnostics.print(diags);
  a.remarks = remarks.str();
  a.diagnostics = diags.str();
  a.annotated_source = rep.annotated_source;
  a.stats = rep.stats;
  a.failures = rep.failures;
  a.crash = rep.crash;
  std::ifstream tr(trace_path);
  std::ostringstream trbuf;
  trbuf << tr.rdbuf();
  a.trace = scrub_trace_times(trbuf.str());
  std::error_code ec;
  fs::remove(trace_path, ec);
  return a;
}

void expect_identical(const Artifacts& seq, const Artifacts& par,
                      const std::string& label) {
  EXPECT_EQ(seq.report_json, par.report_json) << label;
  EXPECT_EQ(seq.remarks, par.remarks) << label;
  EXPECT_EQ(seq.annotated_source, par.annotated_source) << label;
  EXPECT_EQ(seq.diagnostics, par.diagnostics) << label;
  EXPECT_EQ(seq.trace, par.trace) << label;
  ASSERT_EQ(seq.stats.size(), par.stats.size()) << label;
  for (std::size_t i = 0; i < seq.stats.size(); ++i) {
    EXPECT_EQ(seq.stats[i].name, par.stats[i].name) << label;
    EXPECT_EQ(seq.stats[i].value, par.stats[i].value)
        << label << ": " << seq.stats[i].component << "."
        << seq.stats[i].name;
  }
}

class JobsDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(JobsDeterminism, EightWorkersMatchSequentialByteForByte) {
  const std::string& src = suite_program(GetParam()).source;
  for (CompilerMode mode : {CompilerMode::Polaris, CompilerMode::Baseline}) {
    Options seq_opts = mode == CompilerMode::Polaris ? Options::polaris()
                                                     : Options::baseline();
    Options par_opts = seq_opts;
    seq_opts.jobs = 1;
    par_opts.jobs = 8;
    Artifacts seq = compile_artifacts(seq_opts, src);
    Artifacts par = compile_artifacts(par_opts, src);
    expect_identical(seq, par,
                     std::string(GetParam()) +
                         (mode == CompilerMode::Polaris ? "/polaris"
                                                        : "/baseline"));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, JobsDeterminism,
    ::testing::Values("applu", "appsp", "arc2d", "bdna", "cloud3d", "cmhog",
                      "flo52", "hydro2d", "mdg", "ocean", "su2cor", "swim",
                      "tfft2", "tomcatv", "trfd", "wave5"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// The suite minis are single-unit programs (jobs clamps to the unit
// count there), so the concurrency tests run on a synthetic multi-unit
// program: a driver plus six subroutines, each with its own
// parallelizable (and privatization/reduction-exercising) loops, so
// eight workers genuinely race over shards.
std::string multi_unit_source() {
  std::ostringstream src;
  src << "      program driver\n"
         "      real a(100), b(100), c(100)\n"
         "      call initab(a, b)\n"
         "      call scalev(a)\n"
         "      call combine(a, b, c)\n"
         "      call redsum(c, s)\n"
         "      call sweep(c)\n"
         "      call finish(c, t)\n"
         "      print *, s + t\n"
         "      end\n"
         "      subroutine initab(a, b)\n"
         "      real a(100), b(100)\n"
         "      do i = 1, 100\n"
         "        a(i) = i*1.0\n"
         "        b(i) = 200.0 - i\n"
         "      end do\n"
         "      end\n"
         "      subroutine scalev(a)\n"
         "      real a(100)\n"
         "      do i = 1, 100\n"
         "        t = a(i)*2.0\n"
         "        a(i) = t + 1.0\n"
         "      end do\n"
         "      end\n"
         "      subroutine combine(a, b, c)\n"
         "      real a(100), b(100), c(100)\n"
         "      do i = 1, 100\n"
         "        c(i) = a(i) + b(i)\n"
         "      end do\n"
         "      end\n"
         "      subroutine redsum(c, s)\n"
         "      real c(100)\n"
         "      s = 0.0\n"
         "      do i = 1, 100\n"
         "        s = s + c(i)\n"
         "      end do\n"
         "      end\n"
         "      subroutine sweep(c)\n"
         "      real c(100)\n"
         "      do i = 1, 50\n"
         "        c(i) = c(i) + c(i + 50)\n"
         "      end do\n"
         "      end\n"
         "      subroutine finish(c, t)\n"
         "      real c(100)\n"
         "      t = 0.0\n"
         "      do i = 1, 100\n"
         "        t = t + c(i)*0.5\n"
         "      end do\n"
         "      end\n";
  return src.str();
}

// Multi-unit determinism: with six subroutine units actually fanned out
// over eight workers, every artifact still matches the sequential run.
TEST(JobsDeterminismMultiUnit, EightWorkersMatchSequential) {
  const std::string src = multi_unit_source();
  Options seq_opts = Options::polaris();
  Options par_opts = seq_opts;
  seq_opts.jobs = 1;
  par_opts.jobs = 8;
  for (int round = 0; round < 4; ++round) {
    Artifacts seq = compile_artifacts(seq_opts, src);
    Artifacts par = compile_artifacts(par_opts, src);
    expect_identical(seq, par, "multi-unit round " + std::to_string(round));
  }
}

// An injected fault on one unit under 8 workers rolls back only that
// unit's shard: exactly the targeted invocation is recorded as failed,
// sibling units keep their parallelized loops, and the whole report is
// byte-identical to the sequential faulted compile.
TEST(JobsFaultIsolation, FaultedUnitUnwindsOnlyItsOwnShard) {
  const std::string src = multi_unit_source();

  Options clean = Options::polaris();
  clean.jobs = 8;
  Artifacts clean_run = compile_artifacts(clean, src);

  Options faulted = clean;
  faulted.fault_inject = "doall:scalev";
  Artifacts par = compile_artifacts(faulted, src);

  Options faulted_seq = faulted;
  faulted_seq.jobs = 1;
  Artifacts seq = compile_artifacts(faulted_seq, src);

  ASSERT_EQ(par.failures.size(), 1u);
  EXPECT_EQ(par.failures[0].pass, "doall");
  EXPECT_EQ(par.failures[0].unit, "scalev");
  EXPECT_TRUE(par.failures[0].injected);
  EXPECT_TRUE(par.failures[0].recovered);

  // Sibling units were untouched by the rollback: the faulted compile
  // still parallelizes loops (just not scalev's), and its output differs
  // from the clean run only where scalev's directives would be.
  EXPECT_NE(par.annotated_source, clean_run.annotated_source);
  EXPECT_NE(par.annotated_source.find("csrd$ doall"), std::string::npos);

  expect_identical(seq, par, "multi-unit/doall:scalev");
  ASSERT_EQ(seq.failures.size(), 1u);
}

// With recovery off, concurrent workers may fault on several units; the
// merge must deterministically surface the lowest unit index — the same
// crash the sequential compile reports.
TEST(JobsFaultIsolation, NoRecoverCrashIsDeterministicUnderConcurrency) {
  const std::string src = multi_unit_source();
  Options opts = Options::polaris();
  opts.fault_inject = "doall";  // matches every unit
  opts.fault_recovery = false;

  opts.jobs = 1;
  Artifacts seq = compile_artifacts(opts, src);
  ASSERT_TRUE(seq.crash.has_value());

  opts.jobs = 8;
  for (int round = 0; round < 4; ++round) {
    Artifacts par = compile_artifacts(opts, src);
    ASSERT_TRUE(par.crash.has_value());
    EXPECT_EQ(par.crash->pass, seq.crash->pass);
    EXPECT_EQ(par.crash->unit, seq.crash->unit);
    EXPECT_EQ(par.crash->unit_source, seq.crash->unit_source);
  }
}

// A malformed unit in the middle of a multi-unit program must produce the
// same textually-first UserError — whole-file line numbers included — from
// a full Compiler::compile at every worker count, run after run.
TEST(ParallelParseDiagnostics, MalformedUnitIsDeterministicUnderJobs) {
  std::string src = multi_unit_source();
  const std::size_t pos = src.find("      subroutine redsum");
  ASSERT_NE(pos, std::string::npos);
  src.insert(pos, "      subroutine broken\n      x = 'oops\n      end\n");
  std::string expected;
  for (int round = 0; round < 4; ++round) {
    for (int jobs : {1, 8}) {
      Options opts = Options::polaris();
      opts.jobs = jobs;
      Compiler c(opts);
      try {
        c.compile(src, nullptr);
        FAIL() << "expected UserError at jobs=" << jobs;
      } catch (const UserError& e) {
        if (expected.empty()) {
          expected = e.what();
          EXPECT_NE(expected.find("unterminated"), std::string::npos)
              << expected;
        }
        EXPECT_EQ(expected, e.what())
            << "jobs=" << jobs << " round=" << round;
      }
    }
  }
}

// The -profile-dir batch: every artifact file it writes (report JSON,
// remarks JSONL, Chrome trace — three per suite code) must be
// byte-identical between a sequential batch and an 8-worker batch once
// wall-clock fields are scrubbed.  This covers the per-code artifact
// *files* end to end, where the in-process tests above cover the report
// structures.
TEST(ProfileDirDeterminism, EightWorkersMatchSequentialFileForFile) {
  namespace fs = std::filesystem;
  const fs::path base = fs::temp_directory_path() / "polaris_profdir_det";
  const fs::path seq_dir = base / "seq";
  const fs::path par_dir = base / "par";
  fs::remove_all(base);

  Options opts = Options::polaris();
  opts.jobs = 1;
  ASSERT_EQ(run_profile_suite(seq_dir.string(), opts), 0);
  opts.jobs = 8;
  ASSERT_EQ(run_profile_suite(par_dir.string(), opts), 0);

  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(seq_dir))
    names.push_back(entry.path().filename().string());
  std::sort(names.begin(), names.end());
  // Three artifact files per suite code.
  EXPECT_EQ(names.size(), 3 * benchmark_suite().size());

  auto slurp_scrubbed = [](const fs::path& p) {
    std::ifstream in(p);
    std::ostringstream buf;
    buf << in.rdbuf();
    return scrub_trace_times(scrub_ms(buf.str()));
  };
  for (const std::string& name : names) {
    ASSERT_TRUE(fs::exists(par_dir / name)) << name;
    EXPECT_EQ(slurp_scrubbed(seq_dir / name), slurp_scrubbed(par_dir / name))
        << name;
  }
  std::size_t par_count = 0;
  for (const auto& entry : fs::directory_iterator(par_dir)) {
    (void)entry;
    ++par_count;
  }
  EXPECT_EQ(par_count, names.size());
  fs::remove_all(base);
}

}  // namespace
}  // namespace polaris
