// Fault-isolated pass execution, end to end through the Compiler API.
//
// The headline guarantee under test: a pass that faults on every unit is
// rolled back so cleanly that the compile is *bit-identical* to a pipeline
// that never ran the pass at all — IR, symbol ids, interned atoms, and all.
// Plus the satellite behaviors: budget overruns roll back like faults,
// `-verify-each` stays clean across the whole suite in both compiler
// modes, and recovery-off compiles stash a crash-repro bundle.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "driver/pass_manager.h"
#include "suite/suite.h"
#include "support/assert.h"

namespace polaris {
namespace {

/// Comma-joins a pass-name list into a `-passes=` spec.
std::string join_spec(const std::vector<std::string>& names) {
  std::string spec;
  for (const auto& n : names) {
    if (!spec.empty()) spec += ",";
    spec += n;
  }
  return spec;
}

std::vector<std::string> standard_names() {
  return PassPipeline::standard().pass_names();
}

/// The spec the round-trip runs with `pass` present: the standard battery
/// for standard passes, or the standard battery with the extra pass
/// spliced in before `doall` for registry-only passes.
std::vector<std::string> spec_with(const std::string& pass) {
  std::vector<std::string> names = standard_names();
  if (std::find(names.begin(), names.end(), pass) == names.end()) {
    auto it = std::find(names.begin(), names.end(), "doall");
    names.insert(it, pass);
  }
  return names;
}

std::vector<std::string> without(std::vector<std::string> names,
                                 const std::string& pass) {
  names.erase(std::remove(names.begin(), names.end(), pass), names.end());
  return names;
}

/// Compiles `source` and returns the annotated output.
std::string compile_annotated(Options opts, const std::string& source,
                              CompileReport* report = nullptr) {
  CompileReport local;
  Compiler c(std::move(opts));
  c.compile(source, report ? report : &local);
  return (report ? *report : local).annotated_source;
}

/// The parts of a report a failed pass must leave exactly as the
/// pass-omitted compile does: loop verdicts and reason codes, statistic
/// deltas, analysis-cache accounting, and every diagnostic and remark
/// except the fault-isolation warning the failure itself adds.
std::string comparable_report(const CompileReport& rep) {
  std::ostringstream os;
  os << "analysis queries=" << rep.analysis.queries
     << " hits=" << rep.analysis.hits
     << " recomputes=" << rep.analysis.recomputes
     << " invalidations=" << rep.analysis.invalidations << "\n";
  for (const LoopReport& lr : rep.loops)
    os << "loop " << lr.unit << "/" << lr.loop << " parallel=" << lr.parallel
       << " speculative=" << lr.speculative << " code=" << lr.reason_code
       << " reason=" << lr.serial_reason << "\n";
  for (const StatisticValue& s : rep.stats)
    os << "stat " << s.component << "." << s.name << "=" << s.value << "\n";
  for (const Diagnostic& d : rep.diagnostics.all()) {
    if (d.pass == "fault-isolation") continue;
    os << "diag " << static_cast<int>(d.severity) << " " << d.pass << " "
       << d.context << " " << d.message << " [" << to_string(d.remark) << " "
       << d.reason;
    for (const RemarkArg& a : d.args) os << " " << a.key << "=" << a.value;
    os << "]\n";
  }
  return os.str();
}

// For every registered pass and every suite code: injecting a fault into
// the pass on every unit must produce output identical to the same
// pipeline with the pass omitted.  This is the rollback acceptance
// criterion — any state the failed pass leaked (IR, diagnostics, report
// counters, statistics, interned atoms, symbol ordering) shows up as a
// diff in the annotated source or the rest of the report.
TEST(FaultIsolation, InjectedFaultMatchesPassOmittedPipeline) {
  for (const std::string& pass : PassPipeline::registered_passes()) {
    const std::vector<std::string> with_names = spec_with(pass);
    const std::string skipped = join_spec(without(with_names, pass));
    for (const auto& bench : benchmark_suite()) {
      Options faulted = Options::polaris();
      faulted.pipeline_spec = join_spec(with_names);
      faulted.fault_inject = pass;
      CompileReport rep;
      const std::string out = compile_annotated(faulted, bench.source, &rep);

      ASSERT_FALSE(rep.failures.empty()) << pass << " on " << bench.name;
      for (const PassFailure& f : rep.failures) {
        EXPECT_EQ(f.pass, pass);
        EXPECT_EQ(f.kind, PassFailure::Kind::Assertion);
        EXPECT_TRUE(f.injected);
        EXPECT_TRUE(f.recovered);
      }

      Options clean = Options::polaris();
      clean.pipeline_spec = skipped;
      CompileReport clean_rep;
      const std::string ref = compile_annotated(clean, bench.source, &clean_rep);
      EXPECT_TRUE(clean_rep.failures.empty());
      EXPECT_EQ(out, ref) << "rollback of '" << pass
                          << "' leaked state on " << bench.name;
      EXPECT_EQ(comparable_report(rep), comparable_report(clean_rep))
          << "rollback of '" << pass << "' leaked report state on "
          << bench.name;
    }
  }
}

// -verify-each across the full 16-code suite in both compiler modes:
// every pass leaves structurally valid IR, so zero failures are recorded.
TEST(FaultIsolation, VerifyEachCleanAcrossSuiteAndModes) {
  for (CompilerMode mode : {CompilerMode::Polaris, CompilerMode::Baseline}) {
    for (const auto& bench : benchmark_suite()) {
      Options opts = mode == CompilerMode::Polaris ? Options::polaris()
                                                   : Options::baseline();
      opts.verify_each = true;
      CompileReport rep;
      compile_annotated(opts, bench.source, &rep);
      EXPECT_TRUE(rep.failures.empty())
          << bench.name << " mode="
          << (mode == CompilerMode::Polaris ? "polaris" : "baseline");
    }
  }
}

// With recovery off, the injected fault escapes as InternalError and the
// report carries a crash-repro bundle naming the pass and unit.
TEST(FaultIsolation, NoRecoveryStashesCrashBundle) {
  const auto& bench = suite_program("ocean");
  Options opts = Options::polaris();
  opts.fault_recovery = false;
  opts.fault_inject = "doall";
  Compiler c(opts);
  CompileReport rep;
  bool threw = false;
  try {
    c.compile(bench.source, &rep);
  } catch (const InternalError& e) {
    threw = true;
    EXPECT_TRUE(e.injected());
  }
  EXPECT_TRUE(threw);
  ASSERT_TRUE(rep.crash.has_value());
  EXPECT_EQ(rep.crash->pass, "doall");
  EXPECT_FALSE(rep.crash->unit.empty());
  EXPECT_FALSE(rep.crash->unit_source.empty());
  EXPECT_NE(rep.crash->passes_spec.find("doall"), std::string::npos);
}

// Rollback unwinds diagnostics emitted by the failed pass but adds the
// fault-isolation warning, so users can see what was skipped.
TEST(FaultIsolation, RollbackWarnsAndUnwindsPassDiagnostics) {
  const auto& bench = suite_program("trfd");
  Options opts = Options::polaris();
  opts.fault_inject = "induction";
  CompileReport rep;
  compile_annotated(opts, bench.source, &rep);
  ASSERT_FALSE(rep.failures.empty());
  bool warned = false;
  for (const auto& d : rep.diagnostics.all())
    if (d.pass == "fault-isolation") warned = true;
  EXPECT_TRUE(warned);
  // The rolled-back pass reports zero retained transformations.
  EXPECT_EQ(rep.induction.substituted, 0);
}

// Targeted injection: PASS:UNIT:N faults only the named unit; other units
// keep the transformation.
TEST(FaultIsolation, UnitScopedInjectionLeavesOtherUnitsTransformed) {
  const auto& bench = suite_program("trfd");
  Options all = Options::polaris();
  CompileReport ref;
  compile_annotated(all, bench.source, &ref);

  Options scoped = Options::polaris();
  scoped.fault_inject = "doall:nosuchunit";
  CompileReport rep;
  const std::string out = compile_annotated(scoped, bench.source, &rep);
  // No unit matches: nothing fires, output equals the clean compile.
  EXPECT_TRUE(rep.failures.empty());
  EXPECT_EQ(out, ref.annotated_source);
}

// Soak test (ROADMAP follow-up to the fault-isolation PR): sweep the
// injected site index N for one (pass, unit) scope until the scope runs
// out of real assertion sites and the injection falls through to the
// unit-boundary fault.  Two invariants across the whole sweep: every N
// rolls back to the identical compile output (which site fires must not
// matter — the rollback is all-or-nothing), and the sweep terminates by
// hitting the boundary path, proving N beyond the site count still faults
// deterministically instead of silently not firing.
TEST(FaultIsolation, SiteSweepExhaustsScopeThenFaultsAtUnitBoundary) {
  const auto& bench = suite_program("trfd");
  // normalize executes a few dozen assertion sites on trfd — large enough
  // to exercise real sites, small enough to sweep past exhaustively.
  const std::string pass = "normalize";

  // Resolve the unit name the injection scopes to from a clean compile.
  Options clean = Options::polaris();
  CompileReport clean_rep;
  compile_annotated(clean, bench.source, &clean_rep);
  ASSERT_FALSE(clean_rep.loops.empty());
  const std::string unit = clean_rep.loops.front().unit;

  std::string reference_out;
  bool hit_boundary = false;
  int sites_exercised = 0;
  constexpr int kMaxSweep = 200;
  for (int n = 1; n <= kMaxSweep && !hit_boundary; ++n) {
    Options opts = Options::polaris();
    opts.fault_inject = pass + ":" + unit + ":" + std::to_string(n);
    CompileReport rep;
    const std::string out = compile_annotated(opts, bench.source, &rep);

    ASSERT_EQ(rep.failures.size(), 1u) << "N=" << n;
    const PassFailure& f = rep.failures.front();
    EXPECT_EQ(f.pass, pass);
    EXPECT_EQ(f.unit, unit);
    EXPECT_EQ(f.kind, PassFailure::Kind::Assertion);
    EXPECT_TRUE(f.injected);
    EXPECT_TRUE(f.recovered);
    if (f.message.find("unit boundary") != std::string::npos)
      hit_boundary = true;
    else
      ++sites_exercised;

    if (n == 1)
      reference_out = out;
    else
      EXPECT_EQ(out, reference_out)
          << "rollback output depends on which site fired (N=" << n << ")";
  }
  EXPECT_TRUE(hit_boundary)
      << "scope has more than " << kMaxSweep << " assertion sites";
  // The sweep exercised every real site before falling off the end.
  EXPECT_GT(sites_exercised, 0);
}

}  // namespace
}  // namespace polaris
