// Resource-governed compilation, end to end through the Compiler API.
//
// The headline guarantees under test: a compile under hostile ceilings
// (`-max-poly-terms=8 -compile-budget-ms=50` and far worse) never throws,
// records its degradation steps as a closed-vocabulary DegradationEvent
// sequence, produces output that *executes identically* to the
// unconstrained compile (the degraded program is less optimized, never
// less correct), and degrades at byte-identical points at any `-jobs=N`.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "driver/report_json.h"
#include "interp/interp.h"
#include "parser/parser.h"
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

/// Renumbers every `do#<N>` loop name by order of first appearance (ids
/// come from a process-wide counter; see determinism_test.cpp).
std::string normalize_loop_ids(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  std::map<std::string, int> seen;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text.compare(i, 3, "do#") == 0) {
      std::size_t j = i + 3;
      while (j < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[j])))
        ++j;
      const std::string id = text.substr(i + 3, j - (i + 3));
      auto [it, _] = seen.emplace(id, static_cast<int>(seen.size()) + 1);
      out += "do#";
      out += std::to_string(it->second);
      i = j;
    } else {
      out += text[i++];
    }
  }
  return out;
}

const std::set<std::string> kActions = {"retry-reduced", "retry-floor",
                                        "drop-pass", "conservative-bailout"};
const std::set<std::string> kTriggers = {"compile-fuel", "poly-terms",
                                         "atom-ceiling"};

void expect_closed_vocabulary(const std::vector<DegradationEvent>& events,
                              const std::string& label) {
  for (const DegradationEvent& e : events) {
    EXPECT_TRUE(kActions.count(e.action))
        << label << ": open action '" << e.action << "'";
    EXPECT_TRUE(kTriggers.count(e.trigger))
        << label << ": open trigger '" << e.trigger << "'";
    EXPECT_FALSE(e.pass.empty()) << label;
    EXPECT_GE(e.count, 1u) << label;
    if (e.action == "conservative-bailout")
      EXPECT_FALSE(e.site.empty()) << label;
    else
      EXPECT_TRUE(e.site.empty()) << label << ": " << e.action;
  }
}

/// A nest whose induction substitution builds multi-term polynomials —
/// small ceilings reliably trip inside the pass (not just inside query
/// boundaries), engaging the full ladder.
std::string deep_nest_source() {
  return "      program deep\n"
         "      integer k, i, j\n"
         "      real a(5050), s\n"
         "      k = 0\n"
         "      do i = 1, 100\n"
         "        do j = 1, i\n"
         "          k = k + 1\n"
         "          a(k) = i*0.5 + j\n"
         "        end do\n"
         "      end do\n"
         "      s = 0.0\n"
         "      do i = 1, 5050\n"
         "        s = s + a(i)\n"
         "      end do\n"
         "      print *, s\n"
         "      end\n";
}

/// Multi-unit program (mirrors determinism_test.cpp) so governed shard
/// fuel shares genuinely fan out over workers.
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

struct GovernedRun {
  CompileReport report;
  std::string annotated_source;
  std::string report_json;  ///< scrubbed + loop-id-normalized
};

GovernedRun governed_compile(Options opts, const std::string& source) {
  GovernedRun r;
  Compiler c(std::move(opts));
  c.compile(source, &r.report);  // must not throw: degradation, not failure
  r.annotated_source = r.report.annotated_source;
  r.report_json =
      normalize_loop_ids(scrub_ms(compile_report_json(r.report)));
  return r;
}

// The acceptance ceiling from the issue — `-max-poly-terms=8
// -compile-budget-ms=50` — over the full 16-code suite: every compile
// finishes cleanly (no throw = CLI exit 0), every recorded failure is a
// recovered resource drop, and every degradation event uses the closed
// vocabulary.
TEST(GovernedCompile, HostileCeilingsAcrossSuiteStayClean) {
  for (const auto& bench : benchmark_suite()) {
    Options opts = Options::polaris();
    opts.max_poly_terms = 8;
    opts.compile_budget_ms = 50.0;
    opts.max_atoms_per_unit = 64;
    GovernedRun run = governed_compile(opts, bench.source);
    EXPECT_FALSE(run.annotated_source.empty()) << bench.name;
    expect_closed_vocabulary(run.report.degradations, bench.name);
    for (const PassFailure& f : run.report.failures) {
      EXPECT_TRUE(f.recovered) << bench.name;
      EXPECT_EQ(f.kind, PassFailure::Kind::Resource)
          << bench.name << ": " << to_string(f.kind);
    }
  }
}

// Interpreter differential: for each suite code, the program compiled
// under hostile ceilings must execute with *identical output* to both the
// unconstrained compile and the sequential reference.  This is the
// correctness half of "degrade, never break".
TEST(GovernedCompile, DegradedOutputExecutesIdenticallyToUnconstrained) {
  for (const char* name : {"trfd", "arc2d", "tfft2", "mdg"}) {
    const std::string& src = suite_program(name).source;

    auto ref = parse_program(src);
    RunResult ref_run = run_program(*ref, MachineConfig{});

    Options free_opts = Options::polaris();
    Compiler free_c(free_opts);
    auto free_prog = free_c.compile(src);
    RunResult free_run = run_program(*free_prog, MachineConfig{});

    Options gov_opts = Options::polaris();
    gov_opts.max_poly_terms = 6;
    gov_opts.compile_budget_ms = 0.01;
    gov_opts.max_atoms_per_unit = 48;
    Compiler gov_c(gov_opts);
    CompileReport rep;
    auto gov_prog = gov_c.compile(src, &rep);
    RunResult gov_run = run_program(*gov_prog, MachineConfig{});

    EXPECT_EQ(gov_run.output, ref_run.output) << name;
    EXPECT_EQ(gov_run.output, free_run.output) << name;
  }
}

// Each ceiling has a deterministic synthetic tripwire: the deep nest
// trips poly-terms, atom-ceiling, and compile-fuel individually, and each
// trip is visible as a degradation event with exactly that trigger.
TEST(GovernedCompile, EachCeilingTripsItsOwnTrigger) {
  struct Case {
    const char* trigger;
    void (*apply)(Options&);
  };
  const Case cases[] = {
      {"poly-terms", [](Options& o) { o.max_poly_terms = 2; }},
      {"atom-ceiling", [](Options& o) { o.max_atoms_per_unit = 3; }},
      {"compile-fuel", [](Options& o) { o.compile_budget_ms = 0.001; }},
  };
  for (const Case& c : cases) {
    Options opts = Options::polaris();
    c.apply(opts);
    GovernedRun run = governed_compile(opts, deep_nest_source());
    expect_closed_vocabulary(run.report.degradations, c.trigger);
    bool saw_trigger = false;
    for (const DegradationEvent& e : run.report.degradations)
      if (e.trigger == c.trigger) saw_trigger = true;
    EXPECT_TRUE(saw_trigger) << c.trigger << " never tripped";
  }
}

// The full ladder on one (pass, unit): a poly-term ceiling the induction
// substitution cannot fit under at any rung walks retry-reduced →
// retry-floor → drop-pass, records exactly one recovered Resource
// failure, and the report JSON carries the same sequence.
TEST(GovernedCompile, LadderWalksReducedFloorDrop) {
  Options opts = Options::polaris();
  opts.max_poly_terms = 2;
  GovernedRun run = governed_compile(opts, deep_nest_source());

  std::vector<std::string> induction_actions;
  for (const DegradationEvent& e : run.report.degradations)
    if (e.pass == "induction" && e.action != "conservative-bailout")
      induction_actions.push_back(e.action);
  EXPECT_EQ(induction_actions,
            (std::vector<std::string>{"retry-reduced", "retry-floor",
                                      "drop-pass"}));

  ASSERT_EQ(run.report.failures.size(), 1u);
  EXPECT_EQ(run.report.failures[0].pass, "induction");
  EXPECT_EQ(run.report.failures[0].kind, PassFailure::Kind::Resource);
  EXPECT_TRUE(run.report.failures[0].recovered);
  EXPECT_FALSE(run.report.failures[0].injected);

  // One timing row still counts one run for the laddered pass (ladder
  // retries are not extra runs), preserving failures == dropped runs.
  for (const PassTiming& t : run.report.pass_timings) {
    if (t.pass == "induction") {
      EXPECT_EQ(t.runs, 1);
    }
  }

  // The events made it into report JSON verbatim.
  EXPECT_NE(run.report_json.find("\"action\":\"drop-pass\""),
            std::string::npos);

  // `-no-degrade`: the same ceiling drops the pass immediately — same
  // single failure, no retry events at all.
  Options no_ladder = opts;
  no_ladder.degradation_ladder = false;
  GovernedRun direct = governed_compile(no_ladder, deep_nest_source());
  ASSERT_EQ(direct.report.failures.size(), 1u);
  EXPECT_EQ(direct.report.failures[0].kind, PassFailure::Kind::Resource);
  for (const DegradationEvent& e : direct.report.degradations)
    EXPECT_TRUE(e.action == "drop-pass" ||
                e.action == "conservative-bailout")
        << e.action;
}

// Degradation determinism: the governed multi-unit compile — fuel shares
// split across six subroutine shards — produces byte-identical report
// JSON (degradation sequence included) and annotated source at -jobs=1
// and -jobs=8, across several rounds.
TEST(GovernedCompile, DegradationPointsAreJobsCountInvariant) {
  const std::string src = multi_unit_source();
  Options base = Options::polaris();
  base.compile_budget_ms = 0.005;
  base.max_poly_terms = 4;

  Options seq = base;
  seq.jobs = 1;
  GovernedRun ref = governed_compile(seq, src);
  EXPECT_FALSE(ref.report.degradations.empty());

  Options par = base;
  par.jobs = 8;
  for (int round = 0; round < 4; ++round) {
    GovernedRun run = governed_compile(par, src);
    EXPECT_EQ(run.report_json, ref.report_json) << "round " << round;
    EXPECT_EQ(run.annotated_source, ref.annotated_source)
        << "round " << round;
    ASSERT_EQ(run.report.degradations.size(),
              ref.report.degradations.size());
    for (std::size_t i = 0; i < ref.report.degradations.size(); ++i) {
      const DegradationEvent& a = ref.report.degradations[i];
      const DegradationEvent& b = run.report.degradations[i];
      EXPECT_EQ(a.pass, b.pass) << i;
      EXPECT_EQ(a.unit, b.unit) << i;
      EXPECT_EQ(a.trigger, b.trigger) << i;
      EXPECT_EQ(a.action, b.action) << i;
      EXPECT_EQ(a.site, b.site) << i;
      EXPECT_EQ(a.rung, b.rung) << i;
      EXPECT_EQ(a.count, b.count) << i;
      EXPECT_EQ(a.detail, b.detail) << i;
    }
  }
}

// Governed suite compiles are jobs-invariant too (single-unit codes, but
// the shard fuel-share path still runs).
TEST(GovernedCompile, SuiteDegradationJobsInvariant) {
  for (const char* name : {"trfd", "hydro2d"}) {
    const std::string& src = suite_program(name).source;
    Options base = Options::polaris();
    base.compile_budget_ms = 0.02;
    base.max_poly_terms = 8;
    Options seq = base;
    seq.jobs = 1;
    Options par = base;
    par.jobs = 8;
    GovernedRun a = governed_compile(seq, src);
    GovernedRun b = governed_compile(par, src);
    EXPECT_EQ(a.report_json, b.report_json) << name;
    EXPECT_EQ(a.annotated_source, b.annotated_source) << name;
  }
}

// An ungoverned compile records nothing: the governor stays inactive and
// the degradations array is empty (also pins the report-JSON default).
TEST(GovernedCompile, UngovernedCompileRecordsNoEvents) {
  Options opts = Options::polaris();
  GovernedRun run = governed_compile(opts, deep_nest_source());
  EXPECT_TRUE(run.report.degradations.empty());
  EXPECT_TRUE(run.report.failures.empty());
  EXPECT_NE(run.report_json.find("\"degradations\":[]"), std::string::npos);
}

// Conservative bail-outs surface as aggregated events plus a
// `resource-bailout` remark (one per pass/unit/site/trigger run), with
// the governor's closed reason code.
TEST(GovernedCompile, BailoutsAggregateAndEmitRemarks) {
  Options opts = Options::polaris();
  opts.max_atoms_per_unit = 3;
  GovernedRun run = governed_compile(opts, deep_nest_source());
  std::size_t bailouts = 0;
  for (const DegradationEvent& e : run.report.degradations)
    if (e.action == "conservative-bailout") {
      ++bailouts;
      EXPECT_FALSE(e.site.empty());
    }
  ASSERT_GT(bailouts, 0u);
  std::size_t remarks = 0;
  for (const Diagnostic* d : run.report.diagnostics.remarks())
    if (d->reason == "resource-bailout") ++remarks;
  EXPECT_EQ(remarks, bailouts);
}

// Fuel is the deterministic counter of a compile's symbolic work (atom
// interns, normalized terms, conversion nodes, range-test masks).  Pinned
// on the combined suite under a budget that never trips, at one and four
// jobs, so a change in that work shows here; a change meant to move it
// updates the value and says why.
TEST(GovernedCompile, CombinedSuiteFuelIsPinned) {
  constexpr std::uint64_t kCombinedSuiteFuel = 15619;
  for (int jobs : {1, 4}) {
    Options opts = Options::polaris();
    opts.jobs = jobs;
    opts.compile_budget_ms = 1e5;  // 5e9 ticks
    CompileReport report;
    Compiler(opts).compile(combined_suite_source(), &report);
    EXPECT_TRUE(report.degradations.empty()) << "jobs=" << jobs;
    EXPECT_EQ(report.resource.fuel_spent, kCombinedSuiteFuel)
        << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace polaris
