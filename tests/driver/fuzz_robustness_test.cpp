// Whole-compiler fuzzing through the fault-injection hooks (the ROADMAP
// follow-up to the fault-isolation PR): mutated suite sources — truncated,
// spliced across programs, garbled — are driven through the *full*
// restructuring pipeline while deterministic fault injection arms
// randomized backend sites (the same hook POLARIS_FAULT_INJECT feeds in
// the CLI).  The contract: every outcome is clean — either a UserError
// (malformed input is the user's problem, CLI exit 1) or a compile that
// finishes with only recovered PassFailures (CLI exit 0).  An
// InternalError escaping with recovery on is a real bug and fails the
// test by escaping the harness.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "driver/pass_manager.h"
#include "suite/suite.h"

namespace polaris {
namespace {

/// Cuts the source mid-statement, leaving dangling DO/IF nests and half
/// tokens.
std::string truncate(const std::string& src, std::mt19937& rng) {
  if (src.empty()) return src;
  return src.substr(0, 1 + rng() % src.size());
}

/// Splices the head of one suite program onto the tail of another at
/// random cut points — structurally plausible Fortran with mismatched
/// units, declarations, and nesting.
std::string splice(const std::string& a, const std::string& b,
                   std::mt19937& rng) {
  const std::string head = a.substr(0, rng() % (a.size() + 1));
  const std::string tail = b.substr(rng() % (b.size() + 1));
  return head + tail;
}

/// Random single-character overwrites/erases/inserts.
std::string garble(std::string src, std::mt19937& rng) {
  const char alphabet[] = "abcxyz0189()+-*/=.,$ \n";
  const int mutations = 1 + static_cast<int>(rng() % 12);
  for (int m = 0; m < mutations && !src.empty(); ++m) {
    const std::size_t pos = rng() % src.size();
    switch (rng() % 3) {
      case 0:
        src[pos] = alphabet[rng() % (sizeof(alphabet) - 1)];
        break;
      case 1:
        src.erase(pos, 1 + rng() % 3);
        break;
      default:
        src.insert(pos, 1, alphabet[rng() % (sizeof(alphabet) - 1)]);
        break;
    }
  }
  return src.empty() ? "x = 1\n" : src;
}

/// One fuzz iteration: compile `src` with fault injection armed at a
/// randomized (pass, site) and require a clean outcome.  UserError is the
/// accepted parse-reject path; a completed compile must have recovered
/// every failure it recorded.  InternalError is deliberately not caught.
void compile_expecting_clean_outcome(const std::string& src,
                                     std::mt19937& rng,
                                     const std::string& what) {
  const std::vector<std::string> passes = PassPipeline::registered_passes();
  Options opts = Options::polaris();
  // Arm a randomized backend site: a random pass, sometimes pinned to its
  // Nth assertion site so deep sites fire too, sometimes every pass.
  switch (rng() % 4) {
    case 0:
      opts.fault_inject = std::string("*");
      break;
    case 1:
      opts.fault_inject = passes[rng() % passes.size()];
      break;
    default:
      opts.fault_inject = passes[rng() % passes.size()] + "::" +
                          std::to_string(1 + rng() % 40);
      break;
  }
  // Mix hostile resource ceilings into a third of the runs: blow-ups and
  // injected faults interleave at the same pass boundaries.
  if (rng() % 3 == 0) {
    opts.max_poly_terms = 2 + static_cast<int>(rng() % 8);
    opts.compile_budget_ms = 0.001 * static_cast<double>(1 + rng() % 50);
  }

  Compiler c(opts);
  CompileReport rep;
  try {
    c.compile(src, &rep);
    for (const PassFailure& f : rep.failures)
      EXPECT_TRUE(f.recovered) << what << " pass=" << f.pass;
    EXPECT_FALSE(rep.annotated_source.empty()) << what;
  } catch (const UserError&) {
    // the clean reject path for malformed input
  }
}

class CompilerFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(CompilerFuzz, MutatedSourcesUnderInjectionNeverLeak) {
  std::mt19937 rng(GetParam() * 2654435761u + 1);
  const auto& suite = benchmark_suite();
  const std::string& a = suite[rng() % suite.size()].source;
  const std::string& b = suite[rng() % suite.size()].source;

  std::string src;
  switch (rng() % 3) {
    case 0:
      src = truncate(a, rng);
      break;
    case 1:
      src = splice(a, b, rng);
      break;
    default:
      src = garble(a, rng);
      break;
  }
  compile_expecting_clean_outcome(src, rng, "seed " +
                                               std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompilerFuzz, ::testing::Range(1u, 49u));

// The deterministic sweeps: every suite code, truncated at fixed
// fractions and garbled at a fixed stride, compiled with injection armed
// on a scope derived from the code's name — reproducible without a seed.
TEST(CompilerRobustness, TruncatedSuiteCodesUnderInjectionStayClean) {
  for (const auto& bench : benchmark_suite()) {
    std::mt19937 rng(static_cast<unsigned>(bench.name.size()) * 7919u);
    for (double frac : {0.25, 0.5, 0.75, 0.95}) {
      const std::string cut =
          bench.source.substr(0, static_cast<std::size_t>(
                                     bench.source.size() * frac));
      compile_expecting_clean_outcome(cut, rng, bench.name + " truncated");
    }
  }
}

TEST(CompilerRobustness, GarbledSuiteCodesUnderInjectionStayClean) {
  for (const auto& bench : benchmark_suite()) {
    std::mt19937 rng(static_cast<unsigned>(bench.name[0]) * 104729u);
    std::string garbled = bench.source;
    const char junk[] = ")(=$*";
    for (std::size_t i = 13; i < garbled.size(); i += 41)
      garbled[i] = junk[i % (sizeof(junk) - 1)];
    compile_expecting_clean_outcome(garbled, rng, bench.name + " garbled");
  }
}

}  // namespace
}  // namespace polaris
