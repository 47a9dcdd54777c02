// Figure 5 reproduction: the BDNA gather/compress kernel.  Privatizing A
// needs the monotonic-counter argument — IND(1:P) holds loop-K index
// values in [1, I-1], so all uses A(IND(L)) fall inside the definition
// A(1:I-1).
#include <cstdio>

#include "harness.h"
#include "parser/parser.h"
#include "passes/privatization.h"
#include "suite/suite.h"

int main() {
  using namespace polaris;
  bench::heading("Figure 5: BDNA gather/compress privatization");

  const BenchProgram& bdna = suite_program("bdna");
  auto prog = parse_program(bdna.source);
  // The kernel is the second top-level loop (after initialization).
  std::vector<DoStmt*> outer;
  for (DoStmt* d : prog->main()->stmts().loops())
    if (d->outer() == nullptr) outer.push_back(d);
  DoStmt* iloop = outer[1];

  Options opts = Options::polaris();
  Diagnostics diags;
  AnalysisManager am;
  PrivatizationResult r =
      analyze_privatization(*prog->main(), iloop, opts, diags, am);

  std::printf("privatization of the outer I loop:\n");
  std::printf("  private scalars:");
  for (Symbol* s : r.private_scalars) std::printf(" %s", s->name().c_str());
  std::printf("\n  private arrays :");
  for (Symbol* s : r.private_arrays) std::printf(" %s", s->name().c_str());
  std::printf("\n  (the A array requires the monotonic IND(1:P) range "
              "proof)\n\n");

  bench::Measurement pol = bench::measure(bdna.source, CompilerMode::Polaris, 8);
  bench::Measurement base =
      bench::measure(bdna.source, CompilerMode::Baseline, 8);
  std::printf("bdna mini-application, 8 processors:\n");
  std::printf("  Polaris  speedup %.2f\n", pol.speedup());
  std::printf("  Baseline speedup %.2f (no array privatization)\n\n",
              base.speedup());
  return 0;
}
