// Figure 4 reproduction: array privatization requiring global (GSA)
// information — the definition covers A(1:MP), the use reads A(1:M*P),
// and proving MP >= M*P needs backward substitution of MP = M*P.
#include <cstdio>

#include "harness.h"
#include "parser/parser.h"
#include "passes/privatization.h"

int main() {
  using namespace polaris;
  bench::heading("Figure 4: Array privatization with a GSA query (MP >= M*P)");

  const char* src =
      "      program fig4\n"
      "      real a(2000), b(2000), c(2000)\n"
      "      m = 25\n"
      "      p = 40\n"
      "      mp = m*p\n"
      "      do i = 1, 50\n"
      "        do j = 1, mp\n"
      "          a(j) = b(j) + i*0.5\n"
      "        end do\n"
      "        do k = 1, m*p\n"
      "          c(k) = c(k) + a(k)\n"
      "        end do\n"
      "      end do\n"
      "      print *, c(1), c(1000)\n"
      "      end\n";

  std::printf("%s\n", src);
  auto prog = parse_program(src);
  DoStmt* iloop = prog->main()->stmts().loops()[0];

  for (bool gsa : {true, false}) {
    Options opts = Options::polaris();
    opts.gsa_queries = gsa;
    Diagnostics diags;
    AnalysisManager am;
    PrivatizationResult r =
        analyze_privatization(*prog->main(), iloop, opts, diags, am);
    bool a_private = false;
    for (Symbol* s : r.private_arrays)
      if (s->name() == "a") a_private = true;
    std::printf("GSA queries %-3s : array A %s\n", gsa ? "on" : "off",
                a_private ? "PRIVATIZED (loop I parallel)"
                          : "not privatizable (loop I serial)");
  }

  bench::Measurement pol = bench::measure(src, CompilerMode::Polaris, 8);
  bench::Measurement base = bench::measure(src, CompilerMode::Baseline, 8);
  std::printf("\nspeedup on 8 processors: Polaris %.2f, baseline %.2f\n\n",
              pol.speedup(), base.speedup());
  return 0;
}
