// Compiler micro-benchmarks (google-benchmark): throughput of the
// individual Polaris analyses — parsing, canonical polynomial arithmetic,
// the range test, induction substitution, GSA queries, full compilation,
// and interpreter execution.  These characterize the infrastructure cost,
// complementing the paper-reproduction harnesses.
#include <benchmark/benchmark.h>

#include "dep/ddtest.h"
#include "driver/compiler.h"
#include "interp/interp.h"
#include "parser/parser.h"
#include "passes/induction.h"
#include "suite/suite.h"
#include "symbolic/compare.h"

namespace {

using namespace polaris;

void BM_ParseSuiteProgram(benchmark::State& state) {
  const BenchProgram& p =
      benchmark_suite()[static_cast<size_t>(state.range(0))];
  for (auto _ : state) {
    auto prog = parse_program(p.source);
    benchmark::DoNotOptimize(prog.get());
  }
  state.SetLabel(p.name);
}
BENCHMARK(BM_ParseSuiteProgram)->Arg(0)->Arg(9)->Arg(14);

void BM_PolynomialCanonicalization(benchmark::State& state) {
  SymbolTable symtab;
  ExprPtr e = parse_expression(
      "(i*(n**2 + n) + j**2 - j)/2 + k + 1 - ((i+1)*(n**2+n))/2", symtab);
  for (auto _ : state) {
    Polynomial p = Polynomial::from_expr(*e);
    benchmark::DoNotOptimize(&p);
  }
}
BENCHMARK(BM_PolynomialCanonicalization);

// --- symbolic kernel (hash-consed atoms + flat-term polynomials) -----------

void BM_AtomIntern(benchmark::State& state) {
  // Hash-consed interning fast path: every iteration re-interns the same
  // expressions, so this measures the hash + bucket-probe hit path.
  SymbolTable symtab;
  ExprPtr a = parse_expression("i*(n + 1)", symtab);
  ExprPtr b = parse_expression("j**2 - j", symtab);
  ExprPtr c = parse_expression("mod(k, 5)", symtab);
  AtomTable table;
  AtomTable::Scope scope(&table);
  for (auto _ : state) {
    AtomId x = table.intern(*a);
    AtomId y = table.intern(*b);
    AtomId z = table.intern(*c);
    benchmark::DoNotOptimize(x + y + z);
  }
}
BENCHMARK(BM_AtomIntern);

void BM_FromExpr(benchmark::State& state) {
  // The full recursive Expression->Polynomial conversion of the TRFD
  // subscript difference.
  SymbolTable symtab;
  ExprPtr e = parse_expression(
      "(i*(n**2 + n) + j**2 - j)/2 + k + 1 - ((i+1)*(n**2+n))/2", symtab);
  AtomTable table;
  AtomTable::Scope scope(&table);
  for (auto _ : state) {
    Polynomial p = Polynomial::from_expr(*e);
    benchmark::DoNotOptimize(&p);
  }
}
BENCHMARK(BM_FromExpr);

void BM_PolynomialMultiply(benchmark::State& state) {
  // Flat-term merge multiply on Figure 2-sized operands.
  SymbolTable symtab;
  ExprPtr ea = parse_expression("i*n + j*j - j + 2*k + 1", symtab);
  ExprPtr eb = parse_expression("n**2 + n - 2*j + 3", symtab);
  Polynomial a = Polynomial::from_expr(*ea);
  Polynomial b = Polynomial::from_expr(*eb);
  for (auto _ : state) {
    Polynomial p = a * b;
    benchmark::DoNotOptimize(&p);
  }
}
BENCHMARK(BM_PolynomialMultiply);

void BM_SumOverFaulhaber(benchmark::State& state) {
  // Faulhaber closed form of the cascaded Figure 1/2 induction sum.
  SymbolTable symtab;
  Symbol* j = symtab.declare("j", Type::integer(), SymbolKind::Variable);
  Symbol* k = symtab.declare("k", Type::integer(), SymbolKind::Variable);
  AtomId aj = AtomTable::current().intern_symbol(j);
  AtomId ak = AtomTable::current().intern_symbol(k);
  ExprPtr lo = parse_expression("0", symtab);
  ExprPtr hi_k = parse_expression("j - 1", symtab);
  ExprPtr hi_j = parse_expression("n - 1", symtab);
  Polynomial one = Polynomial::from_expr(*parse_expression("1", symtab));
  Polynomial plo = Polynomial::from_expr(*lo);
  Polynomial phik = Polynomial::from_expr(*hi_k);
  Polynomial phij = Polynomial::from_expr(*hi_j);
  for (auto _ : state) {
    Polynomial inner = one.sum_over(ak, plo, phik);
    Polynomial outer = inner.sum_over(aj, plo, phij);
    benchmark::DoNotOptimize(&outer);
  }
}
BENCHMARK(BM_SumOverFaulhaber);

void BM_RangeTestTrfdNest(benchmark::State& state) {
  auto prog = parse_program(
      "      program t\n"
      "      real a(100000)\n"
      "      do i = 0, m - 1\n"
      "        do j = 0, n - 1\n"
      "          do k = 0, j - 1\n"
      "            a(k + 1 + (i*(n**2 + n) + j**2 - j)/2) = 1.0\n"
      "          end do\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  DoStmt* loop = prog->main()->stmts().loops()[0];
  Options opts = Options::polaris();
  SymbolSet none;
  for (auto _ : state) {
    Diagnostics diags;
    AnalysisManager am;
    LoopDepStats s = test_loop_arrays(loop, opts, diags, none, "bm", am);
    benchmark::DoNotOptimize(&s);
  }
}
BENCHMARK(BM_RangeTestTrfdNest);

void BM_InductionSubstitution(benchmark::State& state) {
  const std::string src =
      "      program t\n"
      "      real a(10000)\n"
      "      integer k1, k2\n"
      "      k1 = 0\n"
      "      k2 = 0\n"
      "      do i = 1, n\n"
      "        k1 = k1 + 1\n"
      "        do j = 1, i\n"
      "          k2 = k2 + k1\n"
      "          a(k2) = 1.0\n"
      "        end do\n"
      "      end do\n"
      "      end\n";
  Options opts = Options::polaris();
  for (auto _ : state) {
    auto prog = parse_program(src);
    Diagnostics diags;
    AnalysisManager am;
    InductionResult r = substitute_inductions(*prog->main(), opts, diags, am);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_InductionSubstitution);

void BM_SymbolicCompare(benchmark::State& state) {
  SymbolTable symtab;
  Symbol* n = symtab.declare("n", Type::integer(), SymbolKind::Variable);
  ExprPtr lhs = parse_expression("(i*(n**2 + n) + n**2 - n)/2", symtab);
  ExprPtr rhs = parse_expression("((i+1)*(n**2 + n))/2 + 1", symtab);
  FactContext ctx;
  ExprPtr one = parse_expression("1", symtab);
  ctx.add_range(n, one.get(), nullptr);
  for (auto _ : state) {
    bool ok = prove_lt(*lhs, *rhs, ctx);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_SymbolicCompare);

void BM_FullCompile(benchmark::State& state) {
  const BenchProgram& p =
      benchmark_suite()[static_cast<size_t>(state.range(0))];
  for (auto _ : state) {
    Compiler compiler(CompilerMode::Polaris);
    auto prog = compiler.compile(p.source);
    benchmark::DoNotOptimize(prog.get());
  }
  state.SetLabel(p.name);
}
BENCHMARK(BM_FullCompile)->Arg(3)->Arg(14);

void BM_InterpreterThroughput(benchmark::State& state) {
  const BenchProgram& p = suite_program("swim");
  auto prog = parse_program(p.source);
  std::uint64_t stmts = 0;
  for (auto _ : state) {
    RunResult r = run_program(*prog, MachineConfig{});
    stmts += r.statements;
    benchmark::DoNotOptimize(&r);
  }
  state.counters["stmts/s"] = benchmark::Counter(
      static_cast<double>(stmts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughput);

}  // namespace

BENCHMARK_MAIN();
