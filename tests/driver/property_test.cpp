// Property test: for randomly generated structured programs, the full
// Polaris pipeline (and the baseline pipeline) must preserve program
// output exactly.  The generator emits loops, conditionals, scalar
// temporaries, reductions, stencil and strided array accesses — all with
// statically safe subscripts — and every seed's program is executed three
// ways (reference, Polaris-transformed, baseline-transformed) and
// compared.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "driver/compiler.h"
#include "interp/interp.h"
#include "parser/parser.h"

namespace polaris {
namespace {

class ProgramGenerator {
 public:
  explicit ProgramGenerator(unsigned seed) : rng_(seed) {}

  std::string generate() {
    out_.str("");
    out_ << "      program rnd\n";
    out_ << "      parameter (n = 40)\n";
    out_ << "      real va(50), vb(50), vc(50)\n";
    out_ << "      real g(50, 10)\n";
    emit_init();
    int stmts = 3 + pick(4);
    for (int i = 0; i < stmts; ++i) emit_top_level();
    emit_checksum();
    out_ << "      end\n";
    return out_.str();
  }

 private:
  int pick(int n) { return static_cast<int>(rng_() % static_cast<unsigned>(n)); }
  std::string num(double v) {
    std::ostringstream os;
    os << v;
    std::string s = os.str();
    if (s.find('.') == std::string::npos) s += ".0";
    return s;
  }

  std::string indent() { return std::string(6 + 2 * depth_, ' '); }

  /// A loop index currently in scope, or "1".
  std::string index_or_one() {
    if (scopes_.empty()) return "1";
    return scopes_[static_cast<size_t>(pick(static_cast<int>(scopes_.size())))];
  }

  /// Safe 1-D subscript in [1, 50] given indices range over [1, n=40].
  std::string subscript() {
    switch (pick(4)) {
      case 0: return index_or_one();
      case 1: return index_or_one() + " + " + std::to_string(pick(10));
      case 2: return "mod(" + index_or_one() + "*" +
                     std::to_string(1 + pick(7)) + ", 50) + 1";
      default: return std::to_string(1 + pick(50));
    }
  }

  std::string array_read() {
    const char* arr[] = {"va", "vb", "vc"};
    return std::string(arr[pick(3)]) + "(" + subscript() + ")";
  }

  /// Random real-valued expression.
  std::string expr(int d = 0) {
    if (d >= 2 || pick(3) == 0) {
      switch (pick(4)) {
        case 0: return num(0.25 * (1 + pick(8)));
        case 1: return array_read();
        case 2: return index_or_one() + "*" + num(0.125 * (1 + pick(4)));
        default: return scalar();
      }
    }
    const char* ops[] = {" + ", " - ", "*"};
    // Drawn right operand first, then the operator, then the left operand:
    // the order a seed has always generated its programs in.
    std::string right = expr(d + 1);
    const char* op = ops[pick(3)];
    std::string out = "(";
    out += expr(d + 1);
    out += op;
    out += right;
    out += ')';
    return out;
  }

  std::string scalar() {
    const char* s[] = {"s1", "s2", "s3"};
    return s[pick(3)];
  }

  void emit_init() {
    out_ << "      do i0 = 1, 50\n";
    out_ << "        va(i0) = mod(i0*7, 13)*0.25\n";
    out_ << "        vb(i0) = mod(i0*3, 11)*0.5\n";
    out_ << "        vc(i0) = 0.0\n";
    out_ << "      end do\n";
    out_ << "      s1 = 1.0\n      s2 = 0.5\n      s3 = 0.0\n";
  }

  void emit_top_level() {
    emit_loop(/*allow_nest=*/true);
  }

  void emit_loop(bool allow_nest) {
    std::string idx = "i";
    idx += std::to_string(++index_counter_);
    out_ << indent() << "do " << idx << " = 1, n\n";
    scopes_.push_back(idx);
    ++depth_;
    int body = 1 + pick(3);
    for (int i = 0; i < body; ++i) emit_statement(allow_nest);
    --depth_;
    scopes_.pop_back();
    out_ << indent() << "end do\n";
  }

  void emit_statement(bool allow_nest) {
    switch (pick(6)) {
      case 0:  // array assignment
        out_ << indent() << array_read() << " = " << expr() << "\n";
        break;
      case 1:  // scalar temp def + use
        out_ << indent() << "t1 = " << expr() << "\n";
        out_ << indent() << array_read() << " = t1*0.5\n";
        break;
      case 2:  // reduction
        out_ << indent() << "s3 = s3 + " << expr() << "\n";
        break;
      case 3:  // conditional
        out_ << indent() << "if (" << expr() << " .gt. " << expr()
             << ") then\n";
        ++depth_;
        out_ << indent() << array_read() << " = " << expr() << "\n";
        --depth_;
        if (pick(2) == 0) {
          out_ << indent() << "else\n";
          ++depth_;
          out_ << indent() << "s2 = s2*0.875 + 0.125\n";
          --depth_;
        }
        out_ << indent() << "end if\n";
        break;
      case 4:  // stencil-like with a distinct source array
        out_ << indent() << "vc(" << index_or_one() << ") = va("
             << index_or_one() << ") + vb(" << index_or_one() << ")*0.5\n";
        break;
      default:
        if (allow_nest && depth_ < 3) {
          emit_loop(/*allow_nest=*/false);
        } else {
          out_ << indent() << scalar() << " = " << expr() << "\n";
        }
        break;
    }
  }

  void emit_checksum() {
    out_ << "      ck = 0.0\n";
    out_ << "      do i9 = 1, 50\n";
    out_ << "        ck = ck + va(i9) + vb(i9)*0.5 + vc(i9)*0.25\n";
    out_ << "      end do\n";
    out_ << "      print *, ck, s1, s2, s3\n";
  }

  std::mt19937 rng_;
  std::ostringstream out_;
  std::vector<std::string> scopes_;
  int depth_ = 0;
  int index_counter_ = 0;
};

class TransformationProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(TransformationProperty, OutputPreservedUnderBothPipelines) {
  ProgramGenerator gen(GetParam());
  std::string source = gen.generate();
  SCOPED_TRACE("seed " + std::to_string(GetParam()) + "\n" + source);

  auto ref = parse_program(source);
  RunResult ref_run = run_program(*ref, MachineConfig{});
  ASSERT_FALSE(ref_run.output.empty());

  for (CompilerMode mode : {CompilerMode::Polaris, CompilerMode::Baseline}) {
    Compiler compiler(mode);
    auto prog = compiler.compile(source);
    MachineConfig cfg;
    cfg.processors = 8;
    RunResult run = run_program(*prog, cfg);
    EXPECT_EQ(ref_run.output, run.output)
        << (mode == CompilerMode::Polaris ? "Polaris" : "baseline")
        << " transformation changed output";
  }
}

TEST_P(TransformationProperty, SpeculationPreservesOutput) {
  ProgramGenerator gen(GetParam() + 10007);
  std::string source = gen.generate();
  SCOPED_TRACE("seed " + std::to_string(GetParam()));

  auto ref = parse_program(source);
  RunResult ref_run = run_program(*ref, MachineConfig{});

  Options opts = Options::polaris();
  opts.runtime_pd_test = true;
  Compiler compiler(opts);
  auto prog = compiler.compile(source);
  MachineConfig cfg;
  cfg.processors = 8;
  RunResult run = run_program(*prog, cfg);
  EXPECT_EQ(ref_run.output, run.output);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformationProperty,
                         ::testing::Range(1u, 33u));

}  // namespace
}  // namespace polaris
