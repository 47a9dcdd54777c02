// The `polaris` command-line driver: source-to-source restructuring of
// PF77 files, like the original compiler's front door.  Every flag is one
// row of kFlags below; `polaris` with no arguments prints the table.
//
// Exit status: 0 ok (a recovered pass fault still exits 0 with a warning
// on stderr), 1 user error (bad flag value, bad pipeline spec, unreadable
// file, output that differs from the sequential reference), 2 usage
// (unknown flag, missing value, no input), 3 internal error.
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "driver/compiler.h"
#include "driver/profile_dir.h"
#include "driver/report_json.h"
#include "interp/interp.h"
#include "parser/parser.h"
#include "parser/printer.h"

namespace {

using polaris::CompilerMode;
using polaris::Options;
using polaris::UserError;

/// Everything the command line decides: the compiler's Options plus the
/// driver's own modes and outputs.
struct Settings {
  CompilerMode mode = CompilerMode::Polaris;
  Options opts = Options::polaris();
  bool report = false, diag = false, omp = false, run = false, seq = false;
  bool timing = false, stats = false;
  int processors = 8;
  std::string remarks_path, report_json_path, profile_dir;
};

/// How a flag takes its value: none (`-report`), text after `=`
/// (`-trace=FILE`), a validated integer or millisecond count after `=`,
/// or `-p`'s integer in the next argument.
enum class Kind { Presence, String, Integer, Millis, Separate };

/// A validated value: the raw text, plus `n` for Integer and Separate
/// rows or `ms` for Millis rows.
struct Value {
  std::string text;
  int n = 0;
  double ms = 0.0;
};

struct Flag {
  const char* spelling;  ///< as printed: "-report", "-jobs=N", "-p N"
  const char* env;       ///< POLARIS_* fallback when the flag is absent
  Kind kind;
  const char* help;
  void (*set)(Settings&, const Value&);
};

/// The CPUs this process may run on: its affinity mask (which taskset
/// and cpusets narrow), else the hardware concurrency; 0 when unknown.
unsigned usable_cpus() {
#ifdef __linux__
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof mask, &mask) == 0)
    return static_cast<unsigned>(CPU_COUNT(&mask));
#endif
  return std::thread::hardware_concurrency();
}

/// The usable-CPU cap on `-jobs`: extra workers only time-share CPUs, and
/// output is independent of the worker count anyway.  Audible, not
/// silent, so CI logs show why -jobs=32 did not scale.
int cap_jobs(int n) {
  const unsigned cpus = usable_cpus();
  if (cpus == 0 || n <= static_cast<int>(cpus)) return n;
  std::fprintf(stderr,
               "polaris: note: -jobs=%d capped to the %u CPU%s this "
               "process may run on\n",
               n, cpus, cpus == 1 ? "" : "s");
  return static_cast<int>(cpus);
}

// Rows are applied in table order, not argv order.  -baseline comes first
// because the compiler mode picks the Options defaults later rows edit.
const Flag kFlags[] = {
    {"-baseline", nullptr, Kind::Presence,
     "run the 1996-compiler battery instead of Polaris's",
     [](Settings& s, const Value&) {
       s.mode = CompilerMode::Baseline;
       s.opts = Options::baseline();
     }},
    {"-report", nullptr, Kind::Presence, "per-loop analysis report",
     [](Settings& s, const Value&) { s.report = true; }},
    {"-diag", nullptr, Kind::Presence, "full pass diagnostics",
     [](Settings& s, const Value&) { s.diag = true; }},
    {"-omp", nullptr, Kind::Presence,
     "emit OpenMP directives instead of csrd$",
     [](Settings& s, const Value&) { s.omp = true; }},
    {"-run", nullptr, Kind::Presence,
     "execute on the simulated machine and print the speedup",
     [](Settings& s, const Value&) { s.run = true; }},
    {"-p N", nullptr, Kind::Separate,
     "processors of the simulated machine for -run (default 8)",
     [](Settings& s, const Value& v) { s.processors = v.n; }},
    {"-seq", nullptr, Kind::Presence,
     "execute sequentially (the reference run)",
     [](Settings& s, const Value&) { s.seq = true; }},
    {"-passes=SPEC", nullptr, Kind::String,
     "custom pass pipeline, e.g. constprop,normalize,doall",
     [](Settings& s, const Value& v) {
       polaris::PassPipeline::parse(v.text);  // reject bad specs up front
       s.opts.pipeline_spec = v.text;
     }},
    {"-timing", nullptr, Kind::Presence,
     "per-pass wall time, IR deltas and analysis-cache hit rates",
     [](Settings& s, const Value&) { s.timing = true; }},
    {"-jobs=N", "POLARIS_JOBS", Kind::Integer,
     "restructure units on N threads (capped at the usable CPUs); "
     "output is identical at any N",
     [](Settings& s, const Value& v) { s.opts.jobs = cap_jobs(v.n); }},
    {"-trace=FILE", "POLARIS_TRACE", Kind::String,
     "write a Chrome trace of the compile",
     [](Settings& s, const Value& v) { s.opts.trace_path = v.text; }},
    {"-stats", "POLARIS_STATS", Kind::Presence,
     "print every statistic counter the compile moved",
     [](Settings& s, const Value&) { s.stats = true; }},
    {"-remarks=FILE", "POLARIS_REMARKS", Kind::String,
     "stream optimization remarks as JSONL (- for stdout)",
     [](Settings& s, const Value& v) { s.remarks_path = v.text; }},
    {"-report-json=FILE", "POLARIS_REPORT_JSON", Kind::String,
     "write the compile report as JSON (- for stdout)",
     [](Settings& s, const Value& v) { s.report_json_path = v.text; }},
    {"-profile-dir=DIR", nullptr, Kind::String,
     "compile every suite code into per-code artifacts in DIR (no file.f)",
     [](Settings& s, const Value& v) { s.profile_dir = v.text; }},
    {"-verify-each", nullptr, Kind::Presence,
     "run the IR verifier after every pass",
     [](Settings& s, const Value&) { s.opts.verify_each = true; }},
    {"-fault-inject=SPEC", "POLARIS_FAULT_INJECT", Kind::String,
     "SPEC = P[:U[:N]]: fire the Nth assertion of pass P on unit U",
     [](Settings& s, const Value& v) { s.opts.fault_inject = v.text; }},
    {"-no-recover", nullptr, Kind::Presence,
     "abort on a pass fault (exit 3), writing polaris-crash-<unit>.f",
     [](Settings& s, const Value&) { s.opts.fault_recovery = false; }},
    {"-compile-budget-ms=N", "POLARIS_COMPILE_BUDGET_MS", Kind::Millis,
     "whole-compile budget as deterministic fuel; exhaustion degrades",
     [](Settings& s, const Value& v) { s.opts.compile_budget_ms = v.ms; }},
    {"-max-poly-terms=N", "POLARIS_MAX_POLY_TERMS", Kind::Integer,
     "ceiling on any one polynomial's term count",
     [](Settings& s, const Value& v) { s.opts.max_poly_terms = v.n; }},
    {"-max-atoms-per-unit=N", "POLARIS_MAX_ATOMS_PER_UNIT", Kind::Integer,
     "ceiling on the per-unit atom table",
     [](Settings& s, const Value& v) { s.opts.max_atoms_per_unit = v.n; }},
    {"-no-degrade", nullptr, Kind::Presence,
     "drop a pass at its first resource trip, skipping cheaper retries",
     [](Settings& s, const Value&) { s.opts.degradation_ladder = false; }},
};

int usage() {
  std::fprintf(stderr,
               "usage: polaris [flag...] file.f\n"
               "       polaris [flag...] -profile-dir=DIR\n");
  for (const Flag& f : kFlags)
    std::fprintf(stderr, "  %-30s %-26s %s\n", f.spelling,
                 f.env != nullptr ? f.env : "", f.help);
  std::fprintf(stderr,
               "A POLARIS_* variable supplies its flag when the flag is "
               "absent; POLARIS_STATS takes 1/true/on/yes or "
               "0/false/off/no.\n");
  return 2;
}

/// The spelling without its metavar: "-jobs" for "-jobs=N".
std::string flag_name(const Flag& f) {
  const std::string spelling = f.spelling;
  return spelling.substr(0, spelling.find_first_of("= "));
}

/// The row `arg` spells, with any `=` value stored in `value`; null for an
/// unknown flag (including a `=` flag written without its `=`).
const Flag* match_flag(const std::string& arg, std::string& value) {
  for (const Flag& f : kFlags) {
    const std::string name = flag_name(f);
    if (f.kind == Kind::Presence || f.kind == Kind::Separate) {
      if (arg == name) return &f;
    } else if (arg.compare(0, name.size() + 1, name + "=") == 0) {
      value = arg.substr(name.size() + 1);
      return &f;
    }
  }
  return nullptr;
}

[[noreturn]] void invalid(const Flag& f, const std::string& value,
                          const char* env, const char* expected) {
  throw UserError("invalid " + flag_name(f) + " value '" + value + "'" +
                  (env != nullptr ? std::string(" from ") + env : "") +
                  " (expected " + expected + ")");
}

/// The one integer validator: a decimal integer in [1, 2^31 - 1], fully
/// consumed — "4junk" is an error, not 4, and nothing wraps.
int parse_int(const Flag& f, const std::string& value, const char* env) {
  long long n = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, n);
  if (ec != std::errc() || ptr != end || n < 1 || n > INT_MAX)
    invalid(f, value, env, "an integer in [1, 2147483647]");
  return static_cast<int>(n);
}

/// The millisecond validator: a decimal number in (0, 2^31 - 1],
/// fractions allowed.
double parse_budget_ms(const Flag& f, const std::string& value,
                       const char* env) {
  double ms = 0.0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, ms);
  if (ec != std::errc() || ptr != end || !(ms > 0.0) || ms > INT_MAX)
    invalid(f, value, env, "a number of milliseconds in (0, 2147483647]");
  return ms;
}

/// A presence flag's env var: the usual on/off vocabulary.
bool parse_switch(const Flag& f, const std::string& value, const char* env) {
  if (value == "1" || value == "true" || value == "on" || value == "yes")
    return true;
  if (value == "0" || value == "false" || value == "off" || value == "no")
    return false;
  invalid(f, value, env, "1/true/on/yes or 0/false/off/no");
}

/// Validates `text` by the row's kind and hands it to the row's setter.
/// `env` names the variable the text came from; null for argv.
void apply(const Flag& f, const std::string& text, const char* env,
           Settings& s) {
  Value v;
  v.text = text;
  switch (f.kind) {
    case Kind::Presence:
      if (env != nullptr && !parse_switch(f, text, env)) return;
      break;
    case Kind::String:
      break;
    case Kind::Integer:
    case Kind::Separate:
      v.n = parse_int(f, text, env);
      break;
    case Kind::Millis:
      v.ms = parse_budget_ms(f, text, env);
      break;
  }
  f.set(s, v);
}

/// Writes the crash repro bundle (unit source + pipeline spec) next to the
/// current directory; best-effort — a failed write only warns.
void write_crash_bundle(const polaris::CompileReport::CrashInfo& ci) {
  const std::string path = "polaris-crash-" + ci.unit + ".f";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "polaris: could not write repro bundle %s\n",
                 path.c_str());
    return;
  }
  out << "* Polaris crash repro: pass '" << ci.pass << "' faulted on unit '"
      << ci.unit << "'\n"
      << "* reproduce with: polaris -no-recover -passes=" << ci.passes_spec
      << " " << path << "\n"
      << ci.unit_source;
  std::fprintf(stderr, "polaris: repro bundle written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace polaris;

  // Argv: every argument is a kFlags spelling or the input file; the last
  // occurrence of a flag wins.
  constexpr std::size_t kRows = std::size(kFlags);
  std::vector<std::optional<std::string>> given(kRows);
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      path = arg;
      continue;
    }
    std::string value;
    const Flag* f = match_flag(arg, value);
    if (f == nullptr) return usage();
    if (f->kind == Kind::Separate) {
      if (i + 1 == argc) return usage();
      value = argv[++i];
    }
    given[static_cast<std::size_t>(f - kFlags)] = value;
  }

  // Validation and env fallback: a flag on the command line wins over its
  // POLARIS_* variable; an empty variable counts as unset.
  Settings s;
  try {
    for (std::size_t k = 0; k < kRows; ++k) {
      const Flag& f = kFlags[k];
      if (given[k]) {
        apply(f, *given[k], nullptr, s);
      } else if (f.env != nullptr) {
        const char* env = std::getenv(f.env);
        if (env != nullptr && *env != '\0') apply(f, env, f.env, s);
      }
    }
  } catch (const UserError& e) {
    std::fprintf(stderr, "polaris: %s\n", e.what());
    return 1;
  }
  if (path.empty() && s.profile_dir.empty()) return usage();

  std::string source;
  if (!path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "polaris: cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    source = buf.str();
  }

  CompileReport report;
  try {
    if (s.seq) {
      auto prog = parse_program(source);
      RunResult r = run_program(*prog, MachineConfig{.processors = 1});
      for (const std::string& line : r.output)
        std::printf("%s\n", line.c_str());
      std::fprintf(stderr, "[polaris] sequential time: %llu units\n",
                   static_cast<unsigned long long>(r.clock.serial));
      return r.stopped ? 1 : 0;
    }

    // Suite profiling replaces the single-file compile: the full option
    // set applies to every code, then the process exits.
    if (!s.profile_dir.empty())
      return run_profile_suite(s.profile_dir, s.opts);

    auto prog = Compiler(s.opts).compile(source, &report);

    if (!s.remarks_path.empty()) {
      if (s.remarks_path == "-") {
        report.diagnostics.print_remarks(std::cout);
      } else {
        std::ofstream out(s.remarks_path);
        if (!out) {
          std::fprintf(stderr, "polaris: cannot write %s\n",
                       s.remarks_path.c_str());
          return 1;
        }
        report.diagnostics.print_remarks(out);
      }
    }
    if (!s.report_json_path.empty()) {
      const std::string doc = compile_report_json(report);
      if (s.report_json_path == "-") {
        std::printf("%s\n", doc.c_str());
      } else {
        std::ofstream out(s.report_json_path);
        if (!out) {
          std::fprintf(stderr, "polaris: cannot write %s\n",
                       s.report_json_path.c_str());
          return 1;
        }
        out << doc << "\n";
      }
    }

    for (const PassFailure& f : report.failures)
      std::fprintf(stderr,
                   "polaris: warning: pass '%s' %s failure on unit '%s'%s; "
                   "rolled back and continued\n",
                   f.pass.c_str(), to_string(f.kind), f.unit.c_str(),
                   f.injected ? " (injected)" : "");

    if (s.timing) {
      std::printf("%-12s %5s %10s %6s %7s %7s %9s %7s\n", "pass", "runs",
                  "ms", "diags", "stmt+-", "expr+-", "aqueries", "ahits");
      double total_ms = 0.0;
      for (const PassTiming& t : report.pass_timings) {
        std::printf("%-12s %5d %10.3f %6d %+7ld %+7ld %9llu %7llu\n",
                    t.pass.c_str(), t.runs, t.ms, t.diags, t.stmt_delta,
                    t.expr_delta,
                    static_cast<unsigned long long>(t.analysis_queries),
                    static_cast<unsigned long long>(t.analysis_hits));
        total_ms += t.ms;
      }
      std::printf("total: %.3f ms; analysis cache: %llu queries, "
                  "%llu hits, %llu recomputes, %llu invalidations\n",
                  total_ms,
                  static_cast<unsigned long long>(report.analysis.queries),
                  static_cast<unsigned long long>(report.analysis.hits),
                  static_cast<unsigned long long>(report.analysis.recomputes),
                  static_cast<unsigned long long>(
                      report.analysis.invalidations));
    }

    if (s.stats) {
      std::printf("=== statistics (per-compile deltas) ===\n");
      for (const StatisticValue& sv : report.stats)
        std::printf("%8llu %-14s %-28s %s\n",
                    static_cast<unsigned long long>(sv.value),
                    sv.component.c_str(), sv.name.c_str(), sv.desc.c_str());
    }

    if (s.report) {
      std::printf("%d loops, %d parallel, %d speculative; %d calls "
                  "inlined; %d inductions substituted\n",
                  report.doall.loops, report.doall.parallel,
                  report.doall.speculative, report.inlining.expanded,
                  report.induction.substituted);
      for (const LoopReport& lr : report.loops) {
        std::printf("  %s/%-8s depth %d : %s%s", lr.unit.c_str(),
                    lr.loop.c_str(), lr.depth,
                    lr.parallel
                        ? "PARALLEL"
                        : (lr.speculative ? "SPECULATIVE" : "serial"),
                    lr.serial_reason.empty()
                        ? ""
                        : ("  (" + lr.serial_reason + ")").c_str());
        if (lr.dep_pairs > 0)
          std::printf("  [%d pairs: %d gcd, %d banerjee/siv, %d rangetest]",
                      lr.dep_pairs, lr.dep_by_gcd, lr.dep_by_banerjee,
                      lr.dep_by_rangetest);
        std::printf("\n");
      }
    }
    if (s.diag) {
      for (const Diagnostic& d : report.diagnostics.all())
        std::printf("[%s] %s: %s\n", d.pass.c_str(), d.context.c_str(),
                    d.message.c_str());
    }
    if (s.run) {
      auto ref = parse_program(source);
      RunResult ref_run = run_program(*ref, MachineConfig{.processors = 1});
      ExecutionConfig cfg = backend_config(s.mode, *prog, s.processors);
      RunResult run = run_program(*prog, cfg.machine);
      for (const std::string& line : run.output)
        std::printf("%s\n", line.c_str());
      if (ref_run.output != run.output) {
        std::fprintf(stderr,
                     "[polaris] ERROR: output differs from sequential "
                     "reference\n");
        return 1;
      }
      // A run that charged nothing has speedup 1, as in RunClock::speedup.
      const double speedup =
          run.clock.parallel == 0
              ? 1.0
              : static_cast<double>(ref_run.clock.serial) /
                    (static_cast<double>(run.clock.parallel) *
                     cfg.codegen_factor);
      std::fprintf(
          stderr, "[polaris] %d processors: %llu units (speedup %.2f)\n",
          s.processors, static_cast<unsigned long long>(run.clock.parallel),
          speedup);
    }
    // When a machine-readable stream goes to stdout, keep it the only
    // thing on stdout so consumers can pipe it straight into a parser.
    const bool structured_stdout =
        s.remarks_path == "-" || s.report_json_path == "-";
    if (!s.report && !s.diag && !s.run && !s.timing && !s.stats &&
        !structured_stdout) {
      if (s.omp)
        std::printf("%s",
                    to_source(*prog, DirectiveStyle::OpenMP).c_str());
      else
        std::printf("%s", report.annotated_source.c_str());
    }
    return 0;
  } catch (const UserError& e) {
    std::fprintf(stderr, "polaris: %s\n", e.what());
    return 1;
  } catch (const InternalError& e) {
    if (report.crash) {
      std::fprintf(stderr,
                   "polaris: internal error in pass '%s' on unit '%s': %s\n",
                   report.crash->pass.c_str(), report.crash->unit.c_str(),
                   e.what());
      write_crash_bundle(*report.crash);
    } else {
      std::fprintf(stderr, "polaris: internal error: %s\n", e.what());
    }
    return 3;
  }
}
