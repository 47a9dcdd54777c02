#include "workloads.h"

#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "driver/compiler.h"
#include "driver/pass_manager.h"
#include "inputs.h"
#include "interp/interp.h"
#include "ir/verifier.h"
#include "parser/parser.h"
#include "parser/printer.h"
#include "parser/splitter.h"
#include "probe.h"
#include "suite/suite.h"
#include "support/context.h"

namespace perfbench {

namespace {

using polaris::CompileReport;
using polaris::Compiler;
using polaris::CompilerMode;
using polaris::MachineConfig;
using polaris::Options;
using polaris::Program;
using polaris::RunResult;
using Span = SpanRecorder::Span;

/// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupRounds = 3;

enum class Kind { Setup, Untraced, Traced, Check };

/// One set-up round, timed op or post-run check: raw timings and counts
/// by name, and the probe run just before it.
struct OpRecord {
  Kind kind = Kind::Untraced;
  std::size_t probe = 0;
  std::map<std::string, double> ms;
  std::map<std::string, double> counts;
};

/// Probe, op, probe, op, ..., probe.  An op's timings are normalized by
/// the median of the four probes around it (two before, two after), so
/// a shift in machine speed mid-run moves the probe with the ops.  Time
/// spent in jobs=2 compiles (keys containing "j2") is scaled by the
/// probe of both CPUs, everything else by the probe of the harness's CPU.
class Timeline {
 public:
  explicit Timeline(Probe& probe) : probe_(probe) {
    probes_.push_back(probe_.run());
  }
  OpRecord& begin(Kind kind) {
    ops_.push_back({kind, probes_.size() - 1, {}, {}});
    return ops_.back();
  }
  void end() { probes_.push_back(probe_.run()); }

  double scale(const OpRecord& op, bool pair) const {
    std::size_t lo = op.probe > 0 ? op.probe - 1 : 0;
    std::size_t hi = std::min(op.probe + 3, probes_.size());
    std::vector<double> around;
    for (std::size_t i = lo; i < hi; ++i)
      around.push_back(pair ? probes_[i].pair_ms() : probes_[i].main_ms);
    return Probe::kReferenceMs / median(around);
  }

  /// Timing `key` of every op whose kind passes `want`.
  std::vector<double> times(const std::function<bool(Kind)>& want,
                            const std::string& key, bool normalized) const {
    std::vector<double> out;
    for (const OpRecord& op : ops_) {
      auto it = op.ms.find(key);
      if (!want(op.kind) || it == op.ms.end()) continue;
      out.push_back(normalized ? normalize(op, key, it->second) : it->second);
    }
    return out;
  }
  std::vector<double> counts(const std::function<bool(Kind)>& want,
                             const std::string& key) const {
    std::vector<double> out;
    for (const OpRecord& op : ops_) {
      auto it = op.counts.find(key);
      if (want(op.kind) && it != op.counts.end()) out.push_back(it->second);
    }
    return out;
  }
  double probe_median() const {
    std::vector<double> main;
    for (const ProbeTimes& p : probes_) main.push_back(p.main_ms);
    return median(main);
  }

 private:
  double normalize(const OpRecord& op, const std::string& key,
                   double ms) const {
    if (key.find("j2") != std::string::npos) return ms * scale(op, true);
    auto j2 = op.ms.find("j2");
    if (key != "op" || j2 == op.ms.end()) return ms * scale(op, false);
    // A compile-suite op: its jobs=2 compile on both CPUs, the rest here.
    return (ms - j2->second) * scale(op, false) +
           j2->second * scale(op, true);
  }

  Probe& probe_;
  std::vector<ProbeTimes> probes_;
  std::deque<OpRecord> ops_;  ///< deque: begin()'s reference stays valid
};

double sum(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}
double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : sum(xs) / static_cast<double>(xs.size());
}
double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Lets the harness thread, and the jobs=2 worker it spawns, use both
/// CPUs while it lives.
class BothCpus {
 public:
  explicit BothCpus(const CpuPair& cpus) : cpus_(cpus) {
    pin_thread(cpus_, true);
  }
  ~BothCpus() { pin_thread(cpus_, false); }
  BothCpus(const BothCpus&) = delete;
  BothCpus& operator=(const BothCpus&) = delete;

 private:
  CpuPair cpus_;
};

std::uint64_t stat(const CompileReport& rep, const char* component,
                   const char* name) {
  for (const polaris::StatisticValue& v : rep.stats)
    if (v.component == component && v.name == name) return v.value;
  return 0;
}

int parallel_loop_count(const CompileReport& rep) {
  int n = 0;
  for (const polaris::LoopReport& loop : rep.loops)
    n += loop.parallel || loop.speculative;
  return n;
}

/// Per-layer metrics of the traced run, in the order BENCHMARK.json lists
/// them.  Timings ("ms") are medians over traced ops, counts are means
/// per traced op; ratios and rates are filled in from sums.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kLayerMetrics[] = {
    {"parser.split_ms", "ms"},
    {"parser.parse_ms", "ms"},
    {"parser.parse_j2_ms", "ms"},
    {"parser.print_ms", "ms"},
    {"passes.inline_ms", "ms"},
    {"passes.constprop_ms", "ms"},
    {"passes.normalize_ms", "ms"},
    {"passes.induction_ms", "ms"},
    {"passes.forwardsub_ms", "ms"},
    {"passes.doall_ms", "ms"},
    {"passes.strength_ms", "ms"},
    {"passes.doall_j2_sum_ms", "ms"},
    {"driver.pass_overhead_ms", "ms"},
    {"driver.compile_ms", "ms"},
    {"ir.verify_ms", "ms"},
    {"ir.stmts", "count"},
    {"ir.exprs", "count"},
    {"dep.ddtest_pairs", "count"},
    {"dep.rangetest_queries", "count"},
    {"dep.rangetest_proven_ratio", "ratio"},
    {"dep.rangetest_permutations", "count"},
    {"symbolic.canonical_roundtrips", "count"},
    {"analysis.queries", "count"},
    {"analysis.hit_ratio", "ratio"},
    {"analysis.gsa_value_queries", "count"},
    {"support.pool_threads_spawned", "count"},
    {"interp.ref_run_ms", "ms"},
    {"interp.par_run_ms", "ms"},
    {"interp.spec_run_ms", "ms"},
    {"interp.statements", "count"},
    {"interp.stmts_per_s", "1/s"},
    {"machine.parallel_instances", "count"},
    {"machine.sim_parallel_cycles", "cycles"},
    {"runtime.attempts", "count"},
    {"runtime.failures", "count"},
    {"runtime.pass_ratio", "ratio"},
    {"runtime.pd_test_cost", "cycles"},
    {"runtime.wasted_share", "ratio"},
    {"harness.probe_ms", "ms"},
    {"harness.trace_overhead", "x"},
};

/// Records a finished run_program into the interp/machine/runtime
/// counters of `rec`; `key` names its timing ("interp.ref_run_ms", ...).
void record_run(OpRecord& rec, const char* key, double ms,
                const RunResult& run) {
  rec.ms[key] = ms;
  rec.ms["interp.all_runs_ms"] += ms;
  rec.counts["interp.statements"] += static_cast<double>(run.statements);
  if (run.speculative_attempts > 0) {
    rec.counts["runtime.attempts"] += run.speculative_attempts;
    rec.counts["runtime.failures"] += run.speculative_failures;
    rec.counts["runtime.pd_test_cost"] +=
        static_cast<double>(run.pd_test_cost);
    rec.counts["runtime.wasted"] +=
        static_cast<double>(run.speculative_wasted);
    rec.counts["runtime.parallel_cycles"] +=
        static_cast<double>(run.clock.parallel);
  }
}

/// What one workload does.  Set-up is repeated kSetupRounds times and
/// must leave the same state each time.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual bool setup(std::string* error) = 0;
  /// Runs op `index`; false when one of its checks failed.
  virtual bool op(long index, OpRecord& rec, SpanRecorder* spans) = 0;
  /// Ops that must run as one block (a whole suite pass).
  virtual long block() const { return 1; }
  /// Whether ops run threads on the second CPU (jobs=2 compiles); only
  /// then does the probe measure that CPU too.
  virtual bool uses_two_cpus() const { return false; }
  /// Once-per-run check after the timed ops; false when it failed.
  virtual bool has_check() const { return false; }
  virtual bool check(OpRecord&, SpanRecorder*) { return true; }

  // Deterministic results of the timed ops.
  virtual double parallel_loops() const = 0;
  double sim_speedup() const { return geomean(values_of(sim_speedups_)); }
  double spec_speedup() const { return geomean(values_of(spec_speedups_)); }
  /// Timing keys reported as compile_j1_ms / compile_j2_ms.
  virtual const char* j1_key() const { return "compile"; }
  virtual const char* j2_key() const { return "compile"; }

 protected:
  /// Records the simulated p=8 speedup of a Polaris-mode run of `code`
  /// (and, if it took the speculative path, as a speculative one).  The
  /// model is deterministic: false when `code` ran before with another
  /// speedup.  Keyed by code, so the geomeans cover each code once and
  /// repeat bit for bit whatever the op count and order.
  bool note_run(const std::string& code, double speedup,
                const RunResult& run) {
    auto [it, fresh] = sim_speedups_.emplace(code, speedup);
    if (run.speculative_attempts > 0) spec_speedups_.emplace(code, speedup);
    return fresh || it->second == speedup;
  }
  void reset_results() {
    sim_speedups_.clear();
    spec_speedups_.clear();
  }

 private:
  static std::vector<double> values_of(
      const std::map<std::string, double>& by_code) {
    std::vector<double> out;
    for (const auto& [code, speedup] : by_code) out.push_back(speedup);
    return out;
  }

  std::map<std::string, double> sim_speedups_;
  std::map<std::string, double> spec_speedups_;
};

// ---------------------------------------------------------------------
// compile-suite: the 16 minis as subroutines of one driver program,
// compiled at jobs=1 and jobs=2 per op.

class CompileSuite : public Workload {
 public:
  explicit CompileSuite(const Config& cfg) : cfg_(cfg) {}

  bool setup(std::string* error) override {
    program_ = make_suite_program(cfg_.seed);
    expected_.clear();
    if (!load_expected(cfg_.data_dir + "/expected/suite_p1.txt",
                       &expected_)) {
      *error = "cannot read expected outputs under " + cfg_.data_dir;
      return false;
    }
    OpRecord scratch;
    for (long i = 0; i < 2; ++i) op(i, scratch, nullptr);  // warm-up
    parallel_loops_ = -1;
    return true;
  }

  bool op(long index, OpRecord& rec, SpanRecorder* spans) override {
    Span whole(spans, "op", index);
    bool ok = true;
    std::string text[2];
    // Alternate which worker count goes first.  A traced run interleaves
    // traced and untraced ops one by one, so alternate within each kind.
    const long nth = cfg_.trace ? index / 2 : index;
    for (int k = 0; k < 2; ++k) {
      int jobs = (nth + k) % 2 == 0 ? 1 : 2;
      std::optional<BothCpus> both;
      if (jobs == 2) both.emplace(cfg_.cpus);
      ok &= spans != nullptr ? compile_traced(jobs, index, rec, spans,
                                              &text[jobs - 1])
                             : compile_plain(jobs, rec, &text[jobs - 1]);
    }
    return ok && text[0] == text[1];
  }

  bool has_check() const override { return true; }
  bool uses_two_cpus() const override { return true; }

  /// Runs the inlined program on the 8-processor model and sequentially;
  /// both must print the called minis' expected lines, in call order.
  bool check(OpRecord& rec, SpanRecorder* spans) override {
    Span whole(spans, "check", -1);
    Compiler compiler(Options::polaris());
    std::unique_ptr<Program> compiled = compiler.compile(program_.source);
    std::unique_ptr<Program> original =
        polaris::parse_program(program_.source);
    MachineConfig one;
    one.processors = 1;
    Span seq_span(spans, "run_program p=1", -1);
    RunResult seq = polaris::run_program(*original, one);
    record_run(rec, "interp.ref_run_ms", seq_span.close(), seq);
    Span par_span(spans, "run_program p=8", -1);
    RunResult par = polaris::run_program(*compiled, MachineConfig{});
    record_run(rec, "interp.par_run_ms", par_span.close(), par);
    rec.counts["machine.parallel_instances"] = par.parallel_instances;
    rec.counts["machine.sim_parallel_cycles"] =
        static_cast<double>(par.clock.parallel);

    std::vector<std::string> want;
    for (const std::string& name : program_.calls) {
      const auto& lines = expected_[name];
      want.insert(want.end(), lines.begin(), lines.end());
    }
    return seq.output == par.output && seq.output == want;
  }

  double parallel_loops() const override { return parallel_loops_; }
  const char* j1_key() const override { return "j1"; }
  const char* j2_key() const override { return "j2"; }

 private:
  /// The parallel-loop count must be the same on every compile.
  bool note_loops(const CompileReport& rep) {
    int n = parallel_loop_count(rep);
    if (parallel_loops_ < 0) parallel_loops_ = n;
    return n == parallel_loops_ && rep.failures.empty();
  }

  bool compile_plain(int jobs, OpRecord& rec, std::string* text) {
    Options opts = Options::polaris();
    opts.jobs = jobs;
    Compiler compiler(opts);
    CompileReport rep;
    Span span(nullptr, "", 0);
    std::unique_ptr<Program> program = compiler.compile(program_.source, &rep);
    rec.ms[jobs == 1 ? "j1" : "j2"] = span.close();
    *text = std::move(rep.annotated_source);
    return note_loops(rep);
  }

  /// The same compile split at its public calls: split_units, then
  /// parse_program + Compiler::transform (what Compiler::compile does),
  /// then verify_program and to_source rerun to price them.
  bool compile_traced(int jobs, long index, OpRecord& rec,
                      SpanRecorder* spans, std::string* text) {
    const bool j1 = jobs == 1;
    Span whole(spans, j1 ? "compile j1" : "compile j2", index);
    Options opts = Options::polaris();
    opts.jobs = jobs;
    Compiler compiler(opts);
    polaris::CompileContext cc;
    CompileReport rep;

    Span split(spans, "split_units", index);
    std::size_t slices = polaris::split_units(program_.source).size();
    double split_ms = split.close();
    std::unique_ptr<Program> program;
    Span parse(spans, "parse_program", index);
    {
      polaris::CompileContext::Scope scope(&cc);
      program = polaris::parse_program(program_.source, &cc, jobs);
    }
    double parse_ms = parse.close();
    Span transform(spans, "Compiler::transform", index);
    compiler.transform(*program, &rep, cc);
    double transform_ms = transform.close();
    bool ok = note_loops(rep) && slices == program->units().size();

    if (!j1) {
      rec.ms["parser.parse_j2_ms"] = parse_ms;
      for (const polaris::PassTiming& t : rep.pass_timings)
        if (t.pass == "doall") rec.ms["passes.doall_j2_sum_ms"] = t.ms;
      rec.counts["support.pool_threads_spawned"] = cc.pool().threads_spawned();
    } else {
      Span verify(spans, "verify_program", index);
      ok &= polaris::verify_program(*program).empty();
      double verify_ms = verify.close();
      Span print(spans, "to_source", index);
      ok &= polaris::to_source(*program) == rep.annotated_source;
      double print_ms = print.close();

      double pass_ms = 0.0;
      for (const polaris::PassTiming& t : rep.pass_timings) {
        rec.ms["passes." + t.pass + "_ms"] = t.ms;
        pass_ms += t.ms;
      }
      rec.ms["parser.split_ms"] = split_ms;
      rec.ms["parser.parse_ms"] = parse_ms;
      rec.ms["parser.print_ms"] = print_ms;
      rec.ms["ir.verify_ms"] = verify_ms;
      rec.ms["driver.compile_ms"] = parse_ms + transform_ms;
      rec.ms["driver.pass_overhead_ms"] =
          transform_ms - pass_ms - verify_ms - print_ms;

      polaris::IrSize size;
      for (const auto& unit : program->units()) {
        polaris::IrSize s = polaris::unit_ir_size(*unit);
        size.stmts += s.stmts;
        size.exprs += s.exprs;
      }
      rec.counts["ir.stmts"] = static_cast<double>(size.stmts);
      rec.counts["ir.exprs"] = static_cast<double>(size.exprs);
      rec.counts["dep.ddtest_pairs"] = stat(rep, "ddtest", "pairs_tested");
      rec.counts["dep.rangetest_queries"] =
          stat(rep, "rangetest", "pairs_queried");
      rec.counts["dep.rangetest_proven"] =
          stat(rep, "rangetest", "pairs_proven");
      rec.counts["dep.rangetest_permutations"] =
          stat(rep, "rangetest", "permutations_tried");
      rec.counts["symbolic.canonical_roundtrips"] =
          stat(rep, "simplify", "canonical_roundtrips");
      rec.counts["analysis.queries"] =
          static_cast<double>(rep.analysis.queries);
      rec.counts["analysis.hits"] = static_cast<double>(rep.analysis.hits);
      rec.counts["analysis.gsa_value_queries"] =
          stat(rep, "gsa", "value_queries");
    }
    rec.ms[j1 ? "j1" : "j2"] = whole.close();
    *text = std::move(rep.annotated_source);
    return ok;
  }

  Config cfg_;
  SuiteProgram program_;
  ExpectedOutputs expected_;
  int parallel_loops_ = -1;
};

// ---------------------------------------------------------------------
// suite-exec: Figure 7 one bar at a time, in whole seeded passes over
// the 32 (code, mode) pairs.

class SuiteExec : public Workload {
 public:
  explicit SuiteExec(const Config& cfg) : cfg_(cfg), rng_(cfg.seed) {}

  long block() const override { return kPairs; }

  bool setup(std::string* error) override {
    expected_.clear();
    if (!load_expected(cfg_.data_dir + "/expected/suite_p1.txt",
                       &expected_) ||
        expected_.size() != polaris::benchmark_suite().size()) {
      *error = "cannot read expected outputs under " + cfg_.data_dir;
      return false;
    }
    if (cfg_.corrupt_expected) expected_.begin()->second.front() += " 1";
    rng_ = Rng(cfg_.seed);
    // Warm-up: one cheap code in both modes, the same for every seed.
    OpRecord scratch;
    std::size_t trfd = index_of("trfd");
    run_pair(trfd, CompilerMode::Polaris, 0, scratch, nullptr);
    run_pair(trfd, CompilerMode::Baseline, 0, scratch, nullptr);
    reset_results();
    loops_ = 0.0;
    passes_ = 0;
    return true;
  }

  bool op(long index, OpRecord& rec, SpanRecorder* spans) override {
    if (index % kPairs == 0) {
      pass_.clear();
      for (std::size_t c = 0; c < polaris::benchmark_suite().size(); ++c) {
        pass_.push_back({c, CompilerMode::Polaris});
        pass_.push_back({c, CompilerMode::Baseline});
      }
      rng_.shuffle(pass_);
      ++passes_;
    }
    const Pair& pair = pass_[static_cast<std::size_t>(index % kPairs)];
    return run_pair(pair.code, pair.mode, index, rec, spans);
  }

  double parallel_loops() const override {
    return passes_ == 0 ? 0.0 : loops_ / passes_;
  }

 private:
  static constexpr long kPairs = 32;
  struct Pair {
    std::size_t code;
    CompilerMode mode;
  };

  static std::size_t index_of(const std::string& name) {
    const auto& suite = polaris::benchmark_suite();
    for (std::size_t i = 0; i < suite.size(); ++i)
      if (suite[i].name == name) return i;
    return 0;
  }

  bool run_pair(std::size_t code, CompilerMode mode, long index,
                OpRecord& rec, SpanRecorder* spans) {
    const polaris::BenchProgram& bp = polaris::benchmark_suite()[code];
    Span whole(spans, "op", index);

    Span compile(spans, "Compiler::compile", index);
    Compiler compiler(mode);
    CompileReport rep;
    std::unique_ptr<Program> compiled = compiler.compile(bp.source, &rep);
    rec.ms["compile"] = compile.close();
    rec.ms["driver.compile_ms"] = rec.ms["compile"];

    Span ref(spans, "run_program p=1", index);
    std::unique_ptr<Program> original = polaris::parse_program(bp.source);
    MachineConfig one;
    one.processors = 1;
    RunResult seq = polaris::run_program(*original, one);
    record_run(rec, "interp.ref_run_ms", ref.close(), seq);

    Span par(spans, "run_program p=8", index);
    polaris::ExecutionConfig exec = polaris::backend_config(mode, *compiled, 8);
    RunResult run = polaris::run_program(*compiled, exec.machine);
    record_run(rec, "interp.par_run_ms", par.close(), run);
    rec.counts["machine.parallel_instances"] = run.parallel_instances;
    rec.counts["machine.sim_parallel_cycles"] =
        static_cast<double>(run.clock.parallel);

    loops_ += parallel_loop_count(rep);
    bool repeat = true;
    if (mode == CompilerMode::Polaris) {
      double par_time =
          static_cast<double>(run.clock.parallel) * exec.codegen_factor;
      repeat = note_run(bp.name,
                        static_cast<double>(seq.clock.serial) / par_time, run);
    }
    auto want = expected_.find(bp.name);
    return repeat && run.output == seq.output && want != expected_.end() &&
           seq.output == want->second;
  }

  Config cfg_;
  Rng rng_;
  ExpectedOutputs expected_;
  std::vector<Pair> pass_;
  double loops_ = 0.0;
  long passes_ = 0;
};

// ---------------------------------------------------------------------
// speculative-pdtest: Figure 6's TRACK kernel compiled with the PD test
// and run on the 8-processor model.

class SpeculativePdtest : public Workload {
 public:
  explicit SpeculativePdtest(const Config& cfg) : cfg_(cfg) {}

  bool setup(std::string* error) override {
    source_ = make_track_source(cfg_.seed);
    MachineConfig one;
    one.processors = 1;
    std::unique_ptr<Program> original = polaris::parse_program(source_);
    RunResult seq = polaris::run_program(*original, one);
    reference_ = seq.output;
    serial_ = static_cast<double>(seq.clock.serial);
    if (reference_.empty() || serial_ == 0.0) {
      *error = "TRACK reference run printed nothing";
      return false;
    }
    OpRecord scratch;
    for (long i = 0; i < 2; ++i) op(i, scratch, nullptr);  // warm-up
    reset_results();
    loops_ = -1;
    return true;
  }

  bool op(long index, OpRecord& rec, SpanRecorder* spans) override {
    Span whole(spans, "op", index);
    Span compile(spans, "Compiler::compile", index);
    Options opts = Options::polaris();
    opts.runtime_pd_test = true;
    Compiler compiler(opts);
    CompileReport rep;
    std::unique_ptr<Program> compiled = compiler.compile(source_, &rep);
    rec.ms["compile"] = compile.close();
    rec.ms["driver.compile_ms"] = rec.ms["compile"];

    Span run_span(spans, "run_program p=8", index);
    RunResult run = polaris::run_program(*compiled, MachineConfig{});
    record_run(rec, "interp.spec_run_ms", run_span.close(), run);
    rec.counts["machine.parallel_instances"] = run.parallel_instances;
    rec.counts["machine.sim_parallel_cycles"] =
        static_cast<double>(run.clock.parallel);

    int loops = parallel_loop_count(rep);
    if (loops_ < 0) loops_ = loops;
    bool repeat =
        note_run("track", serial_ / static_cast<double>(run.clock.parallel),
                 run);
    // The two colliding strides must fail the PD test and re-execute.
    return repeat && run.output == reference_ && loops == loops_ &&
           run.speculative_failures == 2;
  }

  double parallel_loops() const override { return loops_; }

 private:
  Config cfg_;
  std::string source_;
  std::vector<std::string> reference_;
  double serial_ = 0.0;
  int loops_ = -1;
};

std::unique_ptr<Workload> make_workload(const Config& cfg) {
  if (cfg.workload == "compile-suite")
    return std::make_unique<CompileSuite>(cfg);
  if (cfg.workload == "suite-exec") return std::make_unique<SuiteExec>(cfg);
  if (cfg.workload == "speculative-pdtest")
    return std::make_unique<SpeculativePdtest>(cfg);
  return nullptr;
}

void add_percentiles(Metrics* m, const std::string& name,
                     const std::vector<double>& xs) {
  m->set(name + ".p50", quantile(xs, 0.5), "ms");
  m->set(name + ".p90", quantile(xs, 0.9), "ms");
}

void end_to_end(const Timeline& tl, const Workload& w, long attempted,
                long failed, std::size_t probe_bytes, bool normalized,
                Metrics* m) {
  auto untraced = [](Kind k) { return k == Kind::Untraced; };
  std::vector<double> ops = tl.times(untraced, "op", normalized);
  add_percentiles(m, "compile_j1_ms", tl.times(untraced, w.j1_key(), normalized));
  add_percentiles(m, "compile_j2_ms", tl.times(untraced, w.j2_key(), normalized));
  m->set("parallel_loops", w.parallel_loops(), "count");
  add_percentiles(m, "op_ms", ops);
  m->set("ops_per_s", ratio(static_cast<double>(ops.size()), sum(ops) / 1e3),
         "1/s");
  m->set("sim_speedup_p8.geomean", w.sim_speedup(), "x");
  m->set("spec_speedup_p8", w.spec_speedup(), "x");
  auto setup = [](Kind k) { return k == Kind::Setup; };
  m->set("setup_s", median(tl.times(setup, "op", normalized)) / 1e3, "s");
  m->set("peak_rss_mb", peak_rss_mb(probe_bytes), "MB");
  m->set("ok_ops",
         100.0 * ratio(static_cast<double>(attempted - failed),
                       static_cast<double>(attempted)),
         "%");
}

void per_layer(const Timeline& tl, bool normalized, Metrics* m) {
  auto layered = [](Kind k) { return k == Kind::Traced || k == Kind::Check; };
  auto total = [&](const char* key) { return sum(tl.counts(layered, key)); };
  for (const LayerMetric& lm : kLayerMetrics) {
    const std::string unit = lm.unit;
    double v = unit == "ms" ? median(tl.times(layered, lm.name, normalized))
                            : mean(tl.counts(layered, lm.name));
    m->set(lm.name, v, lm.unit);
  }
  m->set("dep.rangetest_proven_ratio",
         ratio(total("dep.rangetest_proven"), total("dep.rangetest_queries")),
         "ratio");
  m->set("analysis.hit_ratio",
         ratio(total("analysis.hits"), total("analysis.queries")), "ratio");
  m->set("interp.stmts_per_s",
         ratio(total("interp.statements"),
               sum(tl.times(layered, "interp.all_runs_ms", normalized)) / 1e3),
         "1/s");
  double attempts = total("runtime.attempts");
  m->set("runtime.pass_ratio",
         ratio(attempts - total("runtime.failures"), attempts), "ratio");
  m->set("runtime.wasted_share",
         ratio(total("runtime.wasted"), total("runtime.parallel_cycles")),
         "ratio");
  m->set("harness.probe_ms", tl.probe_median(), "ms");
  auto traced = [](Kind k) { return k == Kind::Traced; };
  auto untraced = [](Kind k) { return k == Kind::Untraced; };
  m->set("harness.trace_overhead",
         ratio(median(tl.times(traced, "op", normalized)),
               median(tl.times(untraced, "op", normalized))),
         "x");
}

}  // namespace

bool run_workload(const Config& cfg, Result* out, std::string* error) {
  std::unique_ptr<Workload> w = make_workload(cfg);
  if (w == nullptr) {
    *error = "unknown workload '" + cfg.workload +
             "' (compile-suite, suite-exec, speculative-pdtest)";
    return false;
  }
  CpuPair probed = cfg.cpus;
  if (!w->uses_two_cpus()) probed.other = -1;
  Probe probe(probed);
  for (int i = 0; i < 3; ++i) probe.run();  // warm the probe itself
  Timeline tl(probe);

  for (int round = 0; round < kSetupRounds; ++round) {
    OpRecord& rec = tl.begin(Kind::Setup);
    Span span(nullptr, "", 0);
    if (!w->setup(error)) return false;
    rec.ms["op"] = span.close();
    tl.end();
  }

  // A traced run alternates traced and untraced blocks, so it needs at
  // least one of each; a block is never cut short.
  SpanRecorder spans;
  const long block = w->block() * (cfg.trace ? 2 : 1);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds));
  for (long index = 0;
       index < block || index % block != 0 || Clock::now() < deadline;
       ++index) {
    bool traced = cfg.trace && (index / w->block()) % 2 == 1;
    OpRecord& rec = tl.begin(traced ? Kind::Traced : Kind::Untraced);
    Span span(nullptr, "", 0);
    bool ok = w->op(index, rec, traced ? &spans : nullptr);
    rec.ms["op"] = span.close();
    tl.end();
    ++out->attempted;
    out->failed += ok ? 0 : 1;
  }
  if (w->has_check()) {
    OpRecord& rec = tl.begin(Kind::Check);
    bool ok = w->check(rec, cfg.trace ? &spans : nullptr);
    tl.end();
    ++out->attempted;
    out->failed += ok ? 0 : 1;
  }

  if (cfg.trace) {
    per_layer(tl, true, &out->metrics);
    per_layer(tl, false, &out->raw);
    if (!cfg.trace_out.empty() && !spans.write(cfg.trace_out)) {
      *error = "cannot write trace file " + cfg.trace_out;
      return false;
    }
  } else {
    end_to_end(tl, *w, out->attempted, out->failed, probe.arena_bytes(), true,
               &out->metrics);
    end_to_end(tl, *w, out->attempted, out->failed, probe.arena_bytes(), false,
               &out->raw);
  }
  out->raw.set("harness.probe_ms", tl.probe_median(), "ms");
  return true;
}

}  // namespace perfbench
