// The observability layer end to end: machine-readable reason codes on
// every serial loop, structured remarks, the statistics registry wired
// into CompileReport, Chrome-trace emission, `-report-json` schema
// round-tripping, and the interaction of all of it with fault-isolation
// rollback (a rolled-back pass must leave no trace events or statistic
// increments behind, not just no IR).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "driver/pass_manager.h"
#include "driver/report_json.h"
#include "parser/parser.h"
#include "suite/suite.h"
#include "support/json.h"
#include "support/trace.h"

namespace polaris {
namespace {

CompileReport compile_report(Options opts, const std::string& source) {
  CompileReport rep;
  Compiler(std::move(opts)).compile(source, &rep);
  return rep;
}

/// The closed set of reason codes the compiler can attach to a serial
/// loop; DESIGN.md §7 documents each.
const std::set<std::string>& known_reason_codes() {
  static const std::set<std::string> codes = {
      "empty-body",        "irregular-control-flow",
      "unresolved-call",   "loop-io",
      "scalar-recurrence", "carried-dependence",
      "strength-reduced",  "not-analyzed",
  };
  return codes;
}

// Satellite (a): across the whole 16-code suite in both compiler modes,
// no loop is reported serial without a machine-readable reason code from
// the documented set (and a human-readable serial_reason to match).
TEST(ReasonCodes, EveryNonParallelLoopCarriesAKnownCode) {
  for (CompilerMode mode : {CompilerMode::Polaris, CompilerMode::Baseline}) {
    for (const auto& bench : benchmark_suite()) {
      Options opts = mode == CompilerMode::Polaris ? Options::polaris()
                                                   : Options::baseline();
      CompileReport rep = compile_report(opts, bench.source);
      for (const LoopReport& lr : rep.loops) {
        if (lr.parallel) {
          EXPECT_TRUE(lr.reason_code.empty())
              << bench.name << "/" << lr.loop << ": parallel loop with code";
          continue;
        }
        EXPECT_FALSE(lr.reason_code.empty())
            << bench.name << "/" << lr.loop << " (" << lr.serial_reason
            << "): serial without reason code";
        EXPECT_TRUE(known_reason_codes().count(lr.reason_code))
            << bench.name << "/" << lr.loop << ": unknown code '"
            << lr.reason_code << "'";
        EXPECT_FALSE(lr.serial_reason.empty())
            << bench.name << "/" << lr.loop;
      }
    }
  }
}

// A pipeline that never runs the DOALL pass still explains its serial
// loops — with the explicit "not-analyzed" fallback, not an empty field.
TEST(ReasonCodes, SkippingDoallYieldsNotAnalyzed) {
  Options opts = Options::polaris();
  opts.pipeline_spec = "constprop,normalize";
  CompileReport rep = compile_report(opts, suite_program("trfd").source);
  ASSERT_FALSE(rep.loops.empty());
  for (const LoopReport& lr : rep.loops) {
    EXPECT_FALSE(lr.parallel);
    EXPECT_EQ(lr.reason_code, "not-analyzed");
    EXPECT_FALSE(lr.serial_reason.empty());
  }
}

// Every serial-loop decision is mirrored by a Missed remark whose reason
// equals the loop's reason code, and every parallelized loop by a
// Parallelized remark; the JSONL stream parses line by line.
TEST(Remarks, MirrorLoopOutcomesAndSerializeAsJsonl) {
  CompileReport rep =
      compile_report(Options::polaris(), suite_program("ocean").source);
  std::set<std::string> missed_contexts;
  std::set<std::string> parallel_contexts;
  for (const Diagnostic* d : rep.diagnostics.remarks()) {
    EXPECT_NE(d->remark, RemarkKind::None);
    EXPECT_FALSE(d->reason.empty()) << d->message;
    if (d->remark == RemarkKind::Missed) missed_contexts.insert(d->context);
    if (d->remark == RemarkKind::Parallelized)
      parallel_contexts.insert(d->context);
  }
  for (const LoopReport& lr : rep.loops) {
    const std::string context = lr.unit + "/" + lr.loop;
    if (lr.parallel || lr.speculative)
      EXPECT_TRUE(parallel_contexts.count(context)) << context;
    else
      EXPECT_TRUE(missed_contexts.count(context)) << context;
  }

  std::ostringstream os;
  rep.diagnostics.print_remarks(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    JsonValue doc = parse_json(line);
    ASSERT_TRUE(doc.is_object());
    EXPECT_NE(doc.find("kind"), nullptr);
    EXPECT_NE(doc.find("reason"), nullptr);
    EXPECT_NE(doc.find("context"), nullptr);
  }
  EXPECT_EQ(lines, rep.diagnostics.remarks().size());
  EXPECT_GT(lines, 0u);
}

// `-report-json`: the document parses, carries the schema header, and
// agrees field-for-field with the in-memory CompileReport.
TEST(ReportJson, RoundTripsThroughTheParser) {
  CompileReport rep =
      compile_report(Options::polaris(), suite_program("trfd").source);
  const std::string text = compile_report_json(rep);
  JsonValue doc = parse_json(text);

  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->string_value, "polaris-compile-report");
  EXPECT_EQ(doc.find("version")->number, kCompileReportSchemaVersion);

  const JsonValue* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("loops")->number, rep.doall.loops);
  EXPECT_EQ(summary->find("parallel")->number, rep.doall.parallel);

  const JsonValue* loops = doc.find("loops");
  ASSERT_NE(loops, nullptr);
  ASSERT_EQ(loops->items.size(), rep.loops.size());
  for (std::size_t i = 0; i < rep.loops.size(); ++i) {
    const JsonValue& l = loops->items[i];
    EXPECT_EQ(l.find("unit")->string_value, rep.loops[i].unit);
    EXPECT_EQ(l.find("loop")->string_value, rep.loops[i].loop);
    EXPECT_EQ(l.find("parallel")->bool_value, rep.loops[i].parallel);
    EXPECT_EQ(l.find("reason_code")->string_value, rep.loops[i].reason_code);
    EXPECT_EQ(l.find("dep")->find("pairs")->number, rep.loops[i].dep_pairs);
  }

  const JsonValue* timings = doc.find("pass_timings");
  ASSERT_NE(timings, nullptr);
  EXPECT_EQ(timings->items.size(), rep.pass_timings.size());
  const JsonValue* stats = doc.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->items.size(), rep.stats.size());
  const JsonValue* cache = doc.find("analysis_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("queries")->number,
            static_cast<double>(rep.analysis.queries));

  // Stable round trip: parse -> serialize reproduces the document.
  EXPECT_EQ(doc.serialize(), text);
}

// The compile populates CompileReport::stats with per-compile deltas; a
// second identical compile reports the same deltas (the registry is
// process-global but the report is snapshot-relative).
TEST(ReportStats, DeltasAreSnapshotRelative) {
  const std::string& src = suite_program("bdna").source;
  CompileReport first = compile_report(Options::polaris(), src);
  CompileReport second = compile_report(Options::polaris(), src);
  ASSERT_FALSE(first.stats.empty());
  ASSERT_EQ(first.stats.size(), second.stats.size());
  for (std::size_t i = 0; i < first.stats.size(); ++i) {
    EXPECT_EQ(first.stats[i].component, second.stats[i].component);
    EXPECT_EQ(first.stats[i].name, second.stats[i].name);
    EXPECT_EQ(first.stats[i].value, second.stats[i].value)
        << first.stats[i].component << "." << first.stats[i].name;
  }
}

struct ParsedTrace {
  JsonValue doc;
  std::vector<const JsonValue*> events;
};

ParsedTrace parse_trace(const std::string& json) {
  ParsedTrace t;
  t.doc = parse_json(json);
  const JsonValue* evs = t.doc.find("traceEvents");
  if (evs != nullptr)
    for (const JsonValue& e : evs->items) t.events.push_back(&e);
  return t;
}

const JsonValue* find_event(const ParsedTrace& t, const std::string& name) {
  for (const JsonValue* e : t.events)
    if (e->find("name")->string_value == name) return e;
  return nullptr;
}

bool contained_in(const JsonValue& child, const JsonValue& parent) {
  const double cts = child.find("ts")->number;
  const double pts = parent.find("ts")->number;
  const double cdur = child.find("dur") ? child.find("dur")->number : 0;
  const double pdur = parent.find("dur") ? parent.find("dur")->number : 0;
  return cts >= pts && cts + cdur <= pts + pdur;
}

// Tentpole acceptance: the trace is valid Chrome trace JSON with exactly
// one pass-category span per (pass, unit) invocation — as counted by the
// pass-timing table — all nested inside the compile span, with parse and
// pipeline spans present.
TEST(Trace, PassSpansMatchTimingRunsAndNestUnderCompile) {
  CompileContext cc;
  cc.trace().start("");
  CompileReport rep;
  Compiler(Options::polaris())
      .compile(suite_program("trfd").source, &rep, cc);
  ParsedTrace t = parse_trace(cc.trace().stop());

  const JsonValue* compile = find_event(t, "compile");
  ASSERT_NE(compile, nullptr);
  ASSERT_NE(find_event(t, "parse"), nullptr);
  ASSERT_NE(find_event(t, "pipeline"), nullptr);

  int pass_spans = 0;
  for (const JsonValue* e : t.events) {
    if (e->find("cat")->string_value != "pass") continue;
    ++pass_spans;
    EXPECT_EQ(e->find("ph")->string_value, "X");
    EXPECT_NE(e->find("args")->find("unit"), nullptr);
    EXPECT_TRUE(contained_in(*e, *compile))
        << e->find("name")->string_value << " span escapes the compile span";
  }
  int timing_runs = 0;
  for (const PassTiming& pt : rep.pass_timings) timing_runs += pt.runs;
  EXPECT_EQ(pass_spans, timing_runs);

  // Dependence-test batches and analysis-cache counter tracks made it in.
  EXPECT_NE(find_event(t, "ddtest"), nullptr);
  EXPECT_NE(find_event(t, "analysis-cache"), nullptr);
}

// When a compile is not being traced, nothing accumulates.
TEST(Trace, DisabledCompileLeavesNoEvents) {
  CompileContext cc;
  ASSERT_FALSE(cc.trace().collecting());
  CompileReport rep;
  Compiler(Options::polaris())
      .compile(suite_program("trfd").source, &rep, cc);
  EXPECT_EQ(cc.trace().event_count(), 0u);
}

// Satellite (c): on a no-fault compile, the per-pass IR deltas in the
// `-timing` table telescope exactly to the whole-program IR size change,
// and the per-pass analysis-cache numbers sum to the aggregate totals.
TEST(Timing, IrDeltasTelescopeToNetSizeChange) {
  for (const char* code : {"trfd", "ocean", "bdna", "arc2d"}) {
    const std::string& src = suite_program(code).source;
    auto prog = parse_program(src);
    long stmts_before = 0, exprs_before = 0;
    for (const auto& u : prog->units()) {
      IrSize s = unit_ir_size(*u);
      stmts_before += s.stmts;
      exprs_before += s.exprs;
    }

    CompileReport rep;
    Compiler(Options::polaris()).transform(*prog, &rep);
    ASSERT_TRUE(rep.failures.empty()) << code;

    long stmts_after = 0, exprs_after = 0;
    for (const auto& u : prog->units()) {
      IrSize s = unit_ir_size(*u);
      stmts_after += s.stmts;
      exprs_after += s.exprs;
    }
    long stmt_delta = 0, expr_delta = 0;
    std::uint64_t queries = 0, hits = 0;
    for (const PassTiming& t : rep.pass_timings) {
      stmt_delta += t.stmt_delta;
      expr_delta += t.expr_delta;
      queries += t.analysis_queries;
      hits += t.analysis_hits;
    }
    EXPECT_EQ(stmt_delta, stmts_after - stmts_before) << code;
    EXPECT_EQ(expr_delta, exprs_after - exprs_before) << code;
    EXPECT_EQ(queries, rep.analysis.queries) << code;
    EXPECT_EQ(hits, rep.analysis.hits) << code;
  }
}

// Satellite (b): rolling back a faulted pass unwinds its statistic
// increments and trace events.  A doall-injected compile must report
// byte-identical statistics to a compile that omitted doall, its trace
// must contain no dependence-test spans (they all ran inside the
// rolled-back pass), and the rollback itself must be visible as an
// instant event plus a rolled_back tag on the pass span.
TEST(Rollback, UnwindsStatisticsAndTraceEvents) {
  const std::string& src = suite_program("trfd").source;
  const std::vector<std::string> names = PassPipeline::standard().pass_names();
  std::string spec_without_doall;
  for (const auto& n : names) {
    if (n == "doall") continue;
    if (!spec_without_doall.empty()) spec_without_doall += ",";
    spec_without_doall += n;
  }

  Options faulted = Options::polaris();
  faulted.fault_inject = "doall";
  CompileContext cc;
  cc.trace().start("");
  CompileReport faulted_rep;
  Compiler(faulted).compile(src, &faulted_rep, cc);
  ParsedTrace t = parse_trace(cc.trace().stop());
  ASSERT_FALSE(faulted_rep.failures.empty());

  Options clean = Options::polaris();
  clean.pipeline_spec = spec_without_doall;
  CompileReport clean_rep = compile_report(clean, src);

  ASSERT_EQ(faulted_rep.stats.size(), clean_rep.stats.size());
  for (std::size_t i = 0; i < clean_rep.stats.size(); ++i) {
    EXPECT_EQ(faulted_rep.stats[i].name, clean_rep.stats[i].name);
    EXPECT_EQ(faulted_rep.stats[i].value, clean_rep.stats[i].value)
        << faulted_rep.stats[i].component << "."
        << faulted_rep.stats[i].name;
  }

  EXPECT_EQ(find_event(t, "ddtest"), nullptr)
      << "rolled-back doall leaked dependence-test trace events";
  const JsonValue* rollback = find_event(t, "rollback");
  ASSERT_NE(rollback, nullptr);
  EXPECT_EQ(rollback->find("ph")->string_value, "i");
  EXPECT_EQ(rollback->find("args")->find("pass")->string_value, "doall");

  bool tagged = false;
  for (const JsonValue* e : t.events) {
    if (e->find("name")->string_value != "doall") continue;
    const JsonValue* args = e->find("args");
    if (args && args->find("rolled_back")) tagged = true;
  }
  EXPECT_TRUE(tagged) << "faulted pass span not tagged rolled_back";
}

/// The trace events of one compile of `source`, in buffer order.
std::vector<trace::TraceEvent> traced_compile(Options opts,
                                              const std::string& source,
                                              CompileReport* rep) {
  CompileContext cc;
  cc.trace().start("");
  Compiler(std::move(opts)).compile(source, rep, cc);
  std::vector<trace::TraceEvent> events = cc.trace().events();
  cc.trace().stop();
  return events;
}

std::string arg_of(const trace::TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.args)
    if (k == key) return v;
  return "";
}

std::size_t count_named(const std::vector<trace::TraceEvent>& events,
                        const std::string& name) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [&](const trace::TraceEvent& e) { return e.name == name; }));
}

// Fault isolation checkpoints each (unit, unit-scope group) once, plus the
// whole program once per program-scope pass — not every (pass, unit)
// invocation.  The standard battery over the 17-unit combined suite is
// inline (program scope) then one unit-scope group: 1 + 17 checkpoints.
TEST(Rollback, CheckpointsOncePerUnitGroupAndProgramPass) {
  const std::string src = combined_suite_source();
  const std::size_t units = parse_program(src)->units().size();
  ASSERT_EQ(units, 17u);
  CompileReport rep;
  const std::vector<trace::TraceEvent> events =
      traced_compile(Options::polaris(), src, &rep);
  ASSERT_TRUE(rep.failures.empty());

  std::map<std::string, int> per_unit;
  for (const trace::TraceEvent& e : events) {
    if (e.name != "checkpoint") continue;
    EXPECT_EQ(e.phase, 'X');
    EXPECT_EQ(e.category, "fault");
    ++per_unit[arg_of(e, "unit")];
  }
  EXPECT_EQ(count_named(events, "checkpoint"), 18u);
  EXPECT_EQ(per_unit.size(), units);
  EXPECT_EQ(per_unit["driver"], 2);  // inline's program checkpoint + group
  EXPECT_EQ(count_named(events, "snapshot"), 0u);
}

// A fault in doall on every unit discards each unit's shard and replays
// its group without doall.  The surviving trace holds exactly one doall
// span per unit, tagged rolled_back, with one rollback instant each — and
// nothing from a discarded run: apart from those records (and the
// analysis-cache samples, which re-sample at the doall position), its
// events are exactly those of the compile that never ran doall.
TEST(Rollback, FaultedTraceKeepsOnlyTheSurvivingRun) {
  const std::string src = combined_suite_source();
  Options faulted = Options::polaris();
  faulted.fault_inject = "doall";
  CompileReport faulted_rep;
  const std::vector<trace::TraceEvent> events =
      traced_compile(faulted, src, &faulted_rep);
  ASSERT_EQ(faulted_rep.failures.size(), 17u);

  std::map<std::string, int> doall_spans, rollbacks;
  for (const trace::TraceEvent& e : events) {
    if (e.name == "doall") {
      EXPECT_EQ(e.phase, 'X');
      EXPECT_EQ(arg_of(e, "rolled_back"), "true");
      ++doall_spans[arg_of(e, "unit")];
    }
    if (e.name == "rollback") {
      EXPECT_EQ(e.phase, 'i');
      EXPECT_EQ(arg_of(e, "pass"), "doall");
      ++rollbacks[arg_of(e, "unit")];
    }
  }
  EXPECT_EQ(doall_spans.size(), 17u);
  EXPECT_EQ(rollbacks, doall_spans);
  for (const auto& [unit, n] : doall_spans) EXPECT_EQ(n, 1) << unit;
  EXPECT_EQ(count_named(events, "checkpoint"), 18u);
  EXPECT_EQ(count_named(events, "ddtest"), 0u);

  Options omitted = Options::polaris();
  for (const std::string& n : PassPipeline::standard().pass_names())
    if (n != "doall")
      omitted.pipeline_spec += (omitted.pipeline_spec.empty() ? "" : ",") + n;
  CompileReport omitted_rep;
  const std::vector<trace::TraceEvent> reference =
      traced_compile(omitted, src, &omitted_rep);

  auto shape = [](const std::vector<trace::TraceEvent>& evs) {
    std::vector<std::string> out;
    for (const trace::TraceEvent& e : evs) {
      if (e.phase == 'C' || e.name == "doall" || e.name == "rollback")
        continue;
      std::string s = e.phase + (" " + e.category + " " + e.name);
      for (const auto& [k, v] : e.args) s += " " + k + "=" + v;
      out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(shape(events), shape(reference));
}

// A ladder replay carries each failed attempt's trips into the meters:
// every retry or drop stands for at least one tripped ceiling, beside the
// trips behind the surviving run's conservative bail-outs.
TEST(Rollback, ReplayCarriesFailedAttemptTrips) {
  Options opts = Options::polaris();
  opts.max_poly_terms = 2;
  CompileReport rep = compile_report(opts, suite_program("trfd").source);
  std::uint64_t ladder = 0, bailouts = 0;
  for (const DegradationEvent& e : rep.degradations) {
    ASSERT_EQ(e.trigger, "poly-terms");
    if (e.action == "conservative-bailout")
      bailouts += e.count;
    else
      ++ladder;
  }
  ASSERT_EQ(ladder, 3u);  // retry-reduced, retry-floor, drop-pass
  EXPECT_GE(rep.resource.trips_poly_terms, bailouts + ladder);
}

}  // namespace
}  // namespace polaris
