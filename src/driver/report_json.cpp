#include "driver/report_json.h"

#include <cstdio>
#include <cstdlib>

namespace polaris {

namespace {

JsonValue loop_to_json(const LoopReport& lr) {
  JsonValue loop = JsonValue::object();
  loop.set("unit", JsonValue::str(lr.unit));
  loop.set("loop", JsonValue::str(lr.loop));
  loop.set("depth", JsonValue::num(lr.depth));
  loop.set("parallel", JsonValue::boolean(lr.parallel));
  loop.set("speculative", JsonValue::boolean(lr.speculative));
  loop.set("reason_code", JsonValue::str(lr.reason_code));
  loop.set("serial_reason", JsonValue::str(lr.serial_reason));
  JsonValue dep = JsonValue::object();
  dep.set("pairs", JsonValue::num(lr.dep_pairs));
  dep.set("gcd", JsonValue::num(lr.dep_by_gcd));
  dep.set("banerjee", JsonValue::num(lr.dep_by_banerjee));
  dep.set("rangetest", JsonValue::num(lr.dep_by_rangetest));
  loop.set("dep", std::move(dep));
  return loop;
}

JsonValue remark_to_json(const Diagnostic& d) {
  JsonValue remark = JsonValue::object();
  remark.set("kind", JsonValue::str(to_string(d.remark)));
  remark.set("pass", JsonValue::str(d.pass));
  remark.set("context", JsonValue::str(d.context));
  remark.set("reason", JsonValue::str(d.reason));
  remark.set("message", JsonValue::str(d.message));
  JsonValue args = JsonValue::object();
  for (const RemarkArg& a : d.args) args.set(a.key, JsonValue::str(a.value));
  remark.set("args", std::move(args));
  return remark;
}

JsonValue timing_to_json(const PassTiming& t) {
  JsonValue timing = JsonValue::object();
  timing.set("pass", JsonValue::str(t.pass));
  timing.set("runs", JsonValue::num(t.runs));
  timing.set("ms", JsonValue::num(t.ms));
  timing.set("diags", JsonValue::num(t.diags));
  timing.set("stmt_delta", JsonValue::num(static_cast<std::int64_t>(t.stmt_delta)));
  timing.set("expr_delta", JsonValue::num(static_cast<std::int64_t>(t.expr_delta)));
  timing.set("analysis_queries", JsonValue::num(t.analysis_queries));
  timing.set("analysis_hits", JsonValue::num(t.analysis_hits));
  timing.set("failures", JsonValue::num(t.failures));
  return timing;
}

JsonValue failure_to_json(const PassFailure& f) {
  JsonValue failure = JsonValue::object();
  failure.set("pass", JsonValue::str(f.pass));
  failure.set("unit", JsonValue::str(f.unit));
  failure.set("kind", JsonValue::str(to_string(f.kind)));
  failure.set("message", JsonValue::str(f.message));
  failure.set("injected", JsonValue::boolean(f.injected));
  failure.set("recovered", JsonValue::boolean(f.recovered));
  return failure;
}

JsonValue degradation_to_json(const DegradationEvent& e) {
  JsonValue ev = JsonValue::object();
  ev.set("pass", JsonValue::str(e.pass));
  ev.set("unit", JsonValue::str(e.unit));
  ev.set("trigger", JsonValue::str(e.trigger));
  ev.set("action", JsonValue::str(e.action));
  ev.set("site", JsonValue::str(e.site));
  ev.set("rung", JsonValue::num(e.rung));
  ev.set("count", JsonValue::num(e.count));
  ev.set("detail", JsonValue::str(e.detail));
  return ev;
}

}  // namespace

JsonValue compile_report_to_json(const CompileReport& report) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue::str("polaris-compile-report"));
  doc.set("version", JsonValue::num(kCompileReportSchemaVersion));

  JsonValue summary = JsonValue::object();
  summary.set("loops", JsonValue::num(report.doall.loops));
  summary.set("parallel", JsonValue::num(report.doall.parallel));
  summary.set("speculative", JsonValue::num(report.doall.speculative));
  summary.set("calls_inlined", JsonValue::num(report.inlining.expanded));
  summary.set("inductions_substituted",
              JsonValue::num(report.induction.substituted));
  doc.set("summary", std::move(summary));

  JsonValue loops = JsonValue::array();
  for (const LoopReport& lr : report.loops) loops.add(loop_to_json(lr));
  doc.set("loops", std::move(loops));

  JsonValue remarks = JsonValue::array();
  for (const Diagnostic* d : report.diagnostics.remarks())
    remarks.add(remark_to_json(*d));
  doc.set("remarks", std::move(remarks));

  JsonValue timings = JsonValue::array();
  for (const PassTiming& t : report.pass_timings)
    timings.add(timing_to_json(t));
  doc.set("pass_timings", std::move(timings));

  JsonValue failures = JsonValue::array();
  for (const PassFailure& f : report.failures)
    failures.add(failure_to_json(f));
  doc.set("failures", std::move(failures));

  // Additive since version 1: resource-governor degradation sequence
  // (empty array for ungoverned compiles).
  JsonValue degradations = JsonValue::array();
  for (const DegradationEvent& e : report.degradations)
    degradations.add(degradation_to_json(e));
  doc.set("degradations", std::move(degradations));

  JsonValue stats = JsonValue::array();
  for (const StatisticValue& s : report.stats) {
    JsonValue stat = JsonValue::object();
    stat.set("component", JsonValue::str(s.component));
    stat.set("name", JsonValue::str(s.name));
    stat.set("value", JsonValue::num(s.value));
    stats.add(std::move(stat));
  }
  doc.set("stats", std::move(stats));

  JsonValue cache = JsonValue::object();
  cache.set("queries", JsonValue::num(report.analysis.queries));
  cache.set("hits", JsonValue::num(report.analysis.hits));
  cache.set("recomputes", JsonValue::num(report.analysis.recomputes));
  cache.set("invalidations", JsonValue::num(report.analysis.invalidations));
  doc.set("analysis_cache", std::move(cache));

  // Additive since version 1: governor fuel accounting.  Trip keys are
  // the GovernorTrigger to_string values.
  JsonValue resource = JsonValue::object();
  resource.set("fuel_limit", JsonValue::num(report.resource.fuel_limit));
  resource.set("fuel_spent", JsonValue::num(report.resource.fuel_spent));
  JsonValue trips = JsonValue::object();
  trips.set("compile-fuel",
            JsonValue::num(report.resource.trips_compile_fuel));
  trips.set("poly-terms", JsonValue::num(report.resource.trips_poly_terms));
  trips.set("atom-ceiling",
            JsonValue::num(report.resource.trips_atom_ceiling));
  resource.set("trips", std::move(trips));
  doc.set("resource", std::move(resource));

  return doc;
}

std::string compile_report_json(const CompileReport& report) {
  return compile_report_to_json(report).serialize();
}

JsonValue bench_row(const std::string& bench) {
  JsonValue row = JsonValue::object();
  row.set("schema", JsonValue::str("polaris-bench-row"));
  row.set("version", JsonValue::num(kBenchRowSchemaVersion));
  row.set("bench", JsonValue::str(bench));
  return row;
}

bool append_bench_row(const std::string& path, const JsonValue& row) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", row.serialize().c_str());
  std::fclose(f);
  return true;
}

void append_bench_row_env(const JsonValue& row) {
  const char* path = std::getenv("POLARIS_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  append_bench_row(path, row);
}

}  // namespace polaris
