// CompileReport -> stable-schema JSON (`polaris -report-json=FILE`).
//
// The full decision record of one compilation — per-loop outcomes with
// structured reason codes, optimization remarks, pass timings, fault
// failures, statistic deltas, and analysis-cache accounting — as a single
// JSON document the bench harness and CI can consume without scraping
// text output.
//
// Schema stability: the document carries {"schema": "polaris-compile-
// report", "version": N}.  Additions bump nothing (consumers must ignore
// unknown fields); renames/removals/semantic changes bump `version`.
// The current schema is documented in DESIGN.md §7.
#pragma once

#include <string>

#include "driver/compiler.h"
#include "support/json.h"

namespace polaris {

/// Current `-report-json` schema version.
inline constexpr int kCompileReportSchemaVersion = 2;

/// Builds the JSON document for `report`.
JsonValue compile_report_to_json(const CompileReport& report);

/// compile_report_to_json(...).serialize() — one compact JSON document.
std::string compile_report_json(const CompileReport& report);

/// Current POLARIS_BENCH_JSON row schema version.  Every row the bench
/// binaries append is one JSONL line starting
/// {"schema":"polaris-bench-row","version":1,"bench":NAME,...} so
/// polaris-insight can ingest a bench log without per-bench parsers.
inline constexpr int kBenchRowSchemaVersion = 1;

/// Starts a bench row: the schema/version header plus the bench name.
/// Callers `set` their payload fields and hand the row to
/// append_bench_row / append_bench_row_env.
JsonValue bench_row(const std::string& bench);

/// Appends `row` as one JSONL line to `path` (create/append).  Returns
/// false when the file cannot be opened — benches treat that like an
/// unset POLARIS_BENCH_JSON and keep running.
bool append_bench_row(const std::string& path, const JsonValue& row);

/// append_bench_row to $POLARIS_BENCH_JSON; no-op when the variable is
/// unset or empty.
void append_bench_row_env(const JsonValue& row);

}  // namespace polaris
