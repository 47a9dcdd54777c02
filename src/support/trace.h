// Hierarchical scoped-span tracing with Chrome trace-event output.
//
// Polaris's `-timing` table answers "how long did each pass take overall";
// the tracer answers "what happened, when, inside which pass, on which
// unit" — parse, every pass x unit invocation, dependence-test batches,
// GSA-engine construction, verifier runs, and fault-isolation
// checkpoint/rollback events, plus counter tracks for analysis-cache
// accounting.  Output is the Chrome trace-event JSON format, loadable in
// chrome://tracing or Perfetto (`-trace=FILE` / POLARIS_TRACE).
//
// Ownership: there is no global collector.  Each CompileContext owns a
// TraceCollector; per-unit shards own their own collector sharing the
// parent's time epoch, and the parent appends shard events in unit order
// when the parallel group finishes.  Instrumentation sites receive the
// collector explicitly (usually via the CompileContext threaded through
// the layer); a null collector reduces every site to one branch.
//
// Spans are RAII (TraceSpan) and *registered* with their collector while
// open, so an exception unwinding through an instrumented region closes
// its spans, and a collector being stopped or finalized closes any spans
// still in flight (instead of silently dropping them).  A rolled-back
// pass contributes no events at all: its shard's collector is discarded
// whole, and the replay re-records only the attempt's own span (see
// record()).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace polaris::trace {

/// One recorded trace event (Chrome trace-event model).
struct TraceEvent {
  char phase = 'X';       ///< 'X' complete span, 'i' instant, 'C' counter
  std::string name;
  std::string category;
  std::uint64_t ts_us = 0;   ///< microseconds since trace start
  std::uint64_t dur_us = 0;  ///< span duration ('X' only)
  /// Key-value args; for counters the values must be numeric literals
  /// (rendered unquoted so the viewer draws a counter track).
  std::vector<std::pair<std::string, std::string>> args;
  bool numeric_args = false;  ///< render arg values as numbers
};

class TraceSpan;

/// One compilation's (or one unit shard's) event buffer.  Single-threaded
/// by construction: a collector is only ever touched by the thread
/// currently working on its compile/shard.
class TraceCollector {
 public:
  TraceCollector() = default;
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Begins collecting; `path` is where stop() writes the JSON (empty:
  /// discard).  Starting an already-collecting collector is an error.
  void start(const std::string& path);

  /// Begins collecting as a shard of `parent`: shares the parent's time
  /// epoch so merged timestamps stay on one timeline, never writes a file
  /// itself.  No-op (shard stays off) when the parent is not collecting.
  void start_shard_of(const TraceCollector& parent);

  /// Closes any spans still open (they emit as complete events, tagged
  /// `dangling`), writes the collected events to the start() path, and
  /// disables collection.  Returns the serialized JSON so in-process
  /// consumers (tests) can validate without touching the file.
  std::string stop();

  /// True while events are being collected.  The one branch every
  /// instrumentation site pays when tracing is disabled.
  bool collecting() const { return on_; }

  /// The armed output path (empty when off).
  const std::string& path() const;

  /// Number of buffered events.
  std::size_t event_count() const { return on_ ? events_.size() : 0; }

  /// Instant event (rollback markers and similar point-in-time facts).
  void instant(const std::string& name, const std::string& category,
               std::vector<std::pair<std::string, std::string>> args = {});

  /// Counter sample: one track per `name`, one series per arg key.
  void counter(const std::string& name,
               std::vector<std::pair<std::string, std::uint64_t>> series);

  /// Appends a prebuilt event: how a fault-isolation replay re-emits the
  /// records (checkpoint span, failed attempt span) of shards it
  /// discarded.  No-op when off.
  void record(TraceEvent e);

  /// Microseconds since trace start (0 when off).
  std::uint64_t now_us() const;

  /// Appends a finished shard's events in place (the deterministic
  /// unit-order merge).  The shard must share this collector's epoch.
  void append(TraceCollector&& shard);

  /// Read-only view of the buffered events (tests, serialization).
  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  friend class TraceSpan;
  using Clock = std::chrono::steady_clock;

  /// Emits the close event for every span still registered (innermost
  /// first, mirroring natural destruction order) and detaches them so
  /// their destructors become no-ops.
  void close_dangling_spans();

  bool on_ = false;
  std::string path_;
  Clock::time_point t0_{};
  std::vector<TraceEvent> events_;
  std::vector<TraceSpan*> open_spans_;  ///< registration stack, outermost first
};

/// RAII span.  With a null or non-collecting collector, construction is
/// one branch and no state is touched — the const char* overloads exist
/// so disabled call sites never materialize a std::string (these sit on
/// per-pair hot paths in the dependence testers).  The event is emitted
/// at destruction (or at collector stop, whichever comes first) as a
/// complete ('X') event, so nesting falls out of the ts/dur containment.
class TraceSpan {
 public:
  TraceSpan(TraceCollector* c, const char* name, const char* category);
  TraceSpan(TraceCollector* c, const std::string& name, const char* category);
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

  /// Attaches a key-value arg shown in the trace viewer's detail panel.
  void arg(const char* key, const std::string& value) {
    if (collector_ != nullptr) args_.emplace_back(key, value);
  }
  void arg(const char* key, const char* value) {
    if (collector_ != nullptr) args_.emplace_back(key, value);
  }
  void arg(const char* key, std::uint64_t value) {
    if (collector_ != nullptr) args_.emplace_back(key, std::to_string(value));
  }

 private:
  friend class TraceCollector;
  void emit(bool dangling);

  TraceCollector* collector_;  ///< null when inactive
  std::string name_;
  std::string category_;
  std::uint64_t t0_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

/// Serializes events as Chrome trace JSON (what TraceCollector::stop()
/// writes).
std::string to_chrome_json(const std::vector<TraceEvent>& events);

}  // namespace polaris::trace
