// Measurement plumbing shared by the workloads: a steady clock, sample
// statistics, the metric table printed as the run's result line, and an
// in-memory span recorder that writes Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for
/// an empty sample.
double quantile(std::vector<double> xs, double q);
inline double median(const std::vector<double>& xs) {
  return quantile(xs, 0.5);
}
/// Geometric mean; 1 for an empty sample (the empty product).
double geomean(const std::vector<double>& xs);

/// Peak resident set of this process image so far (VmHWM), less
/// `excluded_bytes` that stayed resident throughout (the probe's arenas),
/// in MB.
double peak_rss_mb(std::size_t excluded_bytes);

/// Named metric values with units, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// The result object: {"correct", "attempted", "failed", "metrics"}.
  std::string result_json(long attempted, long failed) const;
  /// {"name": value, ...} without units (the stderr diagnostics line).
  std::string values_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Spans recorded around the public calls of a traced op.  Kept in
/// memory; write() emits Chrome trace-event JSON ("X" complete events),
/// loadable in chrome://tracing or https://ui.perfetto.dev.
class SpanRecorder {
 public:
  SpanRecorder() : t0_(Clock::now()) {}

  /// RAII span; nests by time containment, tagged with the op id.  With
  /// a null recorder it only times the region (untraced ops).
  class Span {
   public:
    Span(SpanRecorder* rec, const char* name, long op)
        : rec_(rec), name_(name), op_(op), start_(Clock::now()) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { close(); }
    /// Ends the span now and returns its length in ms (idempotent).
    double close();

   private:
    SpanRecorder* rec_;
    const char* name_;
    long op_;
    Clock::time_point start_;
    double ms_ = -1.0;
  };

  bool write(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    long op;
    double ts_us;
    double dur_us;
  };
  Clock::time_point t0_;
  std::vector<Event> events_;
};

}  // namespace perfbench
