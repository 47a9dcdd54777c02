#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double peak_rss_mb(std::size_t excluded_bytes) {
  // VmHWM rather than getrusage's ru_maxrss: Linux carries ru_maxrss over
  // execve, so it would start at the launching process's resident set.
  double kb = 0.0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      kb = std::strtod(line.c_str() + 6, nullptr);
  return (kb * 1024.0 - static_cast<double>(excluded_bytes)) /
         (1024.0 * 1024.0);
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Metrics::result_json(long attempted, long failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    os << (i ? ", " : "") << '"' << e.name << "\": {\"value\": "
       << number(e.value) << ", \"unit\": \"" << e.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string Metrics::values_json() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < entries_.size(); ++i)
    os << (i ? ", " : "") << '"' << entries_[i].name
       << "\": " << number(entries_[i].value);
  os << '}';
  return os.str();
}

double SpanRecorder::Span::close() {
  if (ms_ >= 0.0) return ms_;
  Clock::time_point end = Clock::now();
  ms_ = ms_between(start_, end);
  if (rec_ != nullptr) {
    double ts = std::chrono::duration<double, std::micro>(start_ - rec_->t0_)
                    .count();
    rec_->events_.push_back({name_, op_, ts, ms_ * 1000.0});
  }
  return ms_;
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << e.name
        << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
           "\"tid\": 1, \"ts\": "
        << number(e.ts_us) << ", \"dur\": " << number(e.dur_us)
        << ", \"args\": {\"op\": " << e.op << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
