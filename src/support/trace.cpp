#include "support/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "support/assert.h"
#include "support/json.h"

namespace polaris::trace {

void TraceCollector::start(const std::string& path) {
  p_assert_msg(!on_, "trace collector already started");
  path_ = path;
  t0_ = Clock::now();
  events_.clear();
  open_spans_.clear();
  on_ = true;
}

void TraceCollector::start_shard_of(const TraceCollector& parent) {
  p_assert_msg(!on_, "trace collector already started");
  if (!parent.on_) return;
  path_.clear();  // shards never write files; the parent does at stop()
  t0_ = parent.t0_;
  events_.clear();
  open_spans_.clear();
  on_ = true;
}

std::string TraceCollector::stop() {
  if (!on_) return std::string();
  close_dangling_spans();
  on_ = false;
  std::string json = to_chrome_json(events_);
  if (!path_.empty()) {
    std::ofstream out(path_);
    if (out)
      out << json;
    else
      std::fprintf(stderr, "polaris: cannot write trace to %s\n",
                   path_.c_str());
  }
  events_.clear();
  path_.clear();
  return json;
}

void TraceCollector::close_dangling_spans() {
  // Innermost spans first so nesting containment holds for the emitted
  // events, matching the order their destructors would have run.
  while (!open_spans_.empty()) {
    TraceSpan* span = open_spans_.back();
    span->emit(/*dangling=*/true);
    span->collector_ = nullptr;  // emit() popped the registration
  }
}

const std::string& TraceCollector::path() const {
  static const std::string empty;
  return on_ ? path_ : empty;
}

std::uint64_t TraceCollector::now_us() const {
  if (!on_) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0_)
          .count());
}

void TraceCollector::instant(
    const std::string& name, const std::string& category,
    std::vector<std::pair<std::string, std::string>> args) {
  if (!on_) return;
  TraceEvent e;
  e.phase = 'i';
  e.name = name;
  e.category = category;
  e.ts_us = now_us();
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceCollector::record(TraceEvent e) {
  if (on_) events_.push_back(std::move(e));
}

void TraceCollector::counter(
    const std::string& name,
    std::vector<std::pair<std::string, std::uint64_t>> series) {
  if (!on_) return;
  TraceEvent e;
  e.phase = 'C';
  e.name = name;
  e.category = "counter";
  e.ts_us = now_us();
  e.numeric_args = true;
  for (auto& [key, value] : series)
    e.args.emplace_back(std::move(key), std::to_string(value));
  events_.push_back(std::move(e));
}

void TraceCollector::append(TraceCollector&& shard) {
  if (!shard.on_) return;
  shard.close_dangling_spans();
  shard.on_ = false;
  if (on_) {
    events_.insert(events_.end(),
                   std::make_move_iterator(shard.events_.begin()),
                   std::make_move_iterator(shard.events_.end()));
  }
  shard.events_.clear();
}

TraceSpan::TraceSpan(TraceCollector* c, const char* name, const char* category)
    : collector_(c != nullptr && c->collecting() ? c : nullptr) {
  if (collector_ == nullptr) return;
  name_ = name;
  category_ = category;
  t0_ = collector_->now_us();
  collector_->open_spans_.push_back(this);
}

TraceSpan::TraceSpan(TraceCollector* c, const std::string& name,
                     const char* category)
    : collector_(c != nullptr && c->collecting() ? c : nullptr) {
  if (collector_ == nullptr) return;
  name_ = name;
  category_ = category;
  t0_ = collector_->now_us();
  collector_->open_spans_.push_back(this);
}

TraceSpan::~TraceSpan() {
  if (collector_ == nullptr) return;
  emit(/*dangling=*/false);
}

void TraceSpan::emit(bool dangling) {
  auto& open = collector_->open_spans_;
  open.erase(std::find(open.begin(), open.end(), this));
  TraceEvent e;
  e.phase = 'X';
  e.name = std::move(name_);
  e.category = std::move(category_);
  e.ts_us = t0_;
  e.dur_us = collector_->now_us() - t0_;
  e.args = std::move(args_);
  if (dangling) e.args.emplace_back("dangling", "true");
  collector_->events_.push_back(std::move(e));
  collector_ = nullptr;
}

std::string to_chrome_json(const std::vector<TraceEvent>& events) {
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json_escape(e.name) + "\",\"cat\":\"" +
           json_escape(e.category) + "\",\"ph\":\"";
    out += e.phase;
    out += "\",\"pid\":1,\"tid\":1,\"ts\":" + std::to_string(e.ts_us);
    if (e.phase == 'X') out += ",\"dur\":" + std::to_string(e.dur_us);
    if (e.phase == 'i') out += ",\"s\":\"t\"";
    if (!e.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : e.args) {
        if (!first_arg) out += ",";
        first_arg = false;
        out += '"';
        out += json_escape(key);
        out += "\":";
        if (e.numeric_args) {
          out += value;
        } else {
          out += '"';
          out += json_escape(value);
          out += '"';
        }
      }
      out += "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace polaris::trace
