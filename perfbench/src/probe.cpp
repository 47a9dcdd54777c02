#include "probe.h"

#include <sched.h>

#include <cstring>
#include <initializer_list>
#include <map>
#include <memory_resource>
#include <string>
#include <unordered_map>

#include "report.h"

namespace perfbench {

namespace {

constexpr std::size_t kArenaBytes = 4u << 20;  // one probe needs under 3 MB

struct XorShift {
  std::uint64_t x;
  std::uint64_t next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

std::uint64_t churn_strings(std::vector<std::byte>& arena, int entries,
                            int lookups) {
  std::pmr::monotonic_buffer_resource mono(arena.data(), arena.size(),
                                           std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&mono);
  std::pmr::map<std::pmr::string, std::uint64_t> by_name(&pool);
  std::pmr::unordered_map<std::uint64_t, std::pmr::string> by_key(&pool);
  XorShift rng{88172645463325252ull};
  const std::uint64_t keys = 2u * static_cast<std::uint64_t>(entries);
  for (int i = 0; i < entries; ++i) {
    std::uint64_t v = rng.next();
    std::pmr::string name("symbol_name_", &pool);
    for (int k = 0; k < 8; ++k)
      name += static_cast<char>('a' + (v >> (k * 5)) % 26);
    by_name[name] += v;
    by_key.emplace(v % keys, name);
  }
  std::uint64_t acc = by_name.size();
  for (int i = 0; i < lookups; ++i) {
    auto it = by_key.find(rng.next() % keys);
    if (it == by_key.end()) continue;
    auto jt = by_name.find(it->second);
    if (jt != by_name.end()) acc += jt->second;
  }
  return acc;
}

std::uint64_t churn_nodes(std::vector<std::byte>& arena, int rounds) {
  std::pmr::monotonic_buffer_resource mono(arena.data(), arena.size(),
                                           std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&mono);
  std::pmr::map<std::uint64_t, std::pmr::vector<std::uint64_t>> m(&pool);
  XorShift rng{12345};
  std::uint64_t acc = 0;
  for (int r = 0; r < rounds; ++r) {
    std::uint64_t key = rng.next() % 20000;
    auto& bucket = m[key];
    bucket.push_back(static_cast<std::uint64_t>(r));
    if (bucket.size() > 4) m.erase(key);
    acc += m.size();
  }
  return acc;
}

/// The probe workload on `arena`; returns its wall time in ms.
double timed_workload(std::vector<std::byte>& arena, std::uint64_t* sink) {
  Clock::time_point t0 = Clock::now();
  for (int round = 0; round < 4; ++round)
    *sink += churn_strings(arena, 2000, 4000);
  *sink += churn_strings(arena, 8000, 8000);
  *sink += churn_nodes(arena, 30000);
  return ms_between(t0, Clock::now());
}

void set_affinity(std::initializer_list<int> cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);  // 0: the calling thread
}

}  // namespace

CpuPair pick_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  if (cpus.size() < 2) return {};
  return {cpus[cpus.size() - 2], cpus[cpus.size() - 1]};
}

void pin_thread(const CpuPair& cpus, bool both) {
  if (cpus.main < 0) return;
  if (both)
    set_affinity({cpus.main, cpus.other});
  else
    set_affinity({cpus.main});
}

Probe::Probe(const CpuPair& cpus) : main_arena_(kArenaBytes) {
  // Touch every page now so no probe pays first-touch page faults.
  std::memset(main_arena_.data(), 0, main_arena_.size());
  if (cpus.other < 0) return;
  other_arena_.resize(kArenaBytes);
  helper_ = std::thread([this, cpu = cpus.other] { helper_main(cpu); });
}

Probe::~Probe() {
  if (!helper_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  helper_.join();
}

void Probe::helper_main(int cpu) {
  set_affinity({cpu});
  std::uint64_t sink = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || requested_ > finished_; });
    if (stop_) return;
    lock.unlock();
    double ms = timed_workload(other_arena_, &sink);
    lock.lock();
    other_ms_ = ms;
    ++finished_;
    cv_.notify_all();
  }
}

std::size_t Probe::arena_bytes() const {
  return main_arena_.size() + other_arena_.size();
}

ProbeTimes Probe::run() {
  if (!helper_.joinable()) {
    double ms = timed_workload(main_arena_, &sink_);
    return {ms, ms};
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++requested_;
  }
  cv_.notify_all();
  ProbeTimes t;
  t.main_ms = timed_workload(main_arena_, &sink_);
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return finished_ == requested_; });
  t.other_ms = other_ms_;
  return t;
}

}  // namespace perfbench
