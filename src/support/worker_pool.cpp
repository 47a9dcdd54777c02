#include "support/worker_pool.h"

#include <algorithm>

#ifdef __linux__
#include <sched.h>
#endif

#include "support/assert.h"

namespace polaris {

namespace {

#ifdef __linux__
/// Moves the calling (new) worker onto the `k`-th CPU after `caller_cpu`
/// in `mask`, then widens it back to `mask`.  Linux starts a thread on
/// its parent's CPU, and a cpuset without load balancing never moves it,
/// so without this every worker would time-share the caller's CPU.  The
/// first affinity call migrates the thread; restoring the mask leaves a
/// balancing kernel free to move it again.
void place_worker(std::size_t k, int caller_cpu, const cpu_set_t& mask) {
  const int n = CPU_COUNT(&mask);
  if (caller_cpu < 0 || n < 2) return;
  int cpu = caller_cpu;
  for (std::size_t step = 0; step < k % static_cast<std::size_t>(n);) {
    cpu = (cpu + 1) % CPU_SETSIZE;
    if (CPU_ISSET(cpu, &mask)) ++step;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) == 0)
    sched_setaffinity(0, sizeof mask, &mask);
}
#endif

}  // namespace

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  batch_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int WorkerPool::threads_spawned() const {
  return static_cast<int>(threads_.size());
}

bool WorkerPool::pop_or_steal(std::size_t self, std::size_t n_participants,
                              std::size_t* out) {
  {
    Deque& own = *deques_[self];
    std::lock_guard<std::mutex> lk(own.mu);
    if (!own.tasks.empty()) {
      *out = own.tasks.front();
      own.tasks.pop_front();
      return true;
    }
  }
  for (std::size_t k = 1; k < n_participants; ++k) {
    Deque& victim = *deques_[(self + k) % n_participants];
    std::lock_guard<std::mutex> lk(victim.mu);
    if (!victim.tasks.empty()) {
      *out = victim.tasks.back();
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void WorkerPool::drain(std::size_t self, std::size_t n_participants,
                       const std::function<void(std::size_t)>& fn) {
  std::size_t task = 0;
  while (pop_or_steal(self, n_participants, &task)) {
    fn(task);
    std::lock_guard<std::mutex> lk(mu_);
    if (--remaining_ == 0) done_cv_.notify_all();
  }
}

void WorkerPool::worker_main(std::size_t self) {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t participants = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      batch_cv_.wait(lk, [&] { return shutdown_ || batch_ != seen; });
      if (shutdown_) return;
      seen = batch_;
      // Skip without touching the deques when the batch is already over (a
      // wake-up delivered after the caller drained everything itself) or
      // narrower than the pool (extra threads sit the batch out).
      if (fn_ == nullptr || self >= participants_) continue;
      fn = fn_;
      participants = participants_;
      ++draining_;
    }
    drain(self, participants, *fn);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--draining_ == 0) done_cv_.notify_all();
    }
  }
}

void WorkerPool::run(std::size_t n_tasks, int max_workers,
                     const std::function<void(std::size_t)>& fn) {
  if (n_tasks == 0) return;
  const std::size_t participants =
      std::min<std::size_t>(n_tasks,
                            static_cast<std::size_t>(
                                max_workers < 1 ? 1 : max_workers));
  if (participants <= 1) {
    for (std::size_t i = 0; i < n_tasks; ++i) fn(i);
    return;
  }
  while (deques_.size() < participants)
    deques_.push_back(std::make_unique<Deque>());
  // Participant 0 is this thread; each extra participant is one
  // persistent worker thread, spawned the first time a batch needs it.
  if (threads_.size() + 1 < participants) {
#ifdef __linux__
    // Worker k starts on the k-th CPU after this thread's (place_worker).
    cpu_set_t mask;
    CPU_ZERO(&mask);
    const int caller_cpu =
        sched_getaffinity(0, sizeof mask, &mask) == 0 ? sched_getcpu() : -1;
#endif
    while (threads_.size() + 1 < participants) {
      const std::size_t self = threads_.size() + 1;
#ifdef __linux__
      threads_.emplace_back([this, self, caller_cpu, mask] {
        place_worker(self, caller_cpu, mask);
        worker_main(self);
      });
#else
      threads_.emplace_back([this, self] { worker_main(self); });
#endif
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    p_assert_msg(fn_ == nullptr, "WorkerPool::run does not nest");
    // Round-robin deal: deterministic initial placement (stealing then
    // rebalances dynamically without affecting any task's output).
    for (std::size_t i = 0; i < n_tasks; ++i)
      deques_[i % participants]->tasks.push_back(i);
    fn_ = &fn;
    remaining_ = n_tasks;
    participants_ = participants;
    ++batch_;
  }
  batch_cv_.notify_all();
  drain(0, participants, fn);
  // Wait for completion *and* for every worker to leave the batch — only
  // then is it safe to retire fn and let the next batch refill the deques.
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return remaining_ == 0 && draining_ == 0; });
    fn_ = nullptr;
  }
}

}  // namespace polaris
