// LLVM-style statistic counters, with per-compile storage.
//
// Analyses scattered ad-hoc counters through diagnostics strings; this
// layer makes them first-class: a POLARIS_STATISTIC at namespace scope in
// a .cpp defines a named counter *descriptor* that registers itself once
// in the immutable StatisticCatalog.  The counter's VALUE is not global:
// it lives in the StatisticRegistry owned by the CompileContext of the
// compilation (or unit shard) the current thread is working on, so
// concurrent per-unit pipelines count independently and a `++counter`
// outside any compilation is a no-op.
//
// Values are monotonically increasing within one registry.  A failed
// pass leaves no orphan counts because its unit shard's registry is
// discarded with the shard; surviving shard registries are summed into
// the parent compile's registry in unit order when a unit group finishes
// (CompileContext::merge_shard).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace polaris {

class StatisticRegistry;

/// One registered counter descriptor.  Construct only via
/// POLARIS_STATISTIC at namespace scope: registration happens during
/// static initialization (single-threaded, before main), after which the
/// catalog never changes — the descriptors carry no mutable state.
class Statistic {
 public:
  Statistic(const char* component, const char* name, const char* desc);
  Statistic(const Statistic&) = delete;
  Statistic& operator=(const Statistic&) = delete;

  /// Bumps this counter in the CompileContext bound to the current thread
  /// (no-op when the thread is not inside a compilation).
  Statistic& operator++();
  Statistic& operator+=(std::uint64_t n);

  std::size_t id() const { return id_; }
  const char* component() const { return component_; }
  const char* name() const { return name_; }
  const char* desc() const { return desc_; }

 private:
  const char* component_;
  const char* name_;
  const char* desc_;
  std::size_t id_;  ///< dense index into StatisticCatalog / registry values
};

/// The immutable process-wide list of counter descriptors, in registration
/// order.  Append-only during static initialization; read-only afterwards,
/// so concurrent compilations may consult it without synchronization.
class StatisticCatalog {
 public:
  static const std::vector<const Statistic*>& all();
  static std::size_t size() { return all().size(); }

 private:
  friend class Statistic;
  static std::vector<const Statistic*>& mutable_all();
};

/// A named counter value (registry dump / per-compilation delta).
struct StatisticValue {
  std::string component;
  std::string name;
  std::string desc;
  std::uint64_t value = 0;
};

/// Raw values of every cataloged counter at one instant, in catalog
/// order.
using StatisticSnapshot = std::vector<std::uint64_t>;

/// Per-compilation (or per-unit-shard) counter values, indexed by
/// Statistic::id().  Owned by a CompileContext; never shared between
/// threads.
class StatisticRegistry {
 public:
  StatisticRegistry();

  void bump(const Statistic& s, std::uint64_t n = 1);
  std::uint64_t value(const Statistic& s) const;

  /// Current value of every cataloged counter (including zeros).
  std::vector<StatisticValue> values() const;

  StatisticSnapshot snapshot() const;

  /// Per-counter deltas `current - base`, non-zero entries only, in
  /// catalog order.  `base` must be an earlier snapshot of this registry.
  std::vector<StatisticValue> delta_since(const StatisticSnapshot& base) const;

  /// Adds every counter of `shard` into this registry (the deterministic
  /// unit-order shard merge).
  void merge(const StatisticRegistry& shard);

  /// Zeroes every counter (test isolation).
  void reset();

  std::size_t size() const { return values_.size(); }

 private:
  std::vector<std::uint64_t> values_;
};

}  // namespace polaris

/// Defines a file-local statistic counter `NAME` under `COMPONENT` (a
/// string literal naming the pass or analysis).  Use at namespace scope:
///
///   POLARIS_STATISTIC("rangetest", pairs_proven,
///                     "pairs proven independent by the range test");
///   ...
///   ++pairs_proven;   // counts into the current thread's CompileContext
#define POLARIS_STATISTIC(COMPONENT, NAME, DESC) \
  static ::polaris::Statistic NAME(COMPONENT, #NAME, DESC)
