#include "support/statistic.h"

#include "support/context.h"

namespace polaris {

Statistic::Statistic(const char* component, const char* name,
                     const char* desc)
    : component_(component), name_(name), desc_(desc) {
  std::vector<const Statistic*>& all = StatisticCatalog::mutable_all();
  id_ = all.size();
  all.push_back(this);
}

Statistic& Statistic::operator++() { return *this += 1; }

Statistic& Statistic::operator+=(std::uint64_t n) {
  if (CompileContext* ctx = CompileContext::current())
    ctx->stats().bump(*this, n);
  return *this;
}

const std::vector<const Statistic*>& StatisticCatalog::all() {
  return mutable_all();
}

std::vector<const Statistic*>& StatisticCatalog::mutable_all() {
  static std::vector<const Statistic*> catalog;
  return catalog;
}

StatisticRegistry::StatisticRegistry()
    : values_(StatisticCatalog::size(), 0) {}

void StatisticRegistry::bump(const Statistic& s, std::uint64_t n) {
  // The catalog is fixed before main(), but a registry constructed during
  // static initialization could predate later-registered counters.
  if (s.id() >= values_.size()) values_.resize(StatisticCatalog::size(), 0);
  values_[s.id()] += n;
}

std::uint64_t StatisticRegistry::value(const Statistic& s) const {
  return s.id() < values_.size() ? values_[s.id()] : 0;
}

std::vector<StatisticValue> StatisticRegistry::values() const {
  std::vector<StatisticValue> out;
  const auto& catalog = StatisticCatalog::all();
  out.reserve(catalog.size());
  for (const Statistic* s : catalog)
    out.push_back({s->component(), s->name(), s->desc(), value(*s)});
  return out;
}

StatisticSnapshot StatisticRegistry::snapshot() const {
  StatisticSnapshot snap = values_;
  snap.resize(StatisticCatalog::size(), 0);
  return snap;
}

std::vector<StatisticValue> StatisticRegistry::delta_since(
    const StatisticSnapshot& base) const {
  std::vector<StatisticValue> out;
  for (const Statistic* s : StatisticCatalog::all()) {
    const std::uint64_t now = value(*s);
    const std::uint64_t was = s->id() < base.size() ? base[s->id()] : 0;
    if (now != was)
      out.push_back({s->component(), s->name(), s->desc(), now - was});
  }
  return out;
}

void StatisticRegistry::merge(const StatisticRegistry& shard) {
  if (shard.values_.size() > values_.size())
    values_.resize(shard.values_.size(), 0);
  for (std::size_t i = 0; i < shard.values_.size(); ++i)
    values_[i] += shard.values_[i];
}

void StatisticRegistry::reset() { values_.assign(values_.size(), 0); }

}  // namespace polaris
