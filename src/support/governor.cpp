#include "support/governor.h"

#include <algorithm>
#include <sstream>

#include "support/context.h"
#include "support/options.h"

namespace polaris {

const char* to_string(GovernorTrigger t) {
  switch (t) {
    case GovernorTrigger::CompileFuel: return "compile-fuel";
    case GovernorTrigger::PolyTerms: return "poly-terms";
    case GovernorTrigger::AtomCeiling: return "atom-ceiling";
  }
  return "?";
}

GovernorMeters operator-(const GovernorMeters& a, const GovernorMeters& b) {
  GovernorMeters d;
  d.fuel = a.fuel - b.fuel;
  for (int i = 0; i < kGovernorTriggers; ++i)
    d.trips[i] = a.trips[i] - b.trips[i];
  return d;
}

GovernorLimits limits_from_options(const Options& opts) {
  GovernorLimits l;
  if (opts.compile_budget_ms > 0.0)
    l.fuel = static_cast<std::uint64_t>(opts.compile_budget_ms *
                                        static_cast<double>(kFuelTicksPerMs));
  if (l.fuel == 0 && opts.compile_budget_ms > 0.0) l.fuel = 1;
  if (opts.max_poly_terms > 0)
    l.max_poly_terms = static_cast<std::size_t>(opts.max_poly_terms);
  if (opts.max_atoms_per_unit > 0)
    l.max_atoms = static_cast<std::size_t>(opts.max_atoms_per_unit);
  return l;
}

const char* ladder_rung_name(int rung) {
  switch (rung) {
    case 0: return "full";
    case 1: return "reduced";
    case 2: return "floor";
  }
  return "?";
}

Options degraded_options(const Options& base, int rung) {
  Options o = base;
  if (rung <= 0) return o;
  if (rung == 1) {
    // "reduced": quarter the permutation search, bound simplifier
    // recursion.
    o.max_loop_permutations = std::max(1, base.max_loop_permutations / 4);
    o.max_simplify_depth = base.max_simplify_depth > 0
                               ? std::min(base.max_simplify_depth, 16)
                               : 16;
    return o;
  }
  // "floor": linear dependence tests only (the "current compiler"
  // baseline shape), minimal search everywhere.  Still correct — every
  // switch here only forgoes optimization.
  o.range_test = false;
  o.max_loop_permutations = 1;
  o.max_simplify_depth = 4;
  return o;
}

void ResourceGovernor::configure(const GovernorLimits& limits) {
  fuel_limit_ = limits.fuel;
  max_poly_terms_ = limits.max_poly_terms;
  max_atoms_ = limits.max_atoms;
  recompute_active();
}

void ResourceGovernor::set_simplify_depth_limit(int depth) {
  simplify_depth_ = depth;
  recompute_active();
}

void ResourceGovernor::recompute_active() {
  active_ = fuel_limit_ != 0 || max_poly_terms_ != 0 || max_atoms_ != 0 ||
            simplify_depth_ != 0;
}

ResourceGovernor* ResourceGovernor::current() {
  CompileContext* cc = CompileContext::current();
  if (cc == nullptr) return nullptr;
  ResourceGovernor& g = cc->governor();
  return g.active() ? &g : nullptr;
}

void ResourceGovernor::note_trip(GovernorTrigger t) {
  ++meters_.trips[static_cast<int>(t)];
}

namespace {
std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return a + b < a ? ~std::uint64_t{0} : a + b;
}
}  // namespace

void ResourceGovernor::charge(std::uint64_t ticks) {
  meters_.fuel = saturating_add(meters_.fuel, ticks);
  // Every charge past the limit throws, not just the first crossing: an
  // exhausted shard stays exhausted, so each later ladder attempt trips
  // immediately and deterministically.
  if (fuel_limit_ != 0 && meters_.fuel >= fuel_limit_) {
    note_trip(GovernorTrigger::CompileFuel);
    std::ostringstream os;
    os << "compile fuel exhausted (" << meters_.fuel << " of " << fuel_limit_
       << " ticks)";
    throw ResourceBlowup(GovernorTrigger::CompileFuel, os.str());
  }
}

void ResourceGovernor::check_poly_terms(std::size_t terms) {
  if (max_poly_terms_ != 0 && terms > max_poly_terms_) {
    note_trip(GovernorTrigger::PolyTerms);
    std::ostringstream os;
    os << "polynomial grew to " << terms << " terms, ceiling "
       << max_poly_terms_;
    throw ResourceBlowup(GovernorTrigger::PolyTerms, os.str());
  }
}

void ResourceGovernor::check_atoms(std::size_t atoms) {
  if (max_atoms_ != 0 && atoms > max_atoms_) {
    note_trip(GovernorTrigger::AtomCeiling);
    std::ostringstream os;
    os << "atom table grew to " << atoms << " atoms, ceiling " << max_atoms_;
    throw ResourceBlowup(GovernorTrigger::AtomCeiling, os.str());
  }
}

std::uint64_t ResourceGovernor::shard_fuel_share(std::size_t n_units) const {
  if (fuel_limit_ == 0) return 0;
  if (n_units == 0) n_units = 1;
  const std::uint64_t share = fuel_remaining() / n_units;
  return share == 0 ? 1 : share;
}

void ResourceGovernor::add_meters(const GovernorMeters& m) {
  meters_.fuel = saturating_add(meters_.fuel, m.fuel);
  for (int i = 0; i < kGovernorTriggers; ++i) meters_.trips[i] += m.trips[i];
}

void ResourceGovernor::set_scope(const std::string& pass,
                                 const std::string& unit) {
  scope_pass_ = pass;
  scope_unit_ = unit;
}

void ResourceGovernor::clear_scope() {
  scope_pass_.clear();
  scope_unit_.clear();
}

void ResourceGovernor::record_event(DegradationEvent ev) {
  events_.push_back(std::move(ev));
}

bool ResourceGovernor::note_bailout(const char* site,
                                    GovernorTrigger trigger) {
  const char* trig = polaris::to_string(trigger);
  // Aggregate into the most recent matching event: bail-outs repeat
  // per-query (one hostile ceiling can trip hundreds of pair tests), and
  // one counted event per (pass, unit, site, trigger) run keeps the
  // report readable and byte-deterministic.
  for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
    if (it->action == "conservative-bailout" && it->site == site &&
        it->trigger == trig && it->pass == scope_pass_ &&
        it->unit == scope_unit_) {
      ++it->count;
      return false;
    }
  }
  DegradationEvent ev;
  ev.pass = scope_pass_;
  ev.unit = scope_unit_;
  ev.trigger = trig;
  ev.action = "conservative-bailout";
  ev.site = site;
  ev.detail = std::string(site) + " returned the conservative answer";
  events_.push_back(std::move(ev));
  return true;
}

void note_conservative_bailout(const char* site, const ResourceBlowup& b) {
  CompileContext* cc = CompileContext::current();
  if (cc == nullptr) return;
  ResourceGovernor& g = cc->governor();
  if (!g.note_bailout(site, b.trigger())) return;
  cc->diags().remark(
      RemarkKind::Analysis, "governor",
      g.scope_pass().empty() ? std::string(site)
                             : g.scope_pass() + "/" + g.scope_unit(),
      "resource-bailout",
      std::string(site) + " hit a resource ceiling and returned the "
          "conservative answer: " + b.detail(),
      {{"site", site}, {"trigger", polaris::to_string(b.trigger())}});
}

void ResourceGovernor::absorb(ResourceGovernor& shard) {
  add_meters(shard.meters_);
  for (DegradationEvent& ev : shard.events_)
    events_.push_back(std::move(ev));
  shard.events_.clear();
}

}  // namespace polaris
