// ResourceGovernor unit tests: fuel accounting, symbolic ceilings, the
// degradation-event record (aggregation, mark/truncate rollback, shard
// absorption), shard fuel shares, and the degraded_options ladder rungs.
#include <gtest/gtest.h>

#include "support/context.h"
#include "support/governor.h"
#include "support/options.h"

namespace polaris {
namespace {

TEST(Governor, InactiveByDefaultAndNullWithoutContext) {
  ResourceGovernor g;
  EXPECT_FALSE(g.active());
  // No ceiling installed: check sites are free no-ops.
  g.charge(1000000);
  g.check_poly_terms(1u << 20);
  g.check_atoms(1u << 20);
  EXPECT_EQ(ResourceGovernor::current(), nullptr);
}

TEST(Governor, CurrentReturnsActiveBoundGovernor) {
  CompileContext cc;
  CompileContext::Scope scope(&cc);
  // Bound but inactive: current() still reports "ungoverned".
  EXPECT_EQ(ResourceGovernor::current(), nullptr);
  GovernorLimits limits;
  limits.max_poly_terms = 8;
  cc.governor().configure(limits);
  EXPECT_EQ(ResourceGovernor::current(), &cc.governor());
  cc.governor().configure(GovernorLimits{});
  EXPECT_EQ(ResourceGovernor::current(), nullptr);
}

TEST(Governor, FuelChargesUntilExhaustedThenEveryChargeThrows) {
  ResourceGovernor g;
  GovernorLimits limits;
  limits.fuel = 100;
  g.configure(limits);
  g.charge(50);
  EXPECT_EQ(g.fuel_spent(), 50u);
  EXPECT_EQ(g.fuel_remaining(), 50u);
  EXPECT_THROW(g.charge(50), ResourceBlowup);
  // An exhausted meter stays exhausted: later ladder attempts must trip
  // immediately so the degradation point is deterministic.
  EXPECT_THROW(g.charge(1), ResourceBlowup);
  EXPECT_EQ(g.fuel_remaining(), 0u);
  try {
    g.charge(1);
    FAIL() << "expected ResourceBlowup";
  } catch (const ResourceBlowup& b) {
    EXPECT_EQ(b.trigger(), GovernorTrigger::CompileFuel);
    EXPECT_NE(std::string(b.what()).find("compile-fuel"), std::string::npos);
  }
}

TEST(Governor, ReconfigureKeepsTheMeterRunning) {
  ResourceGovernor g;
  GovernorLimits limits;
  limits.fuel = 100;
  g.configure(limits);
  g.charge(60);
  // A ladder retry reconfigures mid-compile; spent fuel must survive.
  g.configure(limits);
  EXPECT_EQ(g.fuel_spent(), 60u);
  EXPECT_THROW(g.charge(40), ResourceBlowup);
}

TEST(Governor, PolyAndAtomCeilingsThrowWithTheirTriggers) {
  ResourceGovernor g;
  GovernorLimits limits;
  limits.max_poly_terms = 4;
  limits.max_atoms = 10;
  g.configure(limits);
  g.check_poly_terms(4);  // at the ceiling: fine
  g.check_atoms(10);
  try {
    g.check_poly_terms(5);
    FAIL() << "expected ResourceBlowup";
  } catch (const ResourceBlowup& b) {
    EXPECT_EQ(b.trigger(), GovernorTrigger::PolyTerms);
  }
  try {
    g.check_atoms(11);
    FAIL() << "expected ResourceBlowup";
  } catch (const ResourceBlowup& b) {
    EXPECT_EQ(b.trigger(), GovernorTrigger::AtomCeiling);
  }
}

TEST(Governor, ShardFuelShareSplitsRemainingAndFloorsAtOne) {
  ResourceGovernor g;
  EXPECT_EQ(g.shard_fuel_share(4), 0u);  // no limit: shards unlimited
  GovernorLimits limits;
  limits.fuel = 100;
  g.configure(limits);
  EXPECT_EQ(g.shard_fuel_share(4), 25u);
  g.charge(60);
  EXPECT_EQ(g.shard_fuel_share(4), 10u);
  // Exhausted parent: shards get 1 tick (exhausted), never unlimited.
  try {
    g.charge(100);
  } catch (const ResourceBlowup&) {
  }
  EXPECT_EQ(g.shard_fuel_share(4), 1u);
}

TEST(Governor, BailoutAggregatesPerScopeSiteAndTrigger) {
  ResourceGovernor g;
  g.set_scope("doall", "olda");
  EXPECT_TRUE(g.note_bailout("rangetest", GovernorTrigger::PolyTerms));
  EXPECT_FALSE(g.note_bailout("rangetest", GovernorTrigger::PolyTerms));
  EXPECT_FALSE(g.note_bailout("rangetest", GovernorTrigger::PolyTerms));
  ASSERT_EQ(g.events().size(), 1u);
  EXPECT_EQ(g.events()[0].count, 3u);
  EXPECT_EQ(g.events()[0].action, "conservative-bailout");
  EXPECT_EQ(g.events()[0].pass, "doall");
  EXPECT_EQ(g.events()[0].unit, "olda");
  // A different site, trigger, or scope starts a new event.
  EXPECT_TRUE(g.note_bailout("ddtest", GovernorTrigger::PolyTerms));
  EXPECT_TRUE(g.note_bailout("rangetest", GovernorTrigger::CompileFuel));
  g.set_scope("doall", "intgrl");
  EXPECT_TRUE(g.note_bailout("rangetest", GovernorTrigger::PolyTerms));
  EXPECT_EQ(g.events().size(), 4u);
}

TEST(Governor, MetersCarryFuelAndTripsIntoAnotherGovernor) {
  constexpr int kPolyTerms = static_cast<int>(GovernorTrigger::PolyTerms);
  ResourceGovernor g;
  g.charge(30);
  g.note_trip(GovernorTrigger::PolyTerms);
  const GovernorMeters before = g.meters();
  g.charge(12);
  g.note_trip(GovernorTrigger::PolyTerms);
  const GovernorMeters attempt = g.meters() - before;
  EXPECT_EQ(attempt.fuel, 12u);
  EXPECT_EQ(attempt.trips[kPolyTerms], 1u);

  ResourceGovernor replay;
  replay.add_meters(attempt);
  EXPECT_EQ(replay.fuel_spent(), 12u);
  EXPECT_EQ(replay.meters().trips[kPolyTerms], 1u);
  replay.add_meters({.fuel = ~std::uint64_t{0}});
  EXPECT_EQ(replay.fuel_spent(), ~std::uint64_t{0});  // saturates
}

TEST(Governor, AbsorbAppendsShardEventsAndFoldsFuel) {
  ResourceGovernor parent;
  GovernorLimits limits;
  limits.fuel = 1000;
  parent.configure(limits);
  parent.charge(100);

  ResourceGovernor shard;
  GovernorLimits shard_limits;
  shard_limits.fuel = 500;
  shard.configure(shard_limits);
  shard.charge(40);
  shard.set_scope("doall", "unit2");
  shard.note_bailout("rangetest", GovernorTrigger::CompileFuel);

  parent.absorb(shard);
  EXPECT_EQ(parent.fuel_spent(), 140u);
  ASSERT_EQ(parent.events().size(), 1u);
  EXPECT_EQ(parent.events()[0].unit, "unit2");
  EXPECT_TRUE(shard.events().empty());
}

TEST(Governor, ConservativeBailoutEmitsOneRemarkPerRun) {
  CompileContext cc;
  CompileContext::Scope scope(&cc);
  cc.governor().set_scope("doall", "olda");
  const ResourceBlowup blow(GovernorTrigger::PolyTerms, "grew too big");
  note_conservative_bailout("rangetest", blow);
  note_conservative_bailout("rangetest", blow);
  ASSERT_EQ(cc.governor().events().size(), 1u);
  EXPECT_EQ(cc.governor().events()[0].count, 2u);
  int remarks = 0;
  for (const Diagnostic* d : cc.diags().remarks())
    if (d->reason == "resource-bailout") ++remarks;
  EXPECT_EQ(remarks, 1);
}

TEST(Governor, LimitsFromOptionsConvertsBudgetToFuel) {
  Options o;
  GovernorLimits off = limits_from_options(o);
  EXPECT_EQ(off.fuel, 0u);
  EXPECT_EQ(off.max_poly_terms, 0u);
  EXPECT_EQ(off.max_atoms, 0u);

  o.compile_budget_ms = 2.0;
  o.max_poly_terms = 32;
  o.max_atoms_per_unit = 64;
  GovernorLimits on = limits_from_options(o);
  EXPECT_EQ(on.fuel, 2 * kFuelTicksPerMs);
  EXPECT_EQ(on.max_poly_terms, 32u);
  EXPECT_EQ(on.max_atoms, 64u);

  // A positive budget below one tick still installs a (1-tick) limit.
  Options tiny;
  tiny.compile_budget_ms = 1e-9;
  EXPECT_GE(limits_from_options(tiny).fuel, 1u);
}

TEST(Governor, DegradedOptionsRungsOnlyEverGetCheaper) {
  const Options base = Options::polaris();
  const Options full = degraded_options(base, 0);
  const Options reduced = degraded_options(base, 1);
  const Options floor = degraded_options(base, 2);

  EXPECT_EQ(full.max_loop_permutations, base.max_loop_permutations);
  EXPECT_EQ(full.max_simplify_depth, base.max_simplify_depth);

  EXPECT_LT(reduced.max_loop_permutations, base.max_loop_permutations);
  EXPECT_GT(reduced.max_simplify_depth, 0);
  EXPECT_TRUE(reduced.range_test);

  EXPECT_FALSE(floor.range_test);
  EXPECT_LE(floor.max_loop_permutations, reduced.max_loop_permutations);
  EXPECT_LE(floor.max_simplify_depth, reduced.max_simplify_depth);

  // Correctness-relevant switches are never touched by any rung.
  for (int rung = 0; rung < kLadderRungs; ++rung) {
    const Options o = degraded_options(base, rung);
    EXPECT_EQ(o.reductions, base.reductions);
    EXPECT_EQ(o.scalar_privatization, base.scalar_privatization);
    EXPECT_EQ(o.fault_recovery, base.fault_recovery);
    EXPECT_EQ(o.jobs, base.jobs);
  }
}

TEST(Governor, LadderRungNamesAreClosed) {
  EXPECT_STREQ(ladder_rung_name(0), "full");
  EXPECT_STREQ(ladder_rung_name(1), "reduced");
  EXPECT_STREQ(ladder_rung_name(2), "floor");
}

}  // namespace
}  // namespace polaris
