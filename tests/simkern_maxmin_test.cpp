#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "simkern/maxmin.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

using tir::sim::MaxMin;
using tir::sim::ResourceId;
using tir::sim::VarId;

TEST(MaxMin, SingleVariableGetsFullCapacity) {
  MaxMin m;
  const auto r = m.add_resource(100.0);
  const auto v = m.add_variable(1.0, {r});
  m.solve();
  EXPECT_DOUBLE_EQ(m.rate(v), 100.0);
}

TEST(MaxMin, EqualSharing) {
  MaxMin m;
  const auto r = m.add_resource(90.0);
  const auto a = m.add_variable(1.0, {r});
  const auto b = m.add_variable(1.0, {r});
  const auto c = m.add_variable(1.0, {r});
  m.solve();
  EXPECT_DOUBLE_EQ(m.rate(a), 30.0);
  EXPECT_DOUBLE_EQ(m.rate(b), 30.0);
  EXPECT_DOUBLE_EQ(m.rate(c), 30.0);
}

TEST(MaxMin, WeightedSharing) {
  MaxMin m;
  const auto r = m.add_resource(90.0);
  const auto a = m.add_variable(2.0, {r});
  const auto b = m.add_variable(1.0, {r});
  m.solve();
  EXPECT_DOUBLE_EQ(m.rate(a), 60.0);
  EXPECT_DOUBLE_EQ(m.rate(b), 30.0);
}

TEST(MaxMin, ClassicTandemNetwork) {
  // Two links; flow A crosses both, flows B and C use one link each.
  // Max-min: A and B share link 1 (50/50); C gets what remains of link 2.
  MaxMin m;
  const auto l1 = m.add_resource(100.0);
  const auto l2 = m.add_resource(1000.0);
  const auto a = m.add_variable(1.0, {l1, l2});
  const auto b = m.add_variable(1.0, {l1});
  const auto c = m.add_variable(1.0, {l2});
  m.solve();
  EXPECT_DOUBLE_EQ(m.rate(a), 50.0);
  EXPECT_DOUBLE_EQ(m.rate(b), 50.0);
  EXPECT_DOUBLE_EQ(m.rate(c), 950.0);
}

TEST(MaxMin, RemoveVariableRedistributes) {
  MaxMin m;
  const auto r = m.add_resource(100.0);
  const auto a = m.add_variable(1.0, {r});
  const auto b = m.add_variable(1.0, {r});
  m.solve();
  EXPECT_DOUBLE_EQ(m.rate(a), 50.0);
  m.remove_variable(a);
  EXPECT_TRUE(m.dirty());
  m.solve();
  EXPECT_DOUBLE_EQ(m.rate(b), 100.0);
  EXPECT_THROW(m.rate(a), tir::Error);
}

TEST(MaxMin, VariableIdsAreRecycled) {
  MaxMin m;
  const auto r = m.add_resource(10.0);
  const auto a = m.add_variable(1.0, {r});
  m.remove_variable(a);
  const auto b = m.add_variable(1.0, {r});
  EXPECT_EQ(a, b);
  m.solve();
  EXPECT_DOUBLE_EQ(m.rate(b), 10.0);
}

TEST(MaxMin, DuplicateResourceIdsCountOnce) {
  MaxMin m;
  const auto r = m.add_resource(100.0);
  const auto v = m.add_variable(1.0, {r, r, r});
  m.solve();
  EXPECT_DOUBLE_EQ(m.rate(v), 100.0);
}

TEST(MaxMin, SetCapacityMarksDirty) {
  MaxMin m;
  const auto r = m.add_resource(100.0);
  const auto v = m.add_variable(1.0, {r});
  m.solve();
  EXPECT_FALSE(m.dirty());
  m.set_capacity(r, 40.0);
  EXPECT_TRUE(m.dirty());
  m.solve();
  EXPECT_DOUBLE_EQ(m.rate(v), 40.0);
}

TEST(MaxMin, SolveChangedReportsNewAndMovedRates) {
  MaxMin m;
  const auto r = m.add_resource(100.0);
  // A lone variable is rated by its add, exactly: nothing is left to solve
  // or report.
  const auto a = m.add_variable(1.0, {r});
  EXPECT_EQ(m.rate(a), 100.0);
  EXPECT_FALSE(m.dirty());
  auto changed = m.solve_changed();
  EXPECT_TRUE(changed.empty());

  // A second variable halves a's rate: both are reported, the new one and
  // a, which moved from the rate its add gave it.
  const auto b = m.add_variable(1.0, {r});
  EXPECT_EQ(m.rate(b), 0.0);  // awaits the solve
  changed = m.solve_changed();
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_NE(std::find(changed.begin(), changed.end(), a), changed.end());
  EXPECT_NE(std::find(changed.begin(), changed.end(), b), changed.end());
  EXPECT_DOUBLE_EQ(m.rate(a), 50.0);
  EXPECT_DOUBLE_EQ(m.rate(b), 50.0);

  // Clean system: nothing to report.
  changed = m.solve_changed();
  EXPECT_TRUE(changed.empty());

  // b leaves: a, still on r, moves back and is the only one reported.
  m.remove_variable(b);
  changed = m.solve_changed();
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], a);
  EXPECT_EQ(m.rate(a), 100.0);

  // a leaves r empty: nothing to re-solve.
  m.remove_variable(a);
  EXPECT_FALSE(m.dirty());
}

TEST(MaxMin, SolverStatsAccumulate) {
  MaxMin m;
  const auto r = m.add_resource(100.0);
  const auto s = m.add_resource(100.0);
  // Lone variables are counted apart: they cost no solve.
  m.add_variable(1.0, {r});
  m.solve();
  EXPECT_EQ(m.solve_stats().lone_rates, 1u);
  EXPECT_EQ(m.solve_stats().solves, 0u);
  EXPECT_EQ(m.solve_stats().vars_touched, 0u);
  EXPECT_EQ(m.solve_stats().max_component_vars, 0u);
  const auto b = m.add_variable(1.0, {r});
  m.solve();
  EXPECT_EQ(m.solve_stats().solves, 1u);
  EXPECT_EQ(m.solve_stats().vars_touched, 2u);
  EXPECT_EQ(m.solve_stats().max_component_vars, 2u);
  m.add_variable(1.0, {s});
  m.solve();
  EXPECT_EQ(m.solve_stats().lone_rates, 2u);
  EXPECT_EQ(m.solve_stats().solves, 1u);
  m.remove_variable(b);
  m.solve();
  EXPECT_EQ(m.solve_stats().solves, 2u);
  EXPECT_EQ(m.solve_stats().vars_touched, 3u);
  EXPECT_EQ(m.solve_stats().last_component_vars, 1u);
  EXPECT_EQ(m.solve_stats().max_component_vars, 2u);
  EXPECT_EQ(m.solve_stats().lone_rates, 2u);
}

TEST(MaxMin, MaxComponentSizeCountsOneComponent) {
  // Two disjoint components of two variables each, filled by one solve:
  // the solve fills four variables, its largest component holds two.
  MaxMin m;
  const auto r = m.add_resource(100.0);
  const auto s = m.add_resource(100.0);
  for (int i = 0; i < 2; ++i) {
    m.add_variable(1.0, {r});
    m.add_variable(1.0, {s});
  }
  m.solve();
  EXPECT_EQ(m.solve_stats().solves, 1u);
  EXPECT_EQ(m.solve_stats().last_component_vars, 4u);
  EXPECT_EQ(m.solve_stats().max_component_vars, 2u);
}

TEST(MaxMin, RejectsInvalidArguments) {
  MaxMin m;
  const auto r = m.add_resource(10.0);
  EXPECT_THROW(m.add_resource(-1.0), tir::Error);
  EXPECT_THROW(m.add_variable(0.0, {r}), tir::Error);
  EXPECT_THROW(m.add_variable(1.0, {}), tir::Error);  // no resource
  EXPECT_THROW(m.add_variable(1.0, {99}), tir::Error);
  // The existing resource is certified already: the exact reference must
  // be chosen before it. Restating the mode is harmless.
  EXPECT_THROW(m.set_full_solve(true), tir::Error);
  m.set_full_solve(false);
}

// ---------------------------------------------------------------------------
// Property tests: on random systems, verify the max-min optimality
// conditions hard-coded in the header comment.
// ---------------------------------------------------------------------------

namespace {

struct RandomSystem {
  MaxMin m;
  std::vector<ResourceId> resources;
  std::vector<VarId> vars;
  std::vector<double> ceilings;  // narrowest capacity each variable crosses
  std::vector<std::vector<ResourceId>> uses;
};

RandomSystem make_random_system(std::uint64_t seed, int n_res, int n_vars,
                                bool full_solve = false) {
  RandomSystem s;
  s.m.set_full_solve(full_solve);
  tir::Rng rng(seed);
  for (int i = 0; i < n_res; ++i)
    s.resources.push_back(s.m.add_resource(rng.uniform(10.0, 1000.0)));
  for (int i = 0; i < n_vars; ++i) {
    std::vector<ResourceId> use;
    const int n_use = 1 + static_cast<int>(rng.next_below(3));
    for (int k = 0; k < n_use; ++k)
      use.push_back(
          s.resources[rng.next_below(static_cast<std::uint64_t>(n_res))]);
    const double weight = rng.uniform(0.5, 3.0);
    s.vars.push_back(s.m.add_variable(weight, use));
    double ceiling = MaxMin::kInf;
    for (const auto r : use) ceiling = std::min(ceiling, s.m.capacity(r));
    s.ceilings.push_back(ceiling);
    s.uses.push_back(std::move(use));
  }
  s.m.solve();
  return s;
}

}  // namespace

class MaxMinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinProperty, NoResourceOverCapacity) {
  auto s = make_random_system(GetParam(), 8, 40);
  for (const auto r : s.resources)
    EXPECT_LE(s.m.resource_load(r), s.m.capacity(r) * (1 + 1e-9));
}

TEST_P(MaxMinProperty, RatesArePositiveAndBounded) {
  auto s = make_random_system(GetParam(), 8, 40);
  for (std::size_t i = 0; i < s.vars.size(); ++i) {
    const double rate = s.m.rate(s.vars[i]);
    EXPECT_GT(rate, 0.0);
    EXPECT_LE(rate, s.ceilings[i] * (1 + 1e-9));
  }
}

TEST_P(MaxMinProperty, EveryVariableIsBlockedSomewhere) {
  // Max-min optimality: each variable touches at least one saturated
  // resource (otherwise its rate could be raised).
  auto s = make_random_system(GetParam(), 8, 40);
  for (std::size_t i = 0; i < s.vars.size(); ++i) {
    bool blocked = false;
    for (const auto r : s.uses[i]) {
      if (s.m.resource_load(r) >= s.m.capacity(r) * (1 - 1e-9)) {
        blocked = true;
        break;
      }
    }
    EXPECT_TRUE(blocked) << "variable " << i << " could still grow";
  }
}

TEST_P(MaxMinProperty, SolveIsDeterministic) {
  auto a = make_random_system(GetParam(), 6, 25);
  auto b = make_random_system(GetParam(), 6, 25);
  for (std::size_t i = 0; i < a.vars.size(); ++i)
    EXPECT_DOUBLE_EQ(a.m.rate(a.vars[i]), b.m.rate(b.vars[i]));
}

TEST_P(MaxMinProperty, FullSolveModeMatchesIncremental) {
  auto inc = make_random_system(GetParam(), 8, 40, /*full_solve=*/false);
  auto full = make_random_system(GetParam(), 8, 40, /*full_solve=*/true);
  for (std::size_t i = 0; i < inc.vars.size(); ++i) {
    const double a = inc.m.rate(inc.vars[i]);
    const double b = full.m.rate(full.vars[i]);
    EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::max(a, b)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233));
