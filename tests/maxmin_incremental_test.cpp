// Differential tests of the incremental max-min solver: randomized
// add/remove/set_capacity sequences must produce the same rates as (a) a
// twin solver running in full-solve mode over the same op stream and (b) a
// solver rebuilt from scratch from the current system, and the changed-set
// reporting must be exact (sound and complete). Engine-level scenarios —
// including the degrade-link / degrade-host fault paths — must simulate to
// the same result with `full_solve` on and off.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "simkern/engine.hpp"
#include "simkern/maxmin.hpp"
#include "support/rng.hpp"

using namespace tir;
using tir::sim::MaxMin;
using tir::sim::ResourceId;
using tir::sim::VarId;

namespace {

constexpr double kTol = 1e-9;

void expect_close(double a, double b, const char* what) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  EXPECT_NEAR(a, b, kTol * scale) << what;
}

/// Mirror of one solver system, used to (a) drive a full-solve twin with the
/// identical op stream (ids match because both recycle the same way) and
/// (b) rebuild a fresh reference solver from the current state.
struct SystemState {
  std::vector<double> capacities;
  struct LiveVar {
    VarId id;
    double weight;
    double bound;
    std::vector<ResourceId> resources;
  };
  std::map<VarId, LiveVar> live;  // ordered: deterministic rebuild order
};

/// Rebuilds a fresh solver from `state` and checks every live rate of `m`
/// against it.
void check_against_rebuild(MaxMin& m, const SystemState& state) {
  MaxMin fresh;
  for (const double c : state.capacities) fresh.add_resource(c);
  std::map<VarId, VarId> to_fresh;
  for (const auto& [id, v] : state.live)
    to_fresh[id] = fresh.add_variable(v.weight, v.resources, v.bound);
  fresh.solve();
  for (const auto& [id, v] : state.live)
    expect_close(m.rate(id), fresh.rate(to_fresh[id]), "vs fresh rebuild");
}

}  // namespace

TEST(MaxMinIncremental, RandomOpStreamMatchesFullSolveAndRebuild) {
  for (const std::uint64_t seed : {7ull, 42ull, 1234ull, 90210ull}) {
    Rng rng(seed);
    MaxMin inc;
    MaxMin full;
    full.set_full_solve(true);
    ASSERT_TRUE(full.full_solve());
    SystemState state;

    const int n_res = 12;
    for (int i = 0; i < n_res; ++i) {
      const double cap = rng.uniform(10.0, 1000.0);
      inc.add_resource(cap);
      full.add_resource(cap);
      state.capacities.push_back(cap);
    }

    // Rates already solved before a mutation must be preserved for
    // untouched vars; track them to verify changed-set soundness.
    std::map<VarId, double> last_rates;

    for (int step = 0; step < 400; ++step) {
      const double dice = rng.next_double();
      if (state.live.empty() || dice < 0.45) {
        // Add a variable (sometimes bound-only).
        std::vector<ResourceId> use;
        const int n_use = static_cast<int>(rng.next_below(4));  // 0..3
        for (int k = 0; k < n_use; ++k)
          use.push_back(static_cast<ResourceId>(rng.next_below(n_res)));
        const double bound = (use.empty() || rng.next_double() < 0.3)
                                 ? rng.uniform(1.0, 300.0)
                                 : MaxMin::kInf;
        const double weight = rng.uniform(0.5, 3.0);
        const VarId a = inc.add_variable(weight, use, bound);
        const VarId b = full.add_variable(weight, use, bound);
        ASSERT_EQ(a, b) << "id recycling diverged";
        state.live[a] = {a, weight, bound, use};
      } else if (dice < 0.75) {
        // Remove a random live variable.
        auto it = state.live.begin();
        std::advance(it, static_cast<long>(rng.next_below(state.live.size())));
        inc.remove_variable(it->first);
        full.remove_variable(it->first);
        last_rates.erase(it->first);
        state.live.erase(it);
      } else {
        const auto r = static_cast<ResourceId>(rng.next_below(n_res));
        const double cap = rng.uniform(10.0, 1000.0);
        inc.set_capacity(r, cap);
        full.set_capacity(r, cap);
        state.capacities[static_cast<std::size_t>(r)] = cap;
      }

      const auto changed = inc.solve_changed();
      full.solve();

      // Incremental rates match the full-solve twin.
      for (const auto& [id, v] : state.live)
        expect_close(inc.rate(id), full.rate(id), "vs full-solve twin");

      // Changed-set exactness: a var is reported iff its rate moved.
      std::vector<bool> reported(64, false);
      for (const VarId v : changed) {
        if (static_cast<std::size_t>(v) >= reported.size())
          reported.resize(static_cast<std::size_t>(v) + 1, false);
        reported[static_cast<std::size_t>(v)] = true;
      }
      for (const auto& [id, v] : state.live) {
        const auto it = last_rates.find(id);
        const bool in_changed = static_cast<std::size_t>(id) <
                                    reported.size() &&
                                reported[static_cast<std::size_t>(id)];
        if (it != last_rates.end() && !in_changed)
          EXPECT_EQ(inc.rate(id), it->second)
              << "var " << id << " moved without being reported";
        if (it != last_rates.end() && in_changed)
          EXPECT_NE(inc.rate(id), it->second)
              << "var " << id << " reported changed but did not move";
        last_rates[id] = inc.rate(id);
      }

      if (step % 50 == 49) check_against_rebuild(inc, state);
    }
    check_against_rebuild(inc, state);
    EXPECT_EQ(inc.active_variable_count(), state.live.size());
  }
}

TEST(MaxMinIncremental, DisjointComponentsAreNotTouched) {
  MaxMin m;
  const auto ra = m.add_resource(100.0);
  const auto rb = m.add_resource(100.0);
  const auto a1 = m.add_variable(1.0, {ra});
  const auto a2 = m.add_variable(1.0, {ra});
  const auto b1 = m.add_variable(1.0, {rb});
  m.solve();
  EXPECT_DOUBLE_EQ(m.rate(b1), 100.0);

  const auto before = m.solve_stats().vars_touched;
  m.remove_variable(a1);
  const auto changed = m.solve_changed();
  // Only component A was re-solved; b1 is neither touched nor reported.
  EXPECT_EQ(m.solve_stats().vars_touched - before, 1u);
  EXPECT_EQ(m.solve_stats().last_component_vars, 1u);
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], a2);
  EXPECT_DOUBLE_EQ(m.rate(a2), 100.0);
  EXPECT_DOUBLE_EQ(m.rate(b1), 100.0);
}

TEST(MaxMinIncremental, SetCapacityResolvesOnlyThatComponent) {
  MaxMin m;
  const auto ra = m.add_resource(100.0);
  const auto rb = m.add_resource(100.0);
  const auto a = m.add_variable(1.0, {ra});
  const auto b = m.add_variable(1.0, {rb});
  m.solve();

  m.set_capacity(rb, 50.0);
  const auto changed = m.solve_changed();
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], b);
  EXPECT_DOUBLE_EQ(m.rate(b), 50.0);
  EXPECT_DOUBLE_EQ(m.rate(a), 100.0);

  // A no-op capacity write does not dirty the system.
  m.set_capacity(rb, 50.0);
  EXPECT_FALSE(m.dirty());
}

TEST(MaxMinIncremental, SharedResourceMergesComponents) {
  // a uses {r1}, b uses {r1, r2}, c uses {r2}: removing a must propagate
  // through r1 -> b -> r2 -> c (the classic tandem ripple).
  MaxMin m;
  const auto r1 = m.add_resource(100.0);
  const auto r2 = m.add_resource(120.0);
  (void)m.add_variable(1.0, {r1});
  const auto b = m.add_variable(1.0, {r1, r2});
  const auto c = m.add_variable(1.0, {r2});
  m.solve();
  EXPECT_DOUBLE_EQ(m.rate(b), 50.0);
  EXPECT_DOUBLE_EQ(m.rate(c), 70.0);

  const auto a2 = m.add_variable(3.0, {r1});
  const auto changed = m.solve_changed();
  // r1 now splits 5 ways by weight (share 20): a, b and the new a2 all
  // move, and b's shrink frees r2 capacity for c — every var is reported.
  EXPECT_EQ(changed.size(), 4u);
  EXPECT_DOUBLE_EQ(m.rate(b), 20.0);
  EXPECT_DOUBLE_EQ(m.rate(a2), 60.0);
  EXPECT_DOUBLE_EQ(m.rate(c), 100.0);
}

TEST(MaxMinIncremental, IntrusiveRemovalSurvivesHeavyChurn) {
  // Many interleaved adds/removes with id recycling: the bidirectional
  // membership lists must stay consistent (exercised hard under ASan).
  Rng rng(99);
  MaxMin m;
  SystemState state;
  for (int i = 0; i < 6; ++i) {
    const double cap = rng.uniform(50.0, 500.0);
    m.add_resource(cap);
    state.capacities.push_back(cap);
  }
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 20; ++i) {
      std::vector<ResourceId> use;
      const int n_use = 1 + static_cast<int>(rng.next_below(3));
      for (int k = 0; k < n_use; ++k)
        use.push_back(static_cast<ResourceId>(rng.next_below(6)));
      const double w = rng.uniform(0.5, 2.0);
      const VarId id = m.add_variable(w, use);
      state.live[id] = {id, w, MaxMin::kInf, use};
    }
    while (state.live.size() > 10) {
      auto it = state.live.begin();
      std::advance(it, static_cast<long>(rng.next_below(state.live.size())));
      m.remove_variable(it->first);
      state.live.erase(it);
    }
    m.solve();
  }
  check_against_rebuild(m, state);
}

// ---------------------------------------------------------------------------
// Hub groups: unit-weight "backbone" systems — one resource on every
// variable plus private per-variable resources — with capacities that make
// the backbone bind. Hub-group rates must equal a fresh rebuild bit for
// bit, and a variable moved iff it or its group was reported.
// ---------------------------------------------------------------------------

namespace {

using tir::sim::GroupId;

/// Drives an incremental solver and a full-solve twin with one op stream,
/// mirroring the system so it can be rebuilt from scratch.
class HubHarness {
 public:
  HubHarness() { full_.set_full_solve(true); }

  ResourceId add_resource(double cap) {
    full_.add_resource(cap);
    state_.capacities.push_back(cap);
    return inc_.add_resource(cap);
  }
  VarId add(std::vector<ResourceId> use, double weight = 1.0,
            double bound = MaxMin::kInf) {
    const VarId a = inc_.add_variable(weight, use, bound);
    EXPECT_EQ(a, full_.add_variable(weight, use, bound));
    state_.live[a] = {a, weight, bound, std::move(use)};
    return a;
  }
  void remove(VarId v) {
    inc_.remove_variable(v);
    full_.remove_variable(v);
    state_.live.erase(v);
    last_.erase(v);
  }
  void set_capacity(ResourceId r, double cap) {
    inc_.set_capacity(r, cap);
    full_.set_capacity(r, cap);
    state_.capacities[static_cast<std::size_t>(r)] = cap;
  }

  /// Solves both and checks rates and change reporting. Members of a hub
  /// group are compared with EXPECT_EQ (the hub path claims bit identity
  /// with the fill); other variables within the fill's own tolerance, since
  /// discovery order may round multi-round fills differently.
  std::vector<VarId> solve_and_check() {
    const auto span = inc_.solve_changed();
    const std::vector<VarId> changed(span.begin(), span.end());
    full_.solve();
    const auto groups = inc_.changed_groups();
    MaxMin fresh;
    for (const double c : state_.capacities) fresh.add_resource(c);
    std::map<VarId, VarId> to_fresh;
    for (const auto& [id, v] : state_.live)
      to_fresh[id] = fresh.add_variable(v.weight, v.resources, v.bound);
    fresh.solve();
    for (const auto& [id, v] : state_.live) {
      const double rate = inc_.rate(id);
      const GroupId g = inc_.group_of(id);
      if (g >= 0) {
        EXPECT_EQ(rate, fresh.rate(to_fresh[id])) << "member " << id;
        EXPECT_EQ(rate, full_.rate(id)) << "member " << id;
      } else {
        expect_close(rate, fresh.rate(to_fresh[id]), "vs fresh rebuild");
        expect_close(rate, full_.rate(id), "vs full-solve twin");
      }
      const auto it = last_.find(id);
      if (it != last_.end()) {
        const bool told =
            std::find(changed.begin(), changed.end(), id) != changed.end() ||
            (g >= 0 &&
             std::find(groups.begin(), groups.end(), g) != groups.end());
        EXPECT_EQ(rate != it->second, told) << "var " << id;
      }
      last_[id] = rate;
    }
    return changed;
  }

  MaxMin& solver() { return inc_; }
  std::size_t live() const { return state_.live.size(); }
  VarId nth_live(std::size_t i) const {
    auto it = state_.live.begin();
    std::advance(it, static_cast<long>(i));
    return it->first;
  }

 private:
  MaxMin inc_, full_;
  SystemState state_;
  std::map<VarId, double> last_;
};

/// A backbone of capacity 1000 and `nics` private resources: every
/// variable crosses the backbone and two NICs. NICs hold a few members
/// each and offer far more than the backbone share, so the backbone binds.
struct Backbone {
  ResourceId bb;
  std::vector<ResourceId> nics;
  std::vector<VarId> vars;
};

Backbone build_backbone(HubHarness& h, int vars, int nics = 40) {
  Backbone b;
  b.bb = h.add_resource(1000.0);
  for (int i = 0; i < nics; ++i) b.nics.push_back(h.add_resource(400.0));
  for (int i = 0; i < vars; ++i)
    b.vars.push_back(h.add({b.bb, b.nics[static_cast<std::size_t>(i % nics)],
                            b.nics[static_cast<std::size_t>((i + 7) % nics)]}));
  return b;
}

}  // namespace

TEST(MaxMinHub, LargeFillFormsAGroupThatAnswersChurn) {
  HubHarness h;
  Backbone b = build_backbone(h, 80);
  MaxMin& m = h.solver();
  h.solve_and_check();
  ASSERT_EQ(m.entered_groups().size(), 1u);
  const GroupId g = m.entered_groups()[0];
  for (const VarId v : b.vars) EXPECT_EQ(m.group_of(v), g);
  EXPECT_EQ(m.group_members(g).size(), 80u);
  EXPECT_EQ(m.group_rate(g), 1000.0 / 80.0);
  EXPECT_EQ(m.solve_stats().hub_entries, 1u);

  // Staying in hub mode: a removal and an add are answered without a fill
  // and reported as one group-rate change.
  const auto touched = m.solve_stats().vars_touched;
  h.remove(b.vars.back());
  b.vars.pop_back();
  EXPECT_TRUE(h.solve_and_check().empty());
  ASSERT_EQ(m.changed_groups().size(), 1u);
  EXPECT_EQ(m.changed_groups()[0], g);
  EXPECT_EQ(m.group_rate(g), 1000.0 / 79.0);

  const VarId joined = h.add({b.bb, b.nics[3], b.nics[11]});
  EXPECT_EQ(m.group_of(joined), g);  // decided at the add, before the solve
  h.solve_and_check();
  ASSERT_EQ(m.changed_groups().size(), 1u);
  EXPECT_EQ(m.group_rate(g), 1000.0 / 80.0);
  EXPECT_EQ(m.solve_stats().vars_touched, touched);
  EXPECT_EQ(m.solve_stats().hub_solves, 2u);
  EXPECT_EQ(m.solve_stats().hub_exits, 0u);
}

TEST(MaxMinHub, JoiningThroughAFreshlyModifiedResourceStaysInTheGroup) {
  // A private resource emptied in the same epoch (so queued for the fill)
  // becomes a new member's private resource: the group answers, no fill
  // reaches into it.
  HubHarness h;
  const Backbone b = build_backbone(h, 80);
  const ResourceId spare = h.add_resource(400.0);
  const VarId alone = h.add({spare});
  MaxMin& m = h.solver();
  h.solve_and_check();
  const GroupId g = m.entered_groups()[0];
  const auto touched = m.solve_stats().vars_touched;

  h.remove(alone);
  const VarId joined = h.add({b.bb, spare});
  EXPECT_EQ(m.group_of(joined), g);
  h.solve_and_check();
  EXPECT_TRUE(m.entered_groups().empty());
  EXPECT_TRUE(m.exited_groups().empty());
  EXPECT_EQ(m.solve_stats().vars_touched, touched);
  EXPECT_EQ(m.group_members(g).size(), 81u);
}

TEST(MaxMinHub, SmallComponentsKeepTheFill) {
  HubHarness h;
  build_backbone(h, static_cast<int>(MaxMin::kHubMinVars) - 1);
  h.solve_and_check();
  EXPECT_TRUE(h.solver().entered_groups().empty());
  EXPECT_EQ(h.solver().solve_stats().hub_entries, 0u);
}

TEST(MaxMinHub, SetCapacityLeavesAndReentersHubMode) {
  HubHarness h;
  const Backbone b = build_backbone(h, 80);
  MaxMin& m = h.solver();
  h.solve_and_check();
  const GroupId g = m.entered_groups()[0];

  // Backbone capacity: the fill re-runs and finds the hub shape again.
  h.set_capacity(b.bb, 600.0);
  EXPECT_EQ(m.group_of(b.vars[0]), -1);
  h.solve_and_check();
  ASSERT_EQ(m.exited_groups().size(), 1u);
  EXPECT_EQ(m.exited_groups()[0], g);
  ASSERT_EQ(m.entered_groups().size(), 1u);
  EXPECT_EQ(m.group_rate(m.entered_groups()[0]), 600.0 / 80.0);

  // A private resource's capacity: same fallback.
  h.set_capacity(b.nics[5], 300.0);
  h.solve_and_check();
  EXPECT_EQ(m.exited_groups().size(), 1u);
  EXPECT_EQ(m.entered_groups().size(), 1u);
  EXPECT_EQ(m.solve_stats().hub_exits, 2u);
  EXPECT_EQ(m.solve_stats().hub_entries, 3u);
}

TEST(MaxMinHub, VariablesThatBreakTheShapeDissolveTheGroup) {
  // Each odd variable touches the hub component without fitting it: it
  // skips the hub, carries a non-unit weight or a bound, or bridges into
  // another component. The group dissolves, and comes back once the odd
  // variable is gone and a large fill sees the hub shape again.
  enum class Odd { skips_hub, weighted, bounded, bridges };
  for (const Odd odd :
       {Odd::skips_hub, Odd::weighted, Odd::bounded, Odd::bridges}) {
    SCOPED_TRACE(static_cast<int>(odd));
    HubHarness h;
    const Backbone b = build_backbone(h, 80);
    const ResourceId side = h.add_resource(500.0);
    h.add({side});
    h.add({side});
    MaxMin& m = h.solver();
    h.solve_and_check();
    ASSERT_EQ(m.entered_groups().size(), 1u);

    VarId v = -1;
    switch (odd) {
      case Odd::skips_hub: v = h.add({b.nics[2]}); break;
      case Odd::weighted: v = h.add({b.bb, b.nics[2]}, 2.0); break;
      case Odd::bounded: v = h.add({b.bb, b.nics[2]}, 1.0, 5.0); break;
      case Odd::bridges: v = h.add({b.bb, side}); break;
    }
    EXPECT_EQ(m.group_of(v), -1);
    EXPECT_EQ(m.group_of(b.vars[0]), -1);
    h.solve_and_check();
    EXPECT_EQ(m.exited_groups().size(), 1u);
    EXPECT_TRUE(m.entered_groups().empty());

    h.remove(v);
    h.solve_and_check();
    EXPECT_EQ(m.entered_groups().size(), 1u);
    EXPECT_GE(m.group_of(b.vars[0]), 0);
  }
}

TEST(MaxMinHub, RemovalLettingAPrivateResourceBindDissolvesTheGroup) {
  // NIC 0 carries three members at capacity 45 (share 15). The backbone
  // share 1000/n overtakes it once n drops to 66.
  HubHarness h;
  const ResourceId bb = h.add_resource(1000.0);
  const ResourceId weak = h.add_resource(45.0);
  std::vector<ResourceId> nics;
  for (int i = 0; i < 30; ++i) nics.push_back(h.add_resource(400.0));
  for (int i = 0; i < 3; ++i) h.add({bb, weak});
  std::vector<VarId> others;
  for (int i = 0; i < 77; ++i)
    others.push_back(h.add({bb, nics[static_cast<std::size_t>(i % 30)]}));
  MaxMin& m = h.solver();
  h.solve_and_check();
  ASSERT_EQ(m.entered_groups().size(), 1u);

  std::size_t n = 80;
  while (m.exited_groups().empty()) {
    ASSERT_GT(n, 66u) << "the group should have dissolved";
    h.remove(others.back());
    others.pop_back();
    --n;
    h.solve_and_check();
  }
  EXPECT_EQ(n, 66u);
  EXPECT_TRUE(m.entered_groups().empty());  // the NIC binds now
  EXPECT_EQ(m.solve_stats().hub_exits, 1u);
}

TEST(MaxMinHub, RandomBackboneStreamsStayExact) {
  for (const std::uint64_t seed : {3ull, 17ull, 2024ull}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    HubHarness h;
    const ResourceId bb = h.add_resource(1000.0);
    // Mostly roomy NICs, plus weak ones that bind once the group shrinks.
    std::vector<ResourceId> nics;
    for (int i = 0; i < 48; ++i)
      nics.push_back(h.add_resource(i % 8 == 0 ? rng.uniform(140.0, 200.0)
                                               : rng.uniform(300.0, 600.0)));
    // Private resources, each carrying at most one variable at a time.
    std::vector<ResourceId> spare;
    for (int i = 0; i < 24; ++i)
      spare.push_back(h.add_resource(rng.uniform(300.0, 600.0)));
    const ResourceId side = h.add_resource(500.0);
    h.add({side});
    h.add({side});
    const auto nic = [&] { return nics[rng.next_below(nics.size())]; };
    std::map<VarId, ResourceId> owner;  // variable -> its private resource
    // Last freed, first reused: a resource emptied earlier in the same
    // epoch (still queued for the fill) often gets a new owner at once.
    const auto add_private = [&](bool crosses_hub) {
      const ResourceId r = spare.back();
      spare.pop_back();
      const VarId v = crosses_hub ? h.add({bb, nic(), r}) : h.add({r});
      owner[v] = r;
      return v;
    };
    const auto drop = [&](VarId v) {
      h.remove(v);
      const auto it = owner.find(v);
      if (it == owner.end()) return;
      spare.push_back(it->second);
      owner.erase(it);
    };
    std::vector<VarId> odd;  // short-lived variables outside the shape

    for (int step = 0; step < 600; ++step) {
      // One to three mutations per solve, as an engine epoch batches them.
      const auto ops = 1 + rng.next_below(3);
      for (std::uint64_t op = 0; op < ops; ++op) {
        const double dice = rng.next_double();
        if (!odd.empty() && rng.next_double() < 0.5) {
          drop(odd.back());
          odd.pop_back();
        } else if (h.live() < 60 || (h.live() < 110 && dice < 0.42)) {
          if (!spare.empty() && rng.next_double() < 0.3) {
            add_private(true);
          } else {
            h.add({bb, nic(), nic()});
          }
        } else if (dice < 0.84) {
          const VarId v = h.nth_live(rng.next_below(h.live()));
          if (v < 2) continue;  // keep the side component
          if (std::find(odd.begin(), odd.end(), v) != odd.end()) continue;
          drop(v);
        } else if (dice < 0.88) {
          h.set_capacity(rng.next_double() < 0.5 ? bb : nic(),
                         rng.uniform(800.0, 1200.0));
        } else if (dice < 0.91) {
          // Skips the hub: on a NIC it breaks the shape; on a private
          // resource it is a component of its own until it leaves.
          odd.push_back(!spare.empty() && rng.next_double() < 0.5
                            ? add_private(false)
                            : h.add({nic()}));
        } else if (dice < 0.94) {
          odd.push_back(h.add({bb, nic()}, 2.0));
        } else if (dice < 0.97) {
          odd.push_back(h.add({bb, nic()}, 1.0, rng.uniform(1.0, 30.0)));
        } else {
          odd.push_back(h.add({bb, side}));
        }
      }
      h.solve_and_check();
    }
    const auto& st = h.solver().solve_stats();
    EXPECT_GT(st.hub_entries, 0u);
    EXPECT_GT(st.hub_exits, 0u);
    EXPECT_GT(st.hub_solves, 0u);
    EXPECT_GT(st.group_changes, 0u);
  }
}

// ---------------------------------------------------------------------------
// Engine-level differential: full replays (including the fault-injection
// degrade paths) must produce the same simulated time with the incremental
// solver and with full_solve.
// ---------------------------------------------------------------------------

namespace {

using replay::FaultSpec;
using replay::ReplayConfig;
using replay::ScenarioSpec;
using replay::run_scenario;
using trace::Action;
using trace::ActionType;

/// A ring exchange with interleaved compute: every rank sends a large
/// message around the ring, keeping several flows concurrently live.
std::vector<std::vector<Action>> ring_workload(int nprocs) {
  std::vector<std::vector<Action>> streams(
      static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p) {
    auto& s = streams[static_cast<std::size_t>(p)];
    const int next = (p + 1) % nprocs;
    const int prev = (p + nprocs - 1) % nprocs;
    for (int it = 0; it < 3; ++it) {
      s.push_back({p, ActionType::compute, -1, 2e8, 0, 0});
      if (p % 2 == 0) {
        s.push_back({p, ActionType::send, next, 4 << 20, 0, 0});
        s.push_back({p, ActionType::recv, prev, 4 << 20, 0, 0});
      } else {
        s.push_back({p, ActionType::recv, prev, 4 << 20, 0, 0});
        s.push_back({p, ActionType::send, next, 4 << 20, 0, 0});
      }
    }
  }
  return streams;
}

double simulate(const ScenarioSpec& spec, bool full_solve) {
  ScenarioSpec run = spec;
  run.config.full_solve = full_solve;
  return run_scenario(run).simulated_time;
}

}  // namespace

TEST(MaxMinIncremental, EngineDifferentialRingExchange) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(8));
  ScenarioSpec spec;
  spec.platform = platform;
  spec.process_hosts = hosts;
  spec.traces = trace::TraceSet::in_memory(ring_workload(8));

  const double incremental = simulate(spec, false);
  const double full = simulate(spec, true);
  expect_close(incremental, full, "ring exchange makespan");
  EXPECT_GT(incremental, 0.0);
}

TEST(MaxMinIncremental, EngineDifferentialWithFaults) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(8));
  ScenarioSpec spec;
  spec.platform = platform;
  spec.process_hosts = hosts;
  spec.traces = trace::TraceSet::in_memory(ring_workload(8));

  // Degrade a host mid-run and a link (bandwidth and latency) early on:
  // exercises reschedule_host, set_capacity and the route-cache
  // invalidation under both solver modes.
  FaultSpec host_fault;
  host_fault.kind = FaultSpec::Kind::host;
  host_fault.target = "bordereau-2.bordeaux.grid5000.fr";
  host_fault.compute_factor = 0.25;
  host_fault.at_time = 0.1;
  spec.faults.push_back(host_fault);

  FaultSpec link_fault;
  link_fault.kind = FaultSpec::Kind::link;
  link_fault.target = "bordereau-backbone";
  link_fault.bandwidth_factor = 0.2;
  link_fault.latency_factor = 3.0;
  link_fault.at_time = 0.05;
  spec.faults.push_back(link_fault);

  const double incremental = simulate(spec, false);
  const double full = simulate(spec, true);
  expect_close(incremental, full, "faulted ring makespan");

  // The faults must actually bite (otherwise this differential is vacuous).
  ScenarioSpec healthy = spec;
  healthy.faults.clear();
  EXPECT_GT(incremental, simulate(healthy, false));
}

TEST(MaxMinIncremental, DegradeLinkInvalidatesOnlyAffectedRoutes) {
  plat::Platform platform;
  const auto hosts = plat::build_cluster(platform, plat::bordereau_spec(4));
  sim::Engine engine(platform);

  // Populate the route cache, then degrade host 0's NIC latency.
  const double l01 = engine.route_latency(hosts[0], hosts[1]);
  const double l23 = engine.route_latency(hosts[2], hosts[3]);
  const auto nic =
      platform.find_link("bordereau-0.bordeaux.grid5000.fr_nic");
  ASSERT_TRUE(nic.has_value());
  engine.set_link_factors(*nic, 1.0, 2.0);

  // Routes crossing the degraded NIC pick up the doubled latency; routes
  // that avoid it keep their (still-cached) value.
  const double nic_latency = platform.link(*nic).latency;
  EXPECT_NEAR(engine.route_latency(hosts[0], hosts[1]), l01 + nic_latency,
              1e-15);
  EXPECT_DOUBLE_EQ(engine.route_latency(hosts[2], hosts[3]), l23);
}

TEST(MaxMinIncremental, EngineStatsExposeSolverWork) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(4));
  ScenarioSpec spec;
  spec.platform = platform;
  spec.process_hosts = hosts;
  spec.traces = trace::TraceSet::in_memory(ring_workload(4));

  const auto result = run_scenario(spec);
  const auto& st = result.engine_stats;
  EXPECT_GT(st.solver_calls, 0u);
  EXPECT_GT(st.solver_vars_touched, 0u);
  EXPECT_GT(st.solver_component_size_max, 0u);
  EXPECT_GT(st.flows_rerated, 0u);
  // Incremental work is bounded by what full solving would have done.
  ScenarioSpec full = spec;
  full.config.full_solve = true;
  const auto& full_st = run_scenario(full).engine_stats;
  EXPECT_LE(st.solver_vars_touched, full_st.solver_vars_touched);
}

