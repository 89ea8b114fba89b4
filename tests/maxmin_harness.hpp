// Test helpers for the max-min solver: an incremental solver driven in
// lockstep with a full-solve twin over one op stream, mirrored so that each
// solve is also checked against a solver rebuilt from scratch.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "simkern/maxmin.hpp"

namespace tir::test {

/// The fill's binding tolerance, relative (absolute below 1).
inline constexpr double kTol = 1e-9;

inline void expect_close(double a, double b, const char* what) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  EXPECT_NEAR(a, b, kTol * scale) << what;
}

/// Mirror of one solver system, used to (a) drive a full-solve twin with the
/// identical op stream (ids match because both recycle the same way) and
/// (b) rebuild a fresh reference solver from the current state.
struct SystemState {
  std::vector<double> capacities;
  struct LiveVar {
    sim::VarId id;
    double weight;
    std::vector<sim::ResourceId> resources;
  };
  std::map<sim::VarId, LiveVar> live;  // ordered: deterministic rebuild order
};

/// Drives an incremental solver and a full-solve twin with one op stream,
/// mirroring the system so it can be rebuilt from scratch.
class HubHarness {
 public:
  HubHarness() { full_.set_full_solve(true); }

  sim::ResourceId add_resource(double cap) {
    full_.add_resource(cap);
    state_.capacities.push_back(cap);
    return inc_.add_resource(cap);
  }
  sim::VarId add(std::vector<sim::ResourceId> use, double weight = 1.0) {
    const sim::VarId a = inc_.add_variable(weight, use);
    EXPECT_EQ(a, full_.add_variable(weight, use));
    state_.live[a] = {a, weight, std::move(use)};
    return a;
  }
  void remove(sim::VarId v) {
    inc_.remove_variable(v);
    full_.remove_variable(v);
    state_.live.erase(v);
    last_.erase(v);
  }
  void set_capacity(sim::ResourceId r, double cap) {
    inc_.set_capacity(r, cap);
    full_.set_capacity(r, cap);
    state_.capacities[static_cast<std::size_t>(r)] = cap;
  }

  /// Solves both and checks rates and change reporting. Members of a hub
  /// group are compared with EXPECT_EQ (the hub path claims bit identity
  /// with the fill); other variables within the fill's own tolerance, since
  /// discovery order may round multi-round fills differently. A variable
  /// is reported at most once, and it or its group iff its rate moved.
  std::vector<sim::VarId> solve_and_check() {
    const auto span = inc_.solve_changed();
    const std::vector<sim::VarId> changed(span.begin(), span.end());
    full_.solve();
    std::vector<sim::VarId> sorted = changed;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "a variable reported twice";
    const auto groups = inc_.changed_groups();
    sim::MaxMin fresh;
    for (const double c : state_.capacities) fresh.add_resource(c);
    std::map<sim::VarId, sim::VarId> to_fresh;
    for (const auto& [id, v] : state_.live)
      to_fresh[id] = fresh.add_variable(v.weight, v.resources);
    fresh.solve();
    for (const auto& [id, v] : state_.live) {
      const double rate = inc_.rate(id);
      const sim::GroupId g = inc_.group_of(id);
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
            std::binary_search(sorted.begin(), sorted.end(), id) ||
            (g >= 0 &&
             std::find(groups.begin(), groups.end(), g) != groups.end());
        EXPECT_EQ(rate != it->second, told) << "var " << id;
      }
      last_[id] = rate;
    }
    return changed;
  }

  sim::MaxMin& solver() { return inc_; }
  sim::MaxMin& full() { return full_; }
  std::size_t live() const { return state_.live.size(); }
  sim::VarId nth_live(std::size_t i) const {
    auto it = state_.live.begin();
    std::advance(it, static_cast<long>(i));
    return it->first;
  }

 private:
  sim::MaxMin inc_, full_;
  SystemState state_;
  std::map<sim::VarId, double> last_;
};

}  // namespace tir::test
