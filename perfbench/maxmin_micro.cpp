// sim::MaxMin churn micro benchmark, through the solver's public API only.
//
// The two shapes bracket what the replay workloads feed the solver:
// `shared` is one saturated resource holding ~1024 variables, the coupled
// component a saturated cluster backbone produces at 256 ranks (fig9-lu256
// measured a largest component of 1148); `disjoint` is components of 8
// variables, the shape of the 8-rank CG stream.
#include <random>
#include <vector>

#include "bench.hpp"
#include "simkern/maxmin.hpp"

namespace perfbench {

ChurnResult maxmin_churn(bool shared, std::uint64_t seed, double seconds) {
  constexpr int kVars = 1024;
  const int group = shared ? kVars : 8;
  const int resources = kVars / group;

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> weight(0.5, 2.0);
  std::uniform_int_distribution<int> pick_resource(0, resources - 1);
  std::uniform_int_distribution<int> pick_member(0, group - 1);

  tir::sim::MaxMin lmm;
  std::vector<tir::sim::ResourceId> res;
  std::vector<std::vector<tir::sim::VarId>> members(
      static_cast<std::size_t>(resources));
  for (int r = 0; r < resources; ++r) res.push_back(lmm.add_resource(1.25e9));
  for (int v = 0; v < kVars; ++v) {
    const auto r = static_cast<std::size_t>(v / group);
    members[r].push_back(lmm.add_variable(weight(rng), {res[r]}));
  }
  lmm.solve();

  ChurnResult out;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 64; ++i) {
      const auto r = static_cast<std::size_t>(pick_resource(rng));
      auto& slot = members[r][static_cast<std::size_t>(pick_member(rng))];
      lmm.remove_variable(slot);
      slot = lmm.add_variable(weight(rng), {res[r]});
      out.changed += lmm.solve_changed().size();
      ++out.ops;
    }
    elapsed = seconds_since(t0);
  } while (elapsed < seconds);
  out.ns_per_op = elapsed * 1e9 / static_cast<double>(out.ops);
  return out;
}

}  // namespace perfbench
