#include "replay/montecarlo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/error.hpp"
#include "support/stats.hpp"

namespace tir::replay {

namespace {

/// OLS slope, Pearson correlation and the regressor's stddev for one
/// resource column. Folds in sample order, so the result is deterministic.
struct Regression {
  double slope = 0.0;
  double correlation = 0.0;
  double x_stddev = 0.0;
  bool degenerate = true;  ///< the factor never varied across replicas
};

Regression regress(const std::vector<double>& x, const std::vector<double>& y) {
  Regression out;
  const std::size_t n = x.size();
  if (n < 2) return out;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxx = 0.0, syy = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
    sxy += (x[i] - mx) * (y[i] - my);
  }
  if (sxx <= 0.0) return out;
  out.degenerate = false;
  out.slope = sxy / sxx;
  out.x_stddev = std::sqrt(sxx / static_cast<double>(n - 1));
  out.correlation = syy > 0.0 ? sxy / std::sqrt(sxx * syy) : 0.0;
  return out;
}

}  // namespace

McSummary run_monte_carlo(const ScenarioSpec& base, const PerturbSpec& perturb,
                          const McOptions& opts) {
  const std::string context =
      base.name.empty() ? "monte-carlo" : "monte-carlo '" + base.name + "'";
  if (opts.replicas < 1) throw SimError(context + ": replicas must be >= 1");
  if (!base.platform) throw SimError(context + ": no platform");
  validate_perturbation(perturb, context);
  validate_faults(base);

  std::vector<PerturbDraw> draws;
  const std::vector<ScenarioSpec> specs =
      monte_carlo_rows(base, perturb, opts.seed, opts.replicas, &draws);
  const auto results = run_sweep(specs, {.workers = opts.workers});

  McSummary summary;
  summary.name = base.name;
  summary.replicas = opts.replicas;

  RunningStats stats;
  std::vector<std::size_t> ok_replicas;  // replica of each sample
  std::string first_error;
  for (std::size_t r = 0; r < draws.size(); ++r) {
    const ReplayReport& res = results[r];
    if (!res.ok()) {
      ++summary.failures;
      if (first_error.empty()) first_error = specs[r].name + ": " + res.error;
      continue;
    }
    stats.add(res.result.simulated_time);
    summary.samples.push_back(res.result.simulated_time);
    ok_replicas.push_back(r);
  }
  if (stats.count() == 0)
    throw SimError(context + ": every replica failed (first: " + first_error +
                   ")");
  summary.mean = stats.mean();
  summary.stddev = stats.stddev();
  summary.min = stats.min();
  summary.max = stats.max();
  summary.ci95 =
      1.96 * summary.stddev / std::sqrt(static_cast<double>(stats.count()));

  const ReplayReport& baseline = results.back();
  if (!baseline.ok())
    throw SimError(context + ": baseline replay failed: " + baseline.error);
  summary.baseline = baseline.result.simulated_time;

  // Sensitivity: regress makespan on each resource's drawn factor. Hosts
  // regress on the compute factor; links on the bandwidth factor when it
  // was perturbed, otherwise on the latency factor.
  const plat::Platform& platform = *base.platform;
  std::vector<double> xs(summary.samples.size());
  const auto add_entry = [&](FaultSpec::Kind kind, int id,
                             const std::string& name) {
    const Regression reg = regress(xs, summary.samples);
    if (reg.degenerate) return;
    SensitivityEntry entry;
    entry.kind = kind;
    entry.id = id;
    entry.name = name;
    entry.slope = reg.slope;
    entry.correlation = reg.correlation;
    entry.impact = std::abs(reg.slope) * reg.x_stddev;
    summary.sensitivity.push_back(std::move(entry));
  };
  if (perturb.host_noise > 0) {
    for (std::size_t h = 0; h < platform.host_count(); ++h) {
      for (std::size_t i = 0; i < ok_replicas.size(); ++i)
        xs[i] = draws[ok_replicas[i]].host_factor[h];
      add_entry(FaultSpec::Kind::host, static_cast<int>(h),
                platform.host(static_cast<int>(h)).name);
    }
  }
  if (perturb.link_bw_noise > 0 || perturb.link_lat_noise > 0) {
    for (std::size_t l = 0; l < platform.link_count(); ++l) {
      for (std::size_t i = 0; i < ok_replicas.size(); ++i)
        xs[i] = perturb.link_bw_noise > 0
                    ? draws[ok_replicas[i]].link_bandwidth_factor[l]
                    : draws[ok_replicas[i]].link_latency_factor[l];
      add_entry(FaultSpec::Kind::link, static_cast<int>(l),
                platform.link(static_cast<int>(l)).name);
    }
  }
  // Descending impact; ties break on (kind, id) so the ranking is stable
  // whatever the container order.
  std::stable_sort(summary.sensitivity.begin(), summary.sensitivity.end(),
                   [](const SensitivityEntry& a, const SensitivityEntry& b) {
                     if (a.impact != b.impact) return a.impact > b.impact;
                     if (a.kind != b.kind)
                       return a.kind == FaultSpec::Kind::host;
                     return a.id < b.id;
                   });
  return summary;
}

std::string McSummary::render(std::size_t max_rows) const {
  std::ostringstream os;
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%s: %d replica(s), %d failure(s)\n", name.c_str(), replicas,
                failures);
  os << buf;
  std::snprintf(buf, sizeof buf,
                "  makespan mean %.6f s  stddev %.6f  95%% CI +-%.6f  "
                "[%.6f .. %.6f]\n",
                mean, stddev, ci95, min, max);
  os << buf;
  if (baseline > 0) {
    std::snprintf(buf, sizeof buf,
                  "  deterministic baseline %.6f s (%+.2f%% vs MC mean)\n",
                  baseline,
                  mean > 0 ? 100.0 * (baseline - mean) / mean : 0.0);
    os << buf;
  }
  if (!sensitivity.empty()) {
    os << "  sensitivity (expected makespan shift per 1-sigma "
          "perturbation):\n";
    const std::size_t rows = std::min(max_rows, sensitivity.size());
    for (std::size_t i = 0; i < rows; ++i) {
      const SensitivityEntry& e = sensitivity[i];
      std::snprintf(buf, sizeof buf,
                    "    %2zu. %-4s %-40s impact %.6f s  slope %+.4f  "
                    "r %+.3f\n",
                    i + 1, e.kind == FaultSpec::Kind::host ? "host" : "link",
                    e.name.c_str(), e.impact, e.slope, e.correlation);
      os << buf;
    }
    if (sensitivity.size() > rows) {
      std::snprintf(buf, sizeof buf, "    ... %zu more resource(s)\n",
                    sensitivity.size() - rows);
      os << buf;
    }
  }
  return os.str();
}

}  // namespace tir::replay
