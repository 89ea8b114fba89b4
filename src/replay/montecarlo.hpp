// Monte-Carlo replica sweeps with per-resource sensitivity analysis.
//
// A deterministic replay answers "what is the makespan on this exact
// platform"; the Monte-Carlo driver answers the question real systems pose:
// "what is the makespan distribution when every host and link is a little
// off nominal" (Cornebize & Legrand 2021). run_monte_carlo() expands one
// PerturbSpec into N concrete replicas — each a fully deterministic fault
// timeline keyed (seed, replica), baked by perturbed_replica() exactly as
// tir-sweep and tir-serve bake them — fans them through the SweepRunner
// worker pool, and aggregates mean / stddev / 95% CI next to the
// unperturbed baseline point.
//
// The sensitivity report regresses the replica makespans against each
// resource's drawn factor: impact = |OLS slope| * stddev(factor) is the
// expected makespan shift per one-sigma perturbation of that resource.
// The top-ranked resource should be the one the obs critical path already
// blames (TimelineReport::hot_rank's host) — the variability tests
// cross-check exactly that.
//
// Determinism: the replica expansion is a pure function of (seed, replica),
// replicas land in pre-sized result slots, and the aggregation folds them
// in replica order — so the summary is bit-identical across SweepRunner
// worker counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "replay/perturb.hpp"
#include "replay/scenario.hpp"
#include "replay/sweep.hpp"

namespace tir::replay {

struct McOptions {
  int replicas = 100;       ///< Monte-Carlo sample count (>= 1)
  std::uint64_t seed = 1;   ///< user-facing seed; replicas derive from it
  int workers = 0;          ///< SweepRunner workers; 0 = hardware
};

/// One row of the sensitivity ranking.
struct SensitivityEntry {
  FaultSpec::Kind kind = FaultSpec::Kind::host;
  int id = -1;
  std::string name;          ///< platform host/link name
  double impact = 0.0;       ///< |slope| * stddev(factor): seconds per sigma
  double slope = 0.0;        ///< d(makespan)/d(factor), OLS
  double correlation = 0.0;  ///< Pearson r between factor and makespan
};

struct McSummary {
  std::string name;          ///< copied from the base spec
  int replicas = 0;          ///< requested
  int failures = 0;          ///< replicas that did not finish ok

  /// Unperturbed makespan: the deterministic point estimate the paper's
  /// single-calibration replay would report.
  double baseline = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;         ///< half-width of the 95% CI on the mean
  double min = 0.0;
  double max = 0.0;

  /// Makespans of the replicas that finished ok, in replica order.
  std::vector<double> samples;

  /// Descending by impact; resources whose drawn factor never varied are
  /// omitted.
  std::vector<SensitivityEntry> sensitivity;

  /// Human-readable summary block (stats + top sensitivity rows).
  std::string render(std::size_t max_rows = 10) const;
};

/// Runs the monte_carlo_rows of `base`: `opts.replicas` perturbed replicas
/// (its own faults are kept and the perturbation's timeline is appended)
/// plus the baseline.
/// Throws SimError when every replica fails; individual replica failures
/// are counted and excluded from the statistics.
McSummary run_monte_carlo(const ScenarioSpec& base, const PerturbSpec& perturb,
                          const McOptions& opts = {});

}  // namespace tir::replay
