// Stochastic perturbation model: platform variability as a first-class
// scenario input.
//
// Cornebize & Legrand (2021) show that deterministic replay with one
// calibrated flop rate mispredicts real systems because platforms are not
// uniform: every host runs a little off its calibrated speed, every link a
// little off its nominal bandwidth, and resources occasionally drop out and
// come back. A PerturbSpec describes that variability statistically —
// per-host flop-rate noise, per-link bandwidth/latency jitter, an optional
// transient-fault arrival process — and expand_perturbation() turns it into
// a concrete, fully deterministic fault timeline for one Monte-Carlo
// replica.
//
// Determinism and order independence: every draw comes from its own RNG
// stream keyed (seed, replica, kind, resource id) via tir::stream_seed, so
//   * the same (spec, platform, replica) always expands identically,
//   * host i's factor does not depend on how many hosts or links exist or
//     on the order anything is iterated (growing the platform leaves the
//     factors of existing resources unchanged), and
//   * replicas are mutually independent streams of one user-facing seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "replay/scenario.hpp"

namespace tir::replay {

/// Statistical description of platform variability. Noise values are
/// relative standard deviations: host_noise = 0.1 draws each host's compute
/// factor from N(1, 0.1) clamped to [min_factor, max_factor]. A zero spec
/// (the default) expands to no faults at all.
struct PerturbSpec {
  double host_noise = 0.0;      ///< stddev of per-host compute factor
  double link_bw_noise = 0.0;   ///< stddev of per-link bandwidth factor
  double link_lat_noise = 0.0;  ///< stddev of per-link latency factor

  /// Clamp range for every drawn factor — keeps a 3-sigma draw from
  /// stopping (or absurdly accelerating) a resource.
  double min_factor = 0.05;
  double max_factor = 2.0;

  // Optional transient-fault arrival process: outages with recovery.
  // Arrival times are exponential with rate `fault_rate` (expected faults
  // per simulated second across the whole platform), drawn in
  // [0, fault_horizon); each outage picks a uniformly random host or link,
  // lasts an exponential time with mean `fault_duration`, and runs the
  // resource at `fault_severity` times nominal until it heals.
  double fault_rate = 0.0;
  double fault_horizon = 0.0;
  double fault_duration = 0.0;
  double fault_severity = 0.25;

  /// True when the spec perturbs nothing (expansion is empty).
  bool empty() const;
};

/// What one replica actually drew: the concrete factor applied to every
/// resource at t = 0. This is the regressor matrix of the sensitivity
/// analysis — makespan is regressed against these columns.
struct PerturbDraw {
  std::vector<double> host_factor;            ///< size host_count, 1 = nominal
  std::vector<double> link_bandwidth_factor;  ///< size link_count
  std::vector<double> link_latency_factor;    ///< size link_count
};

/// Expands the spec into a concrete fault timeline for `replica`:
/// deterministic given (spec, platform, replica). Static noise becomes
/// t = 0 faults; the arrival process becomes faults with recovery. When
/// `draw` is non-null it receives the per-resource factors (transient
/// outages are not part of the draw record — they are timeline events, not
/// regression coordinates). `seed` is the user-facing sweep seed.
std::vector<FaultSpec> expand_perturbation(const PerturbSpec& spec,
                                           const plat::Platform& platform,
                                           std::uint64_t seed,
                                           std::uint64_t replica,
                                           PerturbDraw* draw = nullptr);

/// Validates spec parameters (noise >= 0, clamp range sane, arrival process
/// consistent); throws SimError with `context` in the message. Tools call
/// this at parse time.
void validate_perturbation(const PerturbSpec& spec,
                           const std::string& context);

/// Monte-Carlo replica `replica` of `base`: base's own faults followed by
/// the expansion of `perturb` for (seed, replica), named
/// "<base.name>#r<replica>"; `draw` as in expand_perturbation.
/// run_monte_carlo, a sweep list's row expansion and the service's
/// replica= all bake replicas here, so replica r replays identically
/// through each.
ScenarioSpec perturbed_replica(const ScenarioSpec& base,
                               const PerturbSpec& perturb, std::uint64_t seed,
                               std::uint64_t replica,
                               PerturbDraw* draw = nullptr);

/// A Monte-Carlo row: replicas 0 .. replicas - 1 of `base`, then `base`
/// itself named "<base.name>#baseline" (the unperturbed point estimate).
/// When `draws` is non-null it receives one PerturbDraw per replica.
std::vector<ScenarioSpec> monte_carlo_rows(
    const ScenarioSpec& base, const PerturbSpec& perturb, std::uint64_t seed,
    int replicas, std::vector<PerturbDraw>* draws = nullptr);

}  // namespace tir::replay
