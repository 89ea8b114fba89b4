#include "replay/perturb.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace tir::replay {

namespace {

// Stream tags: one per draw kind, so (seed, replica, tag, id) streams never
// collide across kinds even for equal resource ids.
constexpr std::uint64_t kHostStream = 0x686f7374;      // "host"
constexpr std::uint64_t kLinkBwStream = 0x6c626477;    // "lbdw"
constexpr std::uint64_t kLinkLatStream = 0x6c6c6174;   // "llat"
constexpr std::uint64_t kArrivalStream = 0x61727276;   // "arrv"

/// One clamped N(1, noise) factor from the stream (seed, replica, tag, id).
double draw_factor(std::uint64_t seed, std::uint64_t replica,
                   std::uint64_t tag, std::uint64_t id,
                   const PerturbSpec& spec, double noise) {
  Rng rng(stream_seed(seed, replica, tag, id));
  return std::clamp(rng.normal(1.0, noise), spec.min_factor, spec.max_factor);
}

}  // namespace

bool PerturbSpec::empty() const {
  return host_noise == 0.0 && link_bw_noise == 0.0 && link_lat_noise == 0.0 &&
         (fault_rate == 0.0 || fault_horizon == 0.0);
}

void validate_perturbation(const PerturbSpec& spec,
                           const std::string& context) {
  const auto fail = [&context](const std::string& message) -> SimError {
    return SimError(context + ": " + message);
  };
  if (spec.host_noise < 0 || spec.link_bw_noise < 0 || spec.link_lat_noise < 0)
    throw fail("noise stddevs must be non-negative");
  if (spec.min_factor <= 0) throw fail("min_factor must be > 0");
  if (spec.max_factor < spec.min_factor)
    throw fail("max_factor must be >= min_factor");
  if (spec.fault_rate < 0 || spec.fault_horizon < 0)
    throw fail("fault rate and horizon must be non-negative");
  if (spec.fault_rate > 0 && spec.fault_horizon > 0) {
    if (spec.fault_duration <= 0)
      throw fail("a fault process needs fault_duration > 0");
    if (spec.fault_severity <= 0)
      throw fail("fault_severity must be > 0");
  }
}

std::vector<FaultSpec> expand_perturbation(const PerturbSpec& spec,
                                           const plat::Platform& platform,
                                           std::uint64_t seed,
                                           std::uint64_t replica,
                                           PerturbDraw* draw) {
  validate_perturbation(spec, "perturbation");
  std::vector<FaultSpec> faults;
  if (draw) {
    draw->host_factor.assign(platform.host_count(), 1.0);
    draw->link_bandwidth_factor.assign(platform.link_count(), 1.0);
    draw->link_latency_factor.assign(platform.link_count(), 1.0);
  }

  // Static per-resource noise: one t = 0 fault per perturbed resource.
  // Each resource draws from its own stream, so the factors form a stable
  // prefix — independent of platform size and iteration order.
  if (spec.host_noise > 0) {
    for (std::size_t h = 0; h < platform.host_count(); ++h) {
      const double factor =
          draw_factor(seed, replica, kHostStream, h, spec, spec.host_noise);
      if (draw) draw->host_factor[h] = factor;
      if (factor == 1.0) continue;
      FaultSpec f;
      f.kind = FaultSpec::Kind::host;
      f.id = static_cast<int>(h);
      f.compute_factor = factor;
      faults.push_back(f);
    }
  }
  if (spec.link_bw_noise > 0 || spec.link_lat_noise > 0) {
    for (std::size_t l = 0; l < platform.link_count(); ++l) {
      double bw = 1.0, lat = 1.0;
      if (spec.link_bw_noise > 0)
        bw = draw_factor(seed, replica, kLinkBwStream, l, spec,
                         spec.link_bw_noise);
      if (spec.link_lat_noise > 0)
        lat = draw_factor(seed, replica, kLinkLatStream, l, spec,
                          spec.link_lat_noise);
      if (draw) {
        draw->link_bandwidth_factor[l] = bw;
        draw->link_latency_factor[l] = lat;
      }
      if (bw == 1.0 && lat == 1.0) continue;
      FaultSpec f;
      f.kind = FaultSpec::Kind::link;
      f.id = static_cast<int>(l);
      f.bandwidth_factor = bw;
      f.latency_factor = lat;
      faults.push_back(f);
    }
  }

  // Transient outages: exponential arrivals over [0, horizon), each hitting
  // a uniformly random resource and healing after an exponential duration.
  // One stream drives the whole process (arrival order is inherently
  // sequential); it is keyed by replica so replicas stay independent.
  if (spec.fault_rate > 0 && spec.fault_horizon > 0) {
    const std::size_t resources = platform.host_count() + platform.link_count();
    if (resources > 0) {
      Rng rng(stream_seed(seed, replica, kArrivalStream));
      double t = 0.0;
      for (;;) {
        t += -std::log(1.0 - rng.next_double()) / spec.fault_rate;
        if (t >= spec.fault_horizon) break;
        const std::uint64_t pick = rng.next_below(resources);
        const double duration =
            -std::log(1.0 - rng.next_double()) * spec.fault_duration;
        FaultSpec f;
        f.at_time = t;
        f.until_time = t + std::max(duration, 1e-9);
        if (pick < platform.host_count()) {
          f.kind = FaultSpec::Kind::host;
          f.id = static_cast<int>(pick);
          f.compute_factor = spec.fault_severity;
        } else {
          f.kind = FaultSpec::Kind::link;
          f.id = static_cast<int>(pick - platform.host_count());
          f.bandwidth_factor = spec.fault_severity;
        }
        faults.push_back(f);
      }
    }
  }
  return faults;
}

ScenarioSpec perturbed_replica(const ScenarioSpec& base,
                               const PerturbSpec& perturb, std::uint64_t seed,
                               std::uint64_t replica, PerturbDraw* draw) {
  ScenarioSpec spec = base;
  spec.name = base.name + "#r" + std::to_string(replica);
  const auto faults =
      expand_perturbation(perturb, *base.platform, seed, replica, draw);
  spec.faults.insert(spec.faults.end(), faults.begin(), faults.end());
  return spec;
}

std::vector<ScenarioSpec> monte_carlo_rows(const ScenarioSpec& base,
                                           const PerturbSpec& perturb,
                                           std::uint64_t seed, int replicas,
                                           std::vector<PerturbDraw>* draws) {
  if (draws) draws->clear();
  std::vector<ScenarioSpec> rows;
  for (int r = 0; r < replicas; ++r)
    rows.push_back(perturbed_replica(base, perturb, seed,
                                     static_cast<std::uint64_t>(r),
                                     draws ? &draws->emplace_back() : nullptr));
  rows.push_back(base);
  rows.back().name = base.name + "#baseline";
  return rows;
}

}  // namespace tir::replay
