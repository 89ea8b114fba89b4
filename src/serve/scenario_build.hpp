// Scenario construction from key=value parameters — the shared guts of
// tir-sweep, tir-mc and tir-serve.
//
// Historically this lived header-only in tools/sweep_list.hpp; the serving
// layer promotes it to a library so a daemon request and a sweep-list row
// build scenarios through exactly one code path. A KeyValues map (the
// sweep-list vocabulary: platform=, traces=, fault=, perturb=, mc=, ...)
// plus an InputResolver (shared immutable inputs: platforms and deployments
// cached by spec, traces through the content-addressed TraceCache with
// canonicalised path keys — `dir`, `./dir` and the absolute spelling all
// decode once) yields a SweepEntry: the deterministic ScenarioSpec, its
// optional stochastic envelope, and the serving metadata (trace digest,
// canonical platform key) the result memo fingerprints.
//
// Every parameter is validated here, at build time — a typo fails with the
// scenario name attached instead of mid-sweep inside a worker thread.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "platform/deployment.hpp"
#include "platform/platform.hpp"
#include "replay/perturb.hpp"
#include "replay/scenario.hpp"
#include "serve/trace_cache.hpp"
#include "trace/digest.hpp"

namespace tir::serve {

int parse_int(const std::string& what, const std::string& s);
double parse_double(const std::string& what, const std::string& s);
std::uint64_t parse_u64(const std::string& what, const std::string& s);

struct KeyValues {
  std::map<std::string, std::string> kv;

  const std::string* find(const std::string& key) const {
    const auto it = kv.find(key);
    return it == kv.end() ? nullptr : &it->second;
  }
};

/// Parses one fault entry: host:NAME:FACTOR@TIMES or
/// link:NAME:BWFACTOR[:LATFACTOR]@TIMES, with TIMES =
/// START[-END][xN][/PERIOD]. Examples:
///   host:node-3:0.5@10        degrade at t=10, permanent
///   link:backbone:0.1@5-8     outage over [5, 8), then heal
///   link:up0:0.2@5-6x4/10     flap train: four 1 s outages, 10 s apart
replay::FaultSpec parse_fault(const std::string& scenario,
                              const std::string& entry);

/// Parses perturb=K:V,... into a PerturbSpec (validated by the caller via
/// replay::validate_perturbation once the scenario name is known).
replay::PerturbSpec parse_perturb(const std::string& scenario,
                                  const std::string& value);

/// One built scenario: the deterministic spec plus its (optional)
/// stochastic envelope and the serving metadata.
struct SweepEntry {
  replay::ScenarioSpec spec;
  replay::PerturbSpec perturb;
  bool has_perturb = false;
  int mc = 0;               ///< Monte-Carlo replicas; 0 = deterministic row
  std::uint64_t seed = 1;   ///< replica streams derive from this

  /// Canonical platform identity for memo keys: the topology spec string,
  /// or the canonicalised absolute path of a platform file.
  std::string platform_key;

  /// Content digest of spec.traces; zero when the resolver fell back to an
  /// uncached lazy TraceSet (unreadable input — the failure surfaces as a
  /// failed row at replay time, exactly as before the cache existed).
  trace::Digest trace_digest;
  bool trace_cache_hit = false;
  double trace_decode_seconds = 0.0;
};

/// Shared immutable inputs behind canonical keys. Platforms and deployments
/// are cached per resolver; traces go through the (typically longer-lived)
/// TraceCache so a daemon keeps hot traces decoded across requests.
class InputResolver {
 public:
  /// `base`: directory relative paths resolve against. `cache` must
  /// outlive the resolver.
  InputResolver(std::filesystem::path base, TraceCache& cache);

  std::filesystem::path resolve(const std::string& path) const;

  std::shared_ptr<const plat::Platform> platform(const std::string& spec);

  /// Canonical identity of a platform spec (no construction).
  std::string platform_key(const std::string& spec) const;

  const plat::Deployment& deployment(const std::string& file);

  /// Resolves traces=/merged= through the TraceCache. On decode failure the
  /// error is swallowed and an uncached lazy TraceSet handle is returned
  /// (hit=false, zero digest) so the scenario fails at replay time with the
  /// original per-row semantics.
  CachedTrace traces(const std::string& spec, bool merged);

 private:
  std::filesystem::path base_;
  TraceCache& trace_cache_;
  std::map<std::string, std::shared_ptr<const plat::Platform>> platforms_;
  std::map<std::string, plat::Deployment> deployments_;
};

/// Builds one scenario from its parameters. `index` names anonymous rows
/// ("scenario-<index>"). Throws tir::Error/ParseError with the scenario
/// name in the message; fault targets are validated against the platform.
SweepEntry build_scenario(const KeyValues& kv, InputResolver& resolver,
                          std::size_t index);

/// Bakes one Monte-Carlo replica of a perturbed entry: appends the
/// deterministically expanded fault timeline for (seed, replica) and tags
/// the name "#r<replica>". Entries without a perturbation pass through
/// (replica must be 0). Shared by tir-sweep's row expansion and the
/// service's replica= parameter.
replay::ScenarioSpec bake_replica(const SweepEntry& entry, int replica);

}  // namespace tir::serve
