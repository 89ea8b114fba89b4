// Scenario construction from key=value parameters — the shared guts of
// tir-sweep, tir-mc and tir-serve.
//
// Historically this lived header-only in tools/sweep_list.hpp; the serving
// layer promotes it to a library so a daemon request and a sweep-list row
// build scenarios through exactly one code path. A KeyValues map (the
// sweep-list vocabulary: platform=, traces=, fault=, perturb=, mc=, ...)
// plus an InputResolver (shared immutable inputs keyed by file identity:
// platforms and deployments in small caches, traces through the TraceCache
// — `dir`, `./dir`, the absolute spelling and a symlink all decode once,
// and a rewritten file decodes again) yields a SweepEntry: the
// deterministic ScenarioSpec, its optional stochastic envelope, and the
// serving metadata (trace content digest, platform identity) the result
// memo fingerprints.
//
// Every parameter is validated here, at build time — a typo fails with the
// scenario name attached instead of mid-sweep inside a worker thread, and
// so does a key outside the vocabulary instead of replaying the baseline.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "platform/deployment.hpp"
#include "platform/platform.hpp"
#include "replay/perturb.hpp"
#include "replay/scenario.hpp"
#include "serve/lru_map.hpp"
#include "serve/trace_cache.hpp"
#include "support/file_identity.hpp"
#include "trace/digest.hpp"

namespace tir::serve {

int parse_int(const std::string& what, const std::string& s);
double parse_double(const std::string& what, const std::string& s);
/// parse_double for a quantity that must be > 0 (a compute efficiency).
double parse_positive(const std::string& what, const std::string& s);
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
  replay::PerturbSpec perturb;  ///< empty(): a deterministic row
  int mc = 0;               ///< Monte-Carlo replicas; 0 = not given
  std::uint64_t seed = 1;   ///< replica streams derive from this

  /// Platform identity for memo keys: the topology spec string, or the
  /// file identity (device, inode, size, mtime) of a platform file.
  std::string platform_key;

  /// Content digest of spec.traces; zero when the resolver fell back to an
  /// uncached lazy TraceSet (unreadable input — the failure surfaces as a
  /// failed row at replay time, exactly as before the cache existed).
  trace::Digest trace_digest;
  bool trace_cache_hit = false;
  double trace_decode_seconds = 0.0;
};

/// Shared immutable inputs behind file identities. Platforms and
/// deployments are cached per resolver; traces go through the (typically
/// longer-lived) TraceCache so a daemon keeps hot traces decoded across
/// requests.
///
/// Each input spelling (a traces= list, merged=FILE:N, a platform or
/// deployment file) is resolved once into its files and their stat
/// identities (FileIdentity), plus the identity of each directory it names.
/// A later request re-validates the resolution with one stat per entry; a
/// changed identity resolves the spelling again, drops the cache entries
/// keyed by the old identities and loads the input afresh. Caches are keyed
/// by identity, so every spelling of the same files shares one load. The
/// resolutions and both caches hold a constant number of entries each, so
/// a client cycling spellings cannot grow them.
class InputResolver {
 public:
  /// `base`: directory relative paths resolve against. `cache` must
  /// outlive the resolver.
  InputResolver(std::filesystem::path base, TraceCache& cache);

  std::filesystem::path resolve(const std::string& path) const;

  /// A platform and its memo identity (SweepEntry::platform_key). Topology
  /// specs build through the registry; anything else is a platform file.
  struct ResolvedPlatform {
    std::shared_ptr<const plat::Platform> platform;
    std::string key;
  };
  ResolvedPlatform platform(const std::string& spec);

  std::shared_ptr<const plat::Deployment> deployment(const std::string& file);

  /// Resolves traces=/merged= through the TraceCache. On decode failure the
  /// error is swallowed and an uncached lazy TraceSet handle is returned
  /// (hit=false, zero digest) so the scenario fails at replay time with the
  /// original per-row semantics; so is a file that cannot be stat'ed.
  CachedTrace traces(const std::string& spec, bool merged);

 private:
  /// One spelling resolved: every named directory and every input file
  /// with the identity it had, and the cache key those identities make.
  struct Resolution {
    std::vector<std::pair<std::filesystem::path, FileIdentity>> watched;
    std::string key;

    /// The input files (the watched entries that are not directories).
    std::vector<std::filesystem::path> files() const;
  };

  /// `path` alone, keyed `prefix` + its identity; nullopt when it cannot
  /// be stat'ed.
  static std::optional<Resolution> single_file(
      const std::string& prefix, const std::filesystem::path& path);

  /// A traces= list: each directory expanded to its process files, keyed
  /// by their identities in pid order; nullopt when a file cannot be
  /// stat'ed. Throws tir::IoError for a directory without traces.
  static std::optional<Resolution> trace_files(
      const std::vector<std::filesystem::path>& paths);

  /// The resolution of `spelling`, re-validated with one stat per watched
  /// entry and made afresh by `resolve` when missing or changed; null when
  /// `resolve` finds a file it cannot stat.
  template <class Resolve>
  const Resolution* current(const std::string& spelling, Resolve&& resolve);

  /// Drops every cache entry keyed by a stale resolution's key.
  void forget(const std::string& key);

  std::filesystem::path base_;
  TraceCache& trace_cache_;
  LruMap<Resolution> resolutions_;
  LruMap<std::shared_ptr<const plat::Platform>> platforms_;
  LruMap<std::shared_ptr<const plat::Deployment>> deployments_;
};

/// Builds one scenario from its parameters. `index` names anonymous rows
/// ("scenario-<index>"). Throws tir::Error/ParseError with the scenario
/// name in the message; fault targets are validated against the platform.
/// The keys are name, platform, traces, merged, deployment, eager,
/// collectives, efficiency, fault, perturb, mc and seed; any other is a
/// ParseError naming it, except the retired fastpath, shards and decode,
/// which are ignored.
SweepEntry build_scenario(const KeyValues& kv, InputResolver& resolver,
                          std::size_t index);

/// The scenarios one list row replays, in tir-sweep's row order: the spec
/// alone without a perturbation; replica 0 (name#r0) with perturb= but no
/// mc=; with mc=N, replay::monte_carlo_rows — name#r0 .. name#r<N-1> and
/// the unperturbed name#baseline.
std::vector<replay::ScenarioSpec> sweep_rows(const SweepEntry& entry);

}  // namespace tir::serve
