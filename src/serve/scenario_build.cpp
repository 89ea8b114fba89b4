#include "serve/scenario_build.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string_view>
#include <utility>

#include "platform/platform_file.hpp"
#include "platform/topology.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/units.hpp"

namespace tir::serve {

namespace fs = std::filesystem;

int parse_int(const std::string& what, const std::string& s) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ParseError(what + ": expected an integer, got '" + s + "'");
  }
}

double parse_double(const std::string& what, const std::string& s) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size() || !std::isfinite(v)) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ParseError(what + ": expected a finite number, got '" + s + "'");
  }
}

double parse_positive(const std::string& what, const std::string& s) {
  const double v = parse_double(what, s);
  if (!(v > 0))
    throw ParseError(what + ": expected a number > 0, got '" + s + "'");
  return v;
}

std::uint64_t parse_u64(const std::string& what, const std::string& s) {
  try {
    // stoull wraps a leading '-' around: "-1" would read as 2^64 - 1.
    std::size_t used = 0;
    const unsigned long long v = std::stoull(s, &used);
    if (used != s.size() || s.find('-') != std::string::npos)
      throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ParseError(what + ": expected a non-negative integer, got '" + s +
                     "'");
  }
}

replay::FaultSpec parse_fault(const std::string& scenario,
                              const std::string& entry) {
  const std::string what = "scenario '" + scenario + "': fault '" + entry +
                           "'";
  const auto at = entry.rfind('@');
  if (at == std::string::npos)
    throw Error(what + ": missing @TIME");
  replay::FaultSpec fault;

  // TIMES = START[-END][xN][/PERIOD], parsed back to front.
  std::string times = entry.substr(at + 1);
  if (const auto slash = times.find('/'); slash != std::string::npos) {
    fault.period = parse_double(what + " period", times.substr(slash + 1));
    times = times.substr(0, slash);
  }
  if (const auto x = times.find('x'); x != std::string::npos) {
    fault.repeat = parse_int(what + " repeat", times.substr(x + 1));
    times = times.substr(0, x);
  }
  // A '-' splits START-END unless it is an exponent sign ("1e-3").
  auto dash = std::string::npos;
  for (std::size_t i = 1; i < times.size(); ++i)
    if (times[i] == '-' && times[i - 1] != 'e' && times[i - 1] != 'E') {
      dash = i;
      break;
    }
  if (dash != std::string::npos) {
    fault.until_time = parse_double(what + " until", times.substr(dash + 1));
    times = times.substr(0, dash);
  }
  fault.at_time = parse_double(what + " time", times);

  // Named, not a temporary: split() returns views into this string and a
  // range-for does not lifetime-extend its range initializer.
  const std::string body = entry.substr(0, at);
  std::vector<std::string> parts;
  for (const auto& p : str::split(body, ':'))
    parts.emplace_back(p);
  if (parts.size() < 3) throw Error(what + ": expected kind:NAME:FACTOR");
  fault.target = parts[1];
  if (parts[0] == "host") {
    if (parts.size() != 3) throw Error(what + ": host takes one factor");
    fault.kind = replay::FaultSpec::Kind::host;
    fault.compute_factor = parse_double(what + " factor", parts[2]);
  } else if (parts[0] == "link") {
    if (parts.size() > 4) throw Error(what + ": too many link factors");
    fault.kind = replay::FaultSpec::Kind::link;
    fault.bandwidth_factor = parse_double(what + " bandwidth", parts[2]);
    if (parts.size() == 4)
      fault.latency_factor = parse_double(what + " latency", parts[3]);
  } else {
    throw Error(what + ": kind must be host or link");
  }
  return fault;
}

replay::PerturbSpec parse_perturb(const std::string& scenario,
                                  const std::string& value) {
  const std::string what = "scenario '" + scenario + "': perturb";
  replay::PerturbSpec spec;
  for (const auto& token : str::split(value, ',')) {
    const std::string pair(token);
    const auto colon = pair.find(':');
    if (colon == std::string::npos || colon == 0)
      throw Error(what + ": expected key:value, got '" + pair + "'");
    const std::string key = pair.substr(0, colon);
    const double v = parse_double(what + " " + key, pair.substr(colon + 1));
    if (key == "hostnoise")
      spec.host_noise = v;
    else if (key == "bwnoise")
      spec.link_bw_noise = v;
    else if (key == "latnoise")
      spec.link_lat_noise = v;
    else if (key == "rate")
      spec.fault_rate = v;
    else if (key == "horizon")
      spec.fault_horizon = v;
    else if (key == "duration")
      spec.fault_duration = v;
    else if (key == "severity")
      spec.fault_severity = v;
    else if (key == "min")
      spec.min_factor = v;
    else if (key == "max")
      spec.max_factor = v;
    else
      throw Error(what + ": unknown key '" + key + "'");
  }
  return spec;
}

namespace {

// The sweep-list vocabulary, then the retired engine knobs (fastpath=,
// shards=) and trace decode path (decode=), which old lists may still carry
// and which build_scenario ignores. Any other key is a typo, refused
// instead of replayed as the baseline.
constexpr std::string_view kKeys[] = {
    "name",  "platform",    "traces",     "merged", "deployment",
    "eager", "collectives", "efficiency", "fault",  "perturb",
    "mc",    "seed",        "fastpath",   "shards", "decode"};

// Resolutions outnumber inputs (every spelling of a directory has one);
// platforms and deployments are few and heavy.
constexpr std::size_t kMaxResolutions = 256;
constexpr std::size_t kMaxPlatforms = 64;
constexpr std::size_t kMaxDeployments = 64;

bool is_topology_spec(const std::string& spec) {
  const std::string head{str::trim(spec.substr(0, spec.find(':')))};
  return plat::is_topology(head);
}

}  // namespace

InputResolver::InputResolver(fs::path base, TraceCache& cache)
    : base_(std::move(base)),
      trace_cache_(cache),
      resolutions_(kMaxResolutions),
      platforms_(kMaxPlatforms),
      deployments_(kMaxDeployments) {
  if (base_.empty()) base_ = ".";
}

fs::path InputResolver::resolve(const std::string& path) const {
  const fs::path p(path);
  return p.is_absolute() ? p : base_ / p;
}

std::optional<InputResolver::Resolution> InputResolver::single_file(
    const std::string& prefix, const fs::path& path) {
  const auto id = stat_identity(path);
  if (!id) return std::nullopt;
  Resolution r;
  r.watched.emplace_back(path, *id);
  r.key = prefix + id->key();
  return r;
}

std::optional<InputResolver::Resolution> InputResolver::trace_files(
    const std::vector<fs::path>& paths) {
  Resolution r;
  r.key = "split:";
  const auto add_file = [&r](const fs::path& file,
                             const FileIdentity& id) {
    r.watched.emplace_back(file, id);
    r.key += id.key();
    r.key += ',';
  };
  for (const fs::path& path : paths) {
    const auto id = stat_identity(path);
    if (!id) return std::nullopt;
    if (!id->directory) {
      add_file(path, *id);
      continue;
    }
    // A directory stands for its SG_process<i>.trace files; watching its
    // own identity notices files added, removed or renamed there.
    r.watched.emplace_back(path, *id);
    for (const fs::path& file : trace::process_trace_files({path})) {
      const auto file_id = stat_identity(file);
      if (!file_id) return std::nullopt;
      add_file(file, *file_id);
    }
  }
  return r;
}

std::vector<fs::path> InputResolver::Resolution::files() const {
  std::vector<fs::path> out;
  for (const auto& [path, id] : watched)
    if (!id.directory) out.push_back(path);
  return out;
}

template <class Resolve>
const InputResolver::Resolution* InputResolver::current(
    const std::string& spelling, Resolve&& resolve) {
  std::string stale;
  if (Resolution* held = resolutions_.find(spelling)) {
    bool unchanged = true;
    for (const auto& [path, id] : held->watched) {
      const auto now = stat_identity(path);
      if (!now || !(*now == id)) {
        unchanged = false;
        break;
      }
    }
    if (unchanged) return held;
    stale = std::move(held->key);
    resolutions_.erase(spelling);
  }
  std::optional<Resolution> fresh;
  try {
    fresh = resolve();
  } catch (...) {
    forget(stale);
    throw;
  }
  // A directory touched without changing its trace files keeps its key.
  if (!fresh || fresh->key != stale) forget(stale);
  if (!fresh) return nullptr;
  return &resolutions_.put(spelling, std::move(*fresh));
}

void InputResolver::forget(const std::string& key) {
  if (key.empty()) return;
  trace_cache_.forget(key);
  platforms_.erase(key);
  deployments_.erase(key);
}

InputResolver::ResolvedPlatform InputResolver::platform(
    const std::string& spec) {
  if (is_topology_spec(spec)) {
    auto* built = platforms_.find(spec);
    if (built == nullptr)
      built = &platforms_.put(spec, std::make_shared<const plat::Platform>(
                                        plat::make_platform(spec)));
    return {*built, spec};
  }
  // Anything else is a file path and resolves against the base directory.
  const fs::path path = resolve(spec);
  const Resolution* r = current(
      "platform=" + spec, [&] { return single_file("platform:", path); });
  if (r == nullptr) throw IoError("cannot open '" + path.string() + "'");
  auto* loaded = platforms_.find(r->key);
  if (loaded == nullptr)
    loaded = &platforms_.put(r->key,
                             std::make_shared<const plat::Platform>(
                                 plat::load_platform_file(path.string())));
  return {*loaded, r->key};
}

std::shared_ptr<const plat::Deployment> InputResolver::deployment(
    const std::string& file) {
  const fs::path path = resolve(file);
  const Resolution* r = current("deployment=" + file, [&] {
    return single_file("deployment:", path);
  });
  if (r == nullptr) throw IoError("cannot open '" + path.string() + "'");
  auto* loaded = deployments_.find(r->key);
  if (loaded == nullptr)
    loaded = &deployments_.put(r->key,
                               std::make_shared<const plat::Deployment>(
                                   plat::load_deployment_file(path.string())));
  return *loaded;
}

CachedTrace InputResolver::traces(const std::string& spec, bool merged) {
  const Resolution* r = nullptr;
  TraceCache::Loader load;
  if (merged) {
    // merged=FILE:N — one file carrying N process streams.
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos)
      throw Error("merged=" + spec + ": expected FILE:NPROCS");
    const fs::path file = resolve(spec.substr(0, colon));
    const int nprocs =
        parse_int("merged=" + spec, spec.substr(colon + 1));
    r = current("merged=" + spec, [&] {
      return single_file("merged:" + std::to_string(nprocs) + ":", file);
    });
    load = [file, nprocs] {
      return trace::TraceSet::merged_file(file, nprocs);
    };
  } else {
    std::vector<fs::path> paths;
    for (const auto& token : str::split(spec, ','))
      paths.push_back(resolve(std::string(token)));
    r = current("traces=" + spec, [&] { return trace_files(paths); });
    // Lists the files only when it runs, on a cache miss; `r` outlives it.
    load = [r, paths = std::move(paths)] {
      return trace::TraceSet::per_process_files(
          r != nullptr ? r->files() : trace::process_trace_files(paths));
    };
  }

  // A file that cannot be stat'ed cannot be read either: no cache entry,
  // the replay reports it.
  if (r != nullptr) {
    try {
      return trace_cache_.get(r->key, load);
    } catch (const std::exception&) {
      // The cache decodes eagerly (it must, to digest); sweep rows decode
      // lazily so a missing or corrupt trace fails *that row* mid-sweep,
      // not the whole list. Fall through to an uncached lazy handle and let
      // the replay rediscover the error.
    }
  }
  CachedTrace out;
  out.traces = load();
  return out;
}

SweepEntry build_scenario(const KeyValues& kv, InputResolver& resolver,
                          std::size_t index) {
  SweepEntry entry;
  replay::ScenarioSpec& spec = entry.spec;
  if (const auto* name = kv.find("name"))
    spec.name = *name;
  else
    spec.name = "scenario-" + std::to_string(index);
  for (const auto& [key, value] : kv.kv)
    if (std::ranges::find(kKeys, key) == std::end(kKeys))
      throw ParseError("scenario '" + spec.name + "': unknown key '" + key +
                       "'");

  const auto* platform = kv.find("platform");
  if (platform == nullptr)
    throw Error("scenario '" + spec.name + "': missing platform=");
  auto resolved = resolver.platform(*platform);
  spec.platform = std::move(resolved.platform);
  spec.platform_label = *platform;
  entry.platform_key = std::move(resolved.key);

  CachedTrace cached;
  if (const auto* merged = kv.find("merged")) {
    cached = resolver.traces(*merged, /*merged=*/true);
  } else if (const auto* traces = kv.find("traces")) {
    cached = resolver.traces(*traces, /*merged=*/false);
  } else {
    throw Error("scenario '" + spec.name + "': missing traces= or merged=");
  }
  spec.traces = cached.traces;
  entry.trace_digest = cached.digest;
  entry.trace_cache_hit = cached.hit;
  entry.trace_decode_seconds = cached.decode_seconds;

  const auto* deployment = kv.find("deployment");
  if (deployment == nullptr)
    throw Error("scenario '" + spec.name + "': missing deployment=");
  if (*deployment == "block" || *deployment == "roundrobin" ||
      *deployment == "rr")
    spec.process_hosts = plat::resolve_deployment_spec(
        *deployment, *spec.platform, spec.traces.nprocs());
  else
    spec.process_hosts =
        resolver.deployment(*deployment)->resolve(*spec.platform);

  if (const auto* eager = kv.find("eager"))
    spec.config.mpi.eager_threshold = units::parse_bytes(*eager);
  if (const auto* coll = kv.find("collectives")) {
    if (*coll == "flat")
      spec.config.mpi.collectives = mpi::CollectiveAlgo::flat;
    else if (*coll == "binomial")
      spec.config.mpi.collectives = mpi::CollectiveAlgo::binomial;
    else
      throw Error("scenario '" + spec.name + "': unknown collectives '" +
                  *coll + "'");
  }
  if (const auto* eff = kv.find("efficiency"))
    spec.config.compute_efficiency =
        parse_positive("scenario '" + spec.name + "': efficiency", *eff);
  if (const auto* fault = kv.find("fault"))
    for (const auto& token : str::split(*fault, ','))
      spec.faults.push_back(parse_fault(spec.name, std::string(token)));
  if (const auto* perturb = kv.find("perturb")) {
    entry.perturb = parse_perturb(spec.name, *perturb);
    replay::validate_perturbation(entry.perturb,
                                  "scenario '" + spec.name + "': perturb");
  }
  if (const auto* mc = kv.find("mc")) {
    entry.mc = parse_int("scenario '" + spec.name + "': mc", *mc);
    if (entry.mc < 1)
      throw Error("scenario '" + spec.name + "': mc must be >= 1");
  }
  if (const auto* seed = kv.find("seed"))
    entry.seed = parse_u64("scenario '" + spec.name + "': seed", *seed);

  // Fail fast: resolve fault targets against the platform now, so an
  // unknown host/link name is reported with the scenario it came from
  // instead of throwing mid-replay inside a worker.
  replay::validate_faults(spec);
  return entry;
}

std::vector<replay::ScenarioSpec> sweep_rows(const SweepEntry& entry) {
  if (entry.perturb.empty()) return {entry.spec};
  if (entry.mc == 0)
    return {replay::perturbed_replica(entry.spec, entry.perturb, entry.seed,
                                      0)};
  return replay::monte_carlo_rows(entry.spec, entry.perturb, entry.seed,
                                  entry.mc);
}

}  // namespace tir::serve
