#include "serve/scenario_build.hpp"

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
    if (used != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ParseError(what + ": expected a number, got '" + s + "'");
  }
}

std::uint64_t parse_u64(const std::string& what, const std::string& s) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
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

InputResolver::InputResolver(fs::path base, TraceCache& cache)
    : base_(std::move(base)), trace_cache_(cache) {
  if (base_.empty()) base_ = ".";
}

fs::path InputResolver::resolve(const std::string& path) const {
  const fs::path p(path);
  return p.is_absolute() ? p : base_ / p;
}

namespace {

/// "dir", "./dir" and "/abs/dir" must key identically; weakly_canonical
/// normalises dot segments and symlinks without requiring the leaf to
/// exist.
std::string canonical_path_key(const fs::path& p) {
  std::error_code ec;
  const fs::path canon = fs::weakly_canonical(p, ec);
  return (ec ? p.lexically_normal() : canon).string();
}

bool is_topology_spec(const std::string& spec) {
  const std::string head{str::trim(spec.substr(0, spec.find(':')))};
  return plat::is_topology(head);
}

}  // namespace

std::shared_ptr<const plat::Platform> InputResolver::platform(
    const std::string& spec) {
  auto it = platforms_.find(spec);
  if (it == platforms_.end()) {
    // Topology specs build through the registry; anything else is a file
    // path and resolves against the base directory.
    auto built = is_topology_spec(spec)
                     ? plat::make_platform(spec)
                     : plat::load_platform_file(resolve(spec).string());
    it = platforms_
             .emplace(spec, std::make_shared<const plat::Platform>(
                                std::move(built)))
             .first;
  }
  return it->second;
}

std::string InputResolver::platform_key(const std::string& spec) const {
  return is_topology_spec(spec) ? spec : canonical_path_key(resolve(spec));
}

const plat::Deployment& InputResolver::deployment(const std::string& file) {
  auto it = deployments_.find(file);
  if (it == deployments_.end())
    it = deployments_
             .emplace(file,
                      plat::load_deployment_file(resolve(file).string()))
             .first;
  return it->second;
}

CachedTrace InputResolver::traces(const std::string& spec, bool merged) {
  std::string key;
  TraceCache::Loader load;
  if (merged) {
    // merged=FILE:N — one file carrying N process streams.
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos)
      throw Error("merged=" + spec + ": expected FILE:NPROCS");
    const fs::path file = resolve(spec.substr(0, colon));
    const int nprocs =
        parse_int("merged=" + spec, spec.substr(colon + 1));
    key = "merged:" + canonical_path_key(file) + ":" + std::to_string(nprocs);
    load = [file, nprocs] {
      return trace::TraceSet::merged_file(file, nprocs);
    };
  } else {
    std::vector<fs::path> paths;
    for (const auto& token : str::split(spec, ','))
      paths.push_back(resolve(std::string(token)));
    const std::vector<fs::path> files = trace::process_trace_files(paths);
    key = "split:";
    for (const auto& f : files) {
      key += canonical_path_key(f);
      key += ',';
    }
    load = [files] { return trace::TraceSet::per_process_files(files); };
  }

  try {
    return trace_cache_.get(key, load);
  } catch (const std::exception&) {
    // The cache decodes eagerly (it must, to digest); sweep rows decode
    // lazily so a missing or corrupt trace fails *that row* mid-sweep, not
    // the whole list. Hand back an uncached lazy handle and let the replay
    // rediscover the error.
    CachedTrace out;
    out.traces = load();
    return out;
  }
}

SweepEntry build_scenario(const KeyValues& kv, InputResolver& resolver,
                          std::size_t index) {
  SweepEntry entry;
  replay::ScenarioSpec& spec = entry.spec;
  if (const auto* name = kv.find("name"))
    spec.name = *name;
  else
    spec.name = "scenario-" + std::to_string(index);

  const auto* platform = kv.find("platform");
  if (platform == nullptr)
    throw Error("scenario '" + spec.name + "': missing platform=");
  spec.platform = resolver.platform(*platform);
  spec.platform_label = *platform;
  entry.platform_key = resolver.platform_key(*platform);

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
        resolver.deployment(*deployment).resolve(*spec.platform);

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
        parse_double("scenario '" + spec.name + "': efficiency", *eff);
  if (const auto* fault = kv.find("fault"))
    for (const auto& token : str::split(*fault, ','))
      spec.faults.push_back(parse_fault(spec.name, std::string(token)));
  if (const auto* perturb = kv.find("perturb")) {
    entry.perturb = parse_perturb(spec.name, *perturb);
    entry.has_perturb = true;
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

replay::ScenarioSpec bake_replica(const SweepEntry& entry, int replica) {
  if (!entry.has_perturb || entry.perturb.empty()) {
    if (replica != 0)
      throw Error("scenario '" + entry.spec.name +
                  "': replica " + std::to_string(replica) +
                  " requested without a perturbation");
    return entry.spec;
  }
  replay::ScenarioSpec spec = entry.spec;
  spec.name = entry.spec.name + "#r" + std::to_string(replica);
  auto faults = replay::expand_perturbation(
      entry.perturb, *spec.platform, entry.seed,
      static_cast<std::uint64_t>(replica));
  spec.faults.insert(spec.faults.end(), faults.begin(), faults.end());
  return spec;
}

}  // namespace tir::serve
