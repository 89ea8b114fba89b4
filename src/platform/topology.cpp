#include "platform/topology.hpp"

#include <initializer_list>
#include <limits>
#include <string_view>
#include <utility>

#include "platform/cluster.hpp"
#include "platform/platform_file.hpp"
#include "platform/topo.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/units.hpp"

namespace tir::plat {

// ---------------------------------------------------------------------------
// TopoParams

namespace {

// Narrows a parsed value to the int the builders take: past int range a
// cast would wrap (4294967297 hosts would become 1).
int narrow(long long value, const std::string& where, const std::string& key) {
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max())
    throw ParseError(where + ": key '" + key + "' is out of range");
  return static_cast<int>(value);
}

}  // namespace

TopoParams TopoParams::parse(std::string_view text, const std::string& where) {
  TopoParams params;
  params.where_ = where;
  for (const auto entry : str::split(text, ',')) {
    const auto trimmed = str::trim(entry);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos || eq == 0)
      throw ParseError(where + ": expected key=value, got '" +
                       std::string(trimmed) + "'");
    const std::string key{str::trim(trimmed.substr(0, eq))};
    const std::string value{str::trim(trimmed.substr(eq + 1))};
    if (value.empty())
      throw ParseError(where + ": empty value for key '" + key + "'");
    if (!params.values_.emplace(key, value).second)
      throw ParseError(where + ": duplicate key '" + key + "'");
  }
  return params;
}

const std::string* TopoParams::find(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  read_[key] = true;
  return &it->second;
}

bool TopoParams::has(const std::string& key) const {
  return find(key) != nullptr;
}

std::string TopoParams::get(const std::string& key,
                            const std::string& fallback) const {
  const std::string* v = find(key);
  return v ? *v : fallback;
}

int TopoParams::get_int(const std::string& key, int fallback) const {
  const std::string* v = find(key);
  if (!v) return fallback;
  long long value = 0;
  try {
    value = str::to_int(*v);
  } catch (const ParseError&) {
    throw ParseError(where_ + ": key '" + key + "' expects an integer, got '" +
                     *v + "'");
  }
  return narrow(value, where_, key);
}

double TopoParams::get_value(const std::string& key, double fallback) const {
  const std::string* v = find(key);
  if (!v) return fallback;
  try {
    return units::parse_value(*v);
  } catch (const ParseError&) {
    throw ParseError(where_ + ": key '" + key + "' expects a value, got '" +
                     *v + "'");
  }
}

double TopoParams::get_duration(const std::string& key, double fallback) const {
  const std::string* v = find(key);
  if (!v) return fallback;
  try {
    return units::parse_duration(*v);
  } catch (const ParseError&) {
    throw ParseError(where_ + ": key '" + key + "' expects a duration, got '" +
                     *v + "'");
  }
}

std::vector<int> TopoParams::get_dims(const std::string& key,
                                      const std::vector<int>& fallback) const {
  const std::string* v = find(key);
  if (!v) return fallback;
  std::vector<int> dims;
  for (const auto part : str::split(*v, 'x')) {
    const auto trimmed = str::trim(part);
    if (trimmed.empty())
      throw ParseError(where_ + ": key '" + key + "' expects NxNx..., got '" +
                       *v + "'");
    long long dim = 0;
    try {
      dim = str::to_int(trimmed);
    } catch (const ParseError&) {
      throw ParseError(where_ + ": key '" + key + "' expects NxNx..., got '" +
                       *v + "'");
    }
    dims.push_back(narrow(dim, where_, key));
  }
  return dims;
}

std::vector<std::string> TopoParams::unread_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, _] : values_) {
    const auto it = read_.find(key);
    if (it == read_.end() || !it->second) out.push_back(key);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Registry

namespace {

// Largest host, switch or cable count a registry spec may ask for. The
// largest registry platform any list, test or bench builds has 544 hosts;
// a count past this is a typo, and it must fail here, before the builder
// allocates, rather than after seconds of allocation with std::bad_alloc.
constexpr long long kMaxCount = 1 << 20;

/// Product of counts, saturating at kMaxCount + 1 so that no parameter
/// value can overflow it. A factor below 1 gives 0: the builder rejects it
/// with its own message.
long long count_product(std::initializer_list<long long> factors) {
  long long product = 1;
  for (const long long f : factors) {
    if (f < 1) return 0;
    if (product > kMaxCount / f) return kMaxCount + 1;
    product *= f;
  }
  return product;
}

void check_count(const char* topo, const char* what, long long count) {
  if (count > kMaxCount)
    throw ParseError("topology '" + std::string(topo) + "': more than " +
                     std::to_string(kMaxCount) + " " + what);
}

std::vector<HostId> build_cluster_topo(Platform& platform,
                                       const TopoParams& params) {
  ClusterSpec spec;
  spec.count = params.get_int("hosts", 16);
  check_count("cluster", "hosts", count_product({spec.count}));
  spec.prefix = params.get("prefix", spec.prefix);
  spec.suffix = params.get("suffix", spec.suffix);
  spec.power = params.get_value("power", spec.power);
  spec.bandwidth = params.get_value("bw", spec.bandwidth);
  spec.latency = params.get_duration("lat", spec.latency);
  spec.backbone_bandwidth = params.get_value("bb_bw", spec.backbone_bandwidth);
  spec.backbone_latency = params.get_duration("bb_lat", spec.backbone_latency);
  spec.loopback_bandwidth =
      params.get_value("loopback_bw", spec.loopback_bandwidth);
  spec.loopback_latency =
      params.get_duration("loopback_lat", spec.loopback_latency);
  return build_cluster(platform, spec);
}

std::vector<HostId> build_bordereau_topo(Platform& platform,
                                         const TopoParams& params) {
  const int nodes = params.get_int("nodes", 93);
  check_count("bordereau", "hosts", count_product({nodes}));
  return build_bordereau(platform, nodes);
}

std::vector<HostId> build_gdx_topo(Platform& platform,
                                   const TopoParams& params) {
  GdxSpec spec;
  spec.nodes = params.get_int("nodes", spec.nodes);
  spec.cabinets = params.get_int("cabinets", spec.cabinets);
  check_count("gdx", "hosts", count_product({spec.nodes}));
  check_count("gdx", "cabinets", count_product({spec.cabinets}));
  spec.power = params.get_value("power", spec.power);
  spec.bandwidth = params.get_value("bw", spec.bandwidth);
  spec.latency = params.get_duration("lat", spec.latency);
  return build_gdx(platform, spec);
}

std::vector<HostId> build_dragonfly_topo(Platform& platform,
                                         const TopoParams& params) {
  DragonflySpec spec;
  spec.groups = params.get_int("groups", spec.groups);
  spec.routers = params.get_int("routers", spec.routers);
  spec.hosts = params.get_int("hosts", spec.hosts);
  spec.globals = params.get_int("globals", spec.globals);
  const long long g = spec.groups;
  const long long r = spec.routers;
  check_count("dragonfly", "switches", count_product({g, r}));
  check_count("dragonfly", "hosts", count_product({g, r, spec.hosts}));
  // Every group is a complete graph of its routers, and every pair of
  // groups is joined by one global cable.
  const long long local = r < 1 ? 0 : r * (r - 1) / 2;
  const long long global = g < 1 ? 0 : g * (g - 1) / 2;
  check_count("dragonfly", "cables",
              count_product({g, local}) + count_product({global}));
  spec.routing = params.get("routing", spec.routing);
  spec.power = params.get_value("power", spec.power);
  spec.bandwidth = params.get_value("bw", spec.bandwidth);
  spec.latency = params.get_duration("lat", spec.latency);
  spec.local_bandwidth = params.get_value("local_bw", spec.local_bandwidth);
  spec.local_latency = params.get_duration("local_lat", spec.local_latency);
  spec.global_bandwidth = params.get_value("global_bw", spec.global_bandwidth);
  spec.global_latency = params.get_duration("global_lat", spec.global_latency);
  spec.prefix = params.get("prefix", spec.prefix);
  return build_dragonfly(platform, spec);
}

std::vector<HostId> build_fattree_topo(Platform& platform,
                                       const TopoParams& params) {
  FatTreeSpec spec;
  spec.k = params.get_int("k", spec.k);
  const long long half = spec.k / 2;
  check_count("fattree", "hosts", count_product({spec.k, half, half}));
  check_count("fattree", "switches",
              count_product({spec.k, spec.k}) + count_product({half, half}));
  spec.routing = params.get("routing", spec.routing);
  spec.power = params.get_value("power", spec.power);
  spec.bandwidth = params.get_value("bw", spec.bandwidth);
  spec.latency = params.get_duration("lat", spec.latency);
  spec.link_bandwidth = params.get_value("link_bw", spec.link_bandwidth);
  spec.link_latency = params.get_duration("link_lat", spec.link_latency);
  spec.prefix = params.get("prefix", spec.prefix);
  return build_fattree(platform, spec);
}

std::vector<HostId> build_torus_topo(Platform& platform,
                                     const TopoParams& params) {
  TorusSpec spec;
  spec.dims = params.get_dims("dims", spec.dims);
  spec.hosts = params.get_int("hosts", spec.hosts);
  long long switches = 1;
  for (const int d : spec.dims) switches = count_product({switches, d});
  check_count("torus", "switches", switches);
  check_count("torus", "hosts", count_product({switches, spec.hosts}));
  spec.routing = params.get("routing", spec.routing);
  spec.power = params.get_value("power", spec.power);
  spec.bandwidth = params.get_value("bw", spec.bandwidth);
  spec.latency = params.get_duration("lat", spec.latency);
  spec.link_bandwidth = params.get_value("link_bw", spec.link_bandwidth);
  spec.link_latency = params.get_duration("link_lat", spec.link_latency);
  spec.prefix = params.get("prefix", spec.prefix);
  return build_torus(platform, spec);
}

struct Topology {
  std::string_view name;
  std::vector<HostId> (*build)(Platform&, const TopoParams&);
  std::string_view summary;
};

// The builtins, sorted by name.
constexpr Topology kTopologies[] = {
    {"bordereau", build_bordereau_topo,
     "Grid'5000 bordereau, one 10-GbE switch (nodes)"},
    {"cluster", build_cluster_topo,
     "flat switched cluster (hosts, bw, lat, bb_bw, bb_lat)"},
    {"dragonfly", build_dragonfly_topo,
     "Kim-et-al dragonfly (groups, routers, hosts, globals, "
     "routing=minimal|valiant)"},
    {"fattree", build_fattree_topo,
     "3-level k-ary fat-tree (k, routing=dmodk|shortest)"},
    {"gdx", build_gdx_topo,
     "Grid'5000 gdx with cabinet hierarchy (nodes, cabinets)"},
    {"torus", build_torus_topo,
     "k-ary n-cube torus (dims=4x4x4, hosts, routing=dor|shortest)"},
};

const Topology* find_topology(std::string_view topo_name) {
  for (const Topology& t : kTopologies)
    if (t.name == topo_name) return &t;
  return nullptr;
}

std::string known_topologies() {
  std::string out;
  for (const Topology& t : kTopologies) {
    if (!out.empty()) out += ", ";
    out += t.name;
  }
  return out;
}

}  // namespace

bool is_topology(const std::string& topo_name) {
  return find_topology(topo_name) != nullptr;
}

std::vector<std::pair<std::string, std::string>> topology_list() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Topology& t : kTopologies)
    out.emplace_back(t.name, t.summary);
  return out;
}

std::vector<HostId> make(Platform& platform, const std::string& topo_name,
                         const TopoParams& params) {
  const Topology* topology = find_topology(topo_name);
  if (topology == nullptr)
    throw ParseError("unknown topology '" + topo_name + "' (known: " +
                     known_topologies() + ")");
  std::vector<HostId> hosts = topology->build(platform, params);
  const auto unread = params.unread_keys();
  if (!unread.empty()) {
    std::string keys;
    for (const auto& key : unread) {
      if (!keys.empty()) keys += ", ";
      keys += key;
    }
    throw ParseError("topology '" + topo_name + "': unknown key(s): " + keys);
  }
  return hosts;
}

Platform make_platform(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string topo_name{str::trim(spec.substr(0, colon))};
  const std::string_view rest =
      colon == std::string::npos
          ? std::string_view{}
          : std::string_view{spec}.substr(colon + 1);
  const TopoParams params =
      TopoParams::parse(rest, "topology spec '" + spec + "'");
  Platform platform;
  make(platform, topo_name, params);
  return platform;
}

Platform load_platform_spec(const std::string& file_or_spec) {
  const auto colon = file_or_spec.find(':');
  const std::string head{str::trim(file_or_spec.substr(0, colon))};
  if (is_topology(head)) return make_platform(file_or_spec);
  try {
    return load_platform_file(file_or_spec);
  } catch (const IoError& e) {
    throw IoError(std::string(e.what()) + " (not a registered topology "
                  "either; known: " + known_topologies() + ")");
  }
}

}  // namespace tir::plat
