// The topology registry: named platform builders behind spec strings.
//
// A spec string is "<name>" or "<name>:key=value,key=value,...", e.g.
//   cluster:hosts=64,bw=10Gbps
//   dragonfly:groups=9,routers=4,hosts=2,routing=valiant
//   fattree:k=8
//   torus:dims=4x4x4,hosts=2
// Values go through the same unit parser as platform files (units.hpp), so
// "10Gbps", "50us" and "1.17E9" all work. Unknown names and unknown keys
// are hard errors — a typo must not silently fall back to a default.
//
// The registry is a constant table of the builtins (bordereau, cluster,
// dragonfly, fattree, gdx, torus). CLI tools resolve `--platform <arg>`
// through load_platform_spec(), which treats a registered topology name as
// a spec and anything else as a platform-file path.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "platform/platform.hpp"

namespace tir::plat {

/// Parsed key=value parameters of a topology spec. Builders pull typed
/// values out with the get_* accessors; every key read is recorded so the
/// registry can reject specs with unknown (unread) keys.
class TopoParams {
 public:
  TopoParams() = default;

  /// Parses "key=value,key=value,..."; empty text means no parameters.
  static TopoParams parse(std::string_view text, const std::string& where);

  bool has(const std::string& key) const;

  /// Raw string value, or `fallback` when the key is absent.
  std::string get(const std::string& key, const std::string& fallback) const;
  /// Integer value (no unit suffix) that fits an int.
  int get_int(const std::string& key, int fallback) const;
  /// Value with an optional SI/IEC suffix — flop rates, bandwidths.
  double get_value(const std::string& key, double fallback) const;
  /// Duration with an optional ns/us/ms/s suffix.
  double get_duration(const std::string& key, double fallback) const;
  /// "4x4x4" / "4,4,4"-style positive-integer list.
  std::vector<int> get_dims(const std::string& key,
                            const std::vector<int>& fallback) const;

  /// Keys present in the spec but never read by the builder.
  std::vector<std::string> unread_keys() const;

 private:
  const std::string* find(const std::string& key) const;

  std::string where_ = "topology spec";
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
};

/// True when `topo_name` is a registered topology; names match verbatim.
bool is_topology(const std::string& topo_name);

/// Registered names with their one-line summaries, sorted by name.
std::vector<std::pair<std::string, std::string>> topology_list();

/// Runs the named builder, which populates `platform` and returns the host
/// ids in deployment order. Throws ParseError on unknown names or when the
/// spec carries keys the builder does not understand.
std::vector<HostId> make(Platform& platform, const std::string& topo_name,
                         const TopoParams& params);

/// Builds a platform from a spec string "<name>[:key=value,...]".
Platform make_platform(const std::string& spec);

/// Resolves a CLI platform argument: a registered topology name (optionally
/// with ":key=value,..." parameters) builds through the registry, anything
/// else loads as a platform file. File errors mention the known topology
/// names so a typo'd spec is diagnosable.
Platform load_platform_spec(const std::string& file_or_spec);

}  // namespace tir::plat
