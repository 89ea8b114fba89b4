// Platform description: hosts, links, and pluggable routing.
//
// A Platform is a pure data model (no simulation state). Route computation
// is delegated to a RouteProvider (route_provider.hpp): the default is
// TreeRouting — every host hangs off a junction through an "uplink" link; a
// junction may itself have an uplink towards its parent junction and a
// "transit" link that is traversed whenever a route passes through it
// (this models the cluster backbone of the paper's Figure 5: the route
// between two nodes of a cluster is <uplink_a, backbone, uplink_b> — two
// links and one switch, which is exactly the topology assumed by the
// latency-calibration rule of §5). Graph topologies (dragonfly, fat-tree,
// torus — see topology.hpp) install a GraphRouting provider instead.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "platform/netmodel.hpp"
#include "platform/route_provider.hpp"

namespace tir::plat {

using JunctionId = int;

constexpr int kNone = -1;

struct HostDesc {
  std::string name;
  double power = 1e9;          ///< flop/s
  JunctionId junction = kNone; ///< routing attachment point
  LinkId uplink = kNone;       ///< NIC link towards the junction
  LinkId loopback = kNone;     ///< used for host-local communications
};

struct LinkDesc {
  std::string name;
  double bandwidth = 1e9;  ///< bytes/s
  double latency = 0.0;    ///< seconds
};

struct JunctionDesc {
  std::string name;
  JunctionId parent = kNone;
  LinkId uplink = kNone;   ///< towards the parent junction
  LinkId transit = kNone;  ///< traversed when a route passes through here
  int depth = 0;           ///< root has depth 0
};

/// An end-to-end route: the traversed links and the summed nominal latency.
struct Route {
  std::vector<LinkId> links;
  double latency = 0.0;
  /// Minimum nominal bandwidth over the traversed links
  /// (infinity for an empty route).
  double min_bandwidth = 0.0;
};

class Platform {
 public:
  Platform();

  // -- construction -------------------------------------------------------
  JunctionId add_junction(std::string name, JunctionId parent = kNone,
                          LinkId uplink = kNone, LinkId transit = kNone);
  LinkId add_link(std::string name, double bandwidth, double latency);
  HostId add_host(std::string name, double power, JunctionId junction,
                  LinkId uplink);
  /// Installs a loopback link on a host (used for same-host messages).
  void set_loopback(HostId host, double bandwidth, double latency);
  void set_net_model(PiecewiseNetModel model) { net_model_ = model; }

  /// Replaces the routing strategy (default: TreeRouting). The provider is
  /// shared because Platform copies must stay cheap; providers are
  /// immutable once installed, so sharing is safe across sweep workers.
  void set_route_provider(std::shared_ptr<const RouteProvider> provider);

  /// Registers an explicit route between two hosts (both directions),
  /// overriding tree routing for the pair — the "Full" routing of
  /// SimGrid-style <route src=... dst=...> platform files. Once any
  /// explicit route exists, missing pairs are an error rather than falling
  /// back to the tree.
  void add_explicit_route(HostId src, HostId dst, std::vector<LinkId> links);

  // -- queries -------------------------------------------------------------
  std::size_t host_count() const { return hosts_.size(); }
  std::size_t link_count() const { return links_.size(); }
  const HostDesc& host(HostId id) const;
  const LinkDesc& link(LinkId id) const;
  const PiecewiseNetModel& net_model() const { return net_model_; }

  /// Looks a host up by name; throws tir::Error when absent.
  HostId host_by_name(const std::string& name) const;
  /// Returns std::nullopt when absent.
  std::optional<HostId> find_host(const std::string& name) const;
  /// Looks a link up by name (linear scan — fault-injection setup only).
  /// Returns std::nullopt when absent.
  std::optional<LinkId> find_link(const std::string& name) const;

  /// Computes the route between two hosts. src == dst yields the loopback
  /// link (or an empty zero-latency route when no loopback is configured);
  /// every other pair is delegated to the route provider and the traversed
  /// links are folded into latency / min-bandwidth sums in provider order.
  Route route(HostId src, HostId dst) const;

  // -- structure queries (for RouteProviders) ------------------------------
  const JunctionDesc& junction(JunctionId id) const;
  bool has_explicit_routes() const { return !explicit_routes_.empty(); }
  /// The registered explicit route for (src, dst), or nullptr.
  const std::vector<LinkId>* explicit_route(HostId src, HostId dst) const;

 private:
  std::vector<HostDesc> hosts_;
  std::vector<LinkDesc> links_;
  std::vector<JunctionDesc> junctions_;
  std::unordered_map<std::string, HostId> host_names_;
  std::unordered_map<std::uint64_t, std::vector<LinkId>> explicit_routes_;
  std::shared_ptr<const RouteProvider> route_provider_;
  PiecewiseNetModel net_model_ = PiecewiseNetModel::default_cluster_model();
};

}  // namespace tir::plat
