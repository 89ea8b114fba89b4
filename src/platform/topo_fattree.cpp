#include <memory>

#include "platform/graph_routing.hpp"
#include "platform/topo.hpp"
#include "support/error.hpp"

namespace tir::plat {

namespace {

// Switch ids: pod p holds edges [p*k, p*k + k/2) then aggregations
// [p*k + k/2, (p+1)*k); cores live past k*k, core c joining the a-th
// aggregation of every pod for a = c / (k/2).
class FatTreeRouting final : public GraphRouting {
 public:
  FatTreeRouting(std::string name, int k, bool dmodk)
      : GraphRouting(std::move(name)), k_(k), m_(k / 2), dmodk_(dmodk) {}

  int edge_id(int pod, int e) const { return pod * k_ + e; }
  int agg_id(int pod, int a) const { return pod * k_ + m_ + a; }
  int core_id(int c) const { return k_ * k_ + c; }

 protected:
  void switch_route(int src_sw, int dst_sw, HostId /*src*/, HostId dst,
                    std::vector<LinkId>& out) const override {
    if (!dmodk_) {
      append_shortest(src_sw, dst_sw, out);
      return;
    }
    if (src_sw == dst_sw) return;
    // D-mod-k: the up-path is a pure function of the destination host —
    // every source funnels a given destination through the same
    // aggregation slot and core, which is what makes the selection
    // deadlock-free and cache-friendly (CODES/TraceR use the same rule).
    const int pod_s = src_sw / k_;
    const int pod_d = dst_sw / k_;
    const int a = dst % m_;
    if (pod_s == pod_d) {
      out.push_back(edge_link(src_sw, agg_id(pod_s, a)));
      out.push_back(edge_link(agg_id(pod_s, a), dst_sw));
      return;
    }
    const int core = a * m_ + (dst / m_) % m_;
    out.push_back(edge_link(src_sw, agg_id(pod_s, a)));
    out.push_back(edge_link(agg_id(pod_s, a), core_id(core)));
    out.push_back(edge_link(core_id(core), agg_id(pod_d, a)));
    out.push_back(edge_link(agg_id(pod_d, a), dst_sw));
  }

 private:
  int k_;
  int m_;
  bool dmodk_;
};

}  // namespace

std::vector<HostId> build_fattree(Platform& platform, const FatTreeSpec& spec) {
  if (spec.k < 2 || spec.k % 2 != 0)
    throw Error("fattree: k must be even and >= 2, got " +
                std::to_string(spec.k));
  bool dmodk = true;
  if (spec.routing == "shortest")
    dmodk = false;
  else if (spec.routing != "dmodk")
    throw Error("fattree: routing must be dmodk or shortest, got '" +
                spec.routing + "'");

  const int k = spec.k;
  const int m = k / 2;  // edge/agg switches per pod, hosts per edge switch
  auto routing = std::make_shared<FatTreeRouting>("fattree/" + spec.routing,
                                                  k, dmodk);
  const JunctionId fabric = platform.add_junction(spec.prefix + "fabric");

  // Pods first (edge then aggregation, matching the id scheme), cores last.
  for (int p = 0; p < k; ++p) {
    for (int e = 0; e < m; ++e)
      routing->add_switch(spec.prefix + "p" + std::to_string(p) + "e" +
                          std::to_string(e));
    for (int a = 0; a < m; ++a)
      routing->add_switch(spec.prefix + "p" + std::to_string(p) + "a" +
                          std::to_string(a));
  }
  for (int c = 0; c < m * m; ++c)
    routing->add_switch(spec.prefix + "c" + std::to_string(c));

  for (int p = 0; p < k; ++p) {
    for (int e = 0; e < m; ++e)
      for (int a = 0; a < m; ++a)
        routing->connect(routing->edge_id(p, e), routing->agg_id(p, a),
                         platform.add_link(spec.prefix + "p" +
                                               std::to_string(p) + "e" +
                                               std::to_string(e) + "-a" +
                                               std::to_string(a),
                                           spec.link_bandwidth,
                                           spec.link_latency));
    for (int a = 0; a < m; ++a)
      for (int j = 0; j < m; ++j) {
        const int c = a * m + j;
        routing->connect(routing->agg_id(p, a), routing->core_id(c),
                         platform.add_link(spec.prefix + "p" +
                                               std::to_string(p) + "a" +
                                               std::to_string(a) + "-c" +
                                               std::to_string(c),
                                           spec.link_bandwidth,
                                           spec.link_latency));
      }
  }

  std::vector<HostId> hosts;
  hosts.reserve(static_cast<std::size_t>(k) * static_cast<std::size_t>(m) *
                static_cast<std::size_t>(m));
  for (int p = 0; p < k; ++p) {
    for (int e = 0; e < m; ++e) {
      for (int h = 0; h < m; ++h) {
        const std::string name = spec.prefix + "p" + std::to_string(p) + "e" +
                                 std::to_string(e) + "h" + std::to_string(h);
        const LinkId nic =
            platform.add_link(name + "_nic", spec.bandwidth, spec.latency);
        const HostId id = platform.add_host(name, spec.power, fabric, nic);
        platform.set_loopback(id, spec.loopback_bandwidth,
                              spec.loopback_latency);
        routing->attach_host(id, routing->edge_id(p, e));
        hosts.push_back(id);
      }
    }
  }

  routing->finalize();
  platform.set_route_provider(std::move(routing));
  return hosts;
}

}  // namespace tir::plat
