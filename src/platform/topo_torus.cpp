#include <memory>

#include "platform/graph_routing.hpp"
#include "platform/topo.hpp"
#include "support/error.hpp"

namespace tir::plat {

namespace {

// Switch ids are row-major over the coordinate vector: dimension 0 is the
// fastest-varying, so id = c0 + c1*d0 + c2*d0*d1 + ...
class TorusRouting final : public GraphRouting {
 public:
  TorusRouting(std::string name, std::vector<int> dims, bool dor)
      : GraphRouting(std::move(name)), dims_(std::move(dims)), dor_(dor) {
    strides_.resize(dims_.size());
    int stride = 1;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      strides_[d] = stride;
      stride *= dims_[d];
    }
  }

  int coord(int sw, std::size_t d) const {
    return (sw / strides_[d]) % dims_[d];
  }

 protected:
  void switch_route(int src_sw, int dst_sw, HostId /*src*/, HostId /*dst*/,
                    std::vector<LinkId>& out) const override {
    if (!dor_) {
      append_shortest(src_sw, dst_sw, out);
      return;
    }
    // Dimension-order: walk dimension 0 to completion, then 1, ... taking
    // the shortest way around each ring (ties towards +). Each step moves
    // one hop along the current ring, so routes are minimal and the link
    // sequence is a pure function of (src switch, dst switch).
    int at = src_sw;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      const int size = dims_[d];
      int delta = coord(dst_sw, d) - coord(at, d);
      if (delta == 0) continue;
      if (delta < 0) delta += size;
      const int dir = (delta <= size - delta) ? 1 : -1;
      while (coord(at, d) != coord(dst_sw, d)) {
        const int c = coord(at, d);
        const int next_c = (c + dir + size) % size;
        const int next_sw = at + (next_c - c) * strides_[d];
        out.push_back(edge_link(at, next_sw));
        at = next_sw;
      }
    }
  }

 private:
  std::vector<int> dims_;
  std::vector<int> strides_;
  bool dor_;
};

}  // namespace

std::vector<HostId> build_torus(Platform& platform, const TorusSpec& spec) {
  if (spec.dims.empty()) throw Error("torus: dims must not be empty");
  long long switches = 1;
  for (const int d : spec.dims) {
    if (d < 1) throw Error("torus: every dimension must be >= 1");
    switches *= d;
    if (switches > 1 << 20) throw Error("torus: too many switches");
  }
  if (spec.hosts < 1) throw Error("torus: hosts must be >= 1");
  bool dor = true;
  if (spec.routing == "shortest")
    dor = false;
  else if (spec.routing != "dor")
    throw Error("torus: routing must be dor or shortest, got '" +
                spec.routing + "'");

  auto routing = std::make_shared<TorusRouting>("torus/" + spec.routing,
                                                spec.dims, dor);
  const JunctionId fabric = platform.add_junction(spec.prefix + "fabric");

  const int n_switches = static_cast<int>(switches);
  const auto sw_name = [&](int sw) {
    std::string name = spec.prefix;
    for (std::size_t d = 0; d < spec.dims.size(); ++d) {
      if (d) name += "x";
      name += std::to_string(routing->coord(sw, d));
    }
    return name;
  };
  for (int sw = 0; sw < n_switches; ++sw) routing->add_switch(sw_name(sw));

  // Rings: each switch links to its + neighbour per dimension. A size-2
  // ring collapses to a single cable (+ and - neighbours coincide) and a
  // size-1 dimension has no cable at all.
  int stride = 1;
  for (std::size_t d = 0; d < spec.dims.size(); ++d) {
    const int size = spec.dims[d];
    if (size >= 2) {
      for (int sw = 0; sw < n_switches; ++sw) {
        const int c = (sw / stride) % size;
        if (size == 2 && c == 1) continue;  // the 0-1 cable already exists
        const int next_sw = sw + ((c + 1) % size - c) * stride;
        routing->connect(sw, next_sw,
                         platform.add_link(sw_name(sw) + "-" + sw_name(next_sw),
                                           spec.link_bandwidth,
                                           spec.link_latency));
      }
    }
    stride *= size;
  }

  std::vector<HostId> hosts;
  hosts.reserve(static_cast<std::size_t>(n_switches) *
                static_cast<std::size_t>(spec.hosts));
  for (int sw = 0; sw < n_switches; ++sw) {
    for (int h = 0; h < spec.hosts; ++h) {
      const std::string name = sw_name(sw) + "h" + std::to_string(h);
      const LinkId nic =
          platform.add_link(name + "_nic", spec.bandwidth, spec.latency);
      const HostId id = platform.add_host(name, spec.power, fabric, nic);
      platform.set_loopback(id, spec.loopback_bandwidth, spec.loopback_latency);
      routing->attach_host(id, sw);
      hosts.push_back(id);
    }
  }

  routing->finalize();
  platform.set_route_provider(std::move(routing));
  return hosts;
}

}  // namespace tir::plat
