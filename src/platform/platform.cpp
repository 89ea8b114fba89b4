#include "platform/platform.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"

namespace tir::plat {

Platform::Platform()
    : route_provider_(std::make_shared<const TreeRouting>()) {}

void Platform::set_route_provider(
    std::shared_ptr<const RouteProvider> provider) {
  if (!provider) throw Error("set_route_provider: null provider");
  route_provider_ = std::move(provider);
}

JunctionId Platform::add_junction(std::string name, JunctionId parent,
                                  LinkId uplink, LinkId transit) {
  JunctionDesc j;
  j.name = std::move(name);
  j.parent = parent;
  j.uplink = uplink;
  j.transit = transit;
  if (parent != kNone) {
    if (parent < 0 || static_cast<std::size_t>(parent) >= junctions_.size())
      throw Error("add_junction: unknown parent junction");
    j.depth = junctions_[static_cast<std::size_t>(parent)].depth + 1;
  }
  junctions_.push_back(std::move(j));
  return static_cast<JunctionId>(junctions_.size() - 1);
}

LinkId Platform::add_link(std::string name, double bandwidth, double latency) {
  if (!(bandwidth > 0)) throw Error("add_link: bandwidth must be positive");
  if (!(latency >= 0)) throw Error("add_link: latency must be non-negative");
  links_.push_back(LinkDesc{std::move(name), bandwidth, latency});
  return static_cast<LinkId>(links_.size() - 1);
}

HostId Platform::add_host(std::string name, double power, JunctionId junction,
                          LinkId uplink) {
  if (!(power > 0)) throw Error("add_host: power must be positive");
  if (junction < 0 || static_cast<std::size_t>(junction) >= junctions_.size())
    throw Error("add_host: unknown junction for host '" + name + "'");
  if (host_names_.count(name))
    throw Error("add_host: duplicate host name '" + name + "'");
  HostDesc h;
  h.name = name;
  h.power = power;
  h.junction = junction;
  h.uplink = uplink;
  hosts_.push_back(std::move(h));
  const HostId id = static_cast<HostId>(hosts_.size() - 1);
  host_names_.emplace(std::move(name), id);
  return id;
}

void Platform::set_loopback(HostId host, double bandwidth, double latency) {
  HostDesc& h = hosts_.at(static_cast<std::size_t>(host));
  h.loopback = add_link(h.name + "_loopback", bandwidth, latency);
}

const HostDesc& Platform::host(HostId id) const {
  return hosts_.at(static_cast<std::size_t>(id));
}

const JunctionDesc& Platform::junction(JunctionId id) const {
  return junctions_.at(static_cast<std::size_t>(id));
}

const LinkDesc& Platform::link(LinkId id) const {
  return links_.at(static_cast<std::size_t>(id));
}

HostId Platform::host_by_name(const std::string& name) const {
  const auto it = host_names_.find(name);
  if (it == host_names_.end()) throw Error("unknown host '" + name + "'");
  return it->second;
}

std::optional<HostId> Platform::find_host(const std::string& name) const {
  const auto it = host_names_.find(name);
  if (it == host_names_.end()) return std::nullopt;
  return it->second;
}

std::optional<LinkId> Platform::find_link(const std::string& name) const {
  for (std::size_t l = 0; l < links_.size(); ++l)
    if (links_[l].name == name) return static_cast<LinkId>(l);
  return std::nullopt;
}

namespace {
std::uint64_t pair_key(HostId a, HostId b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}
}  // namespace

void Platform::add_explicit_route(HostId src, HostId dst,
                                  std::vector<LinkId> links) {
  (void)host(src);
  (void)host(dst);
  for (const LinkId l : links)
    if (l < 0 || static_cast<std::size_t>(l) >= links_.size())
      throw Error("add_explicit_route: unknown link id");
  explicit_routes_[pair_key(dst, src)] =
      std::vector<LinkId>(links.rbegin(), links.rend());
  explicit_routes_[pair_key(src, dst)] = std::move(links);
}

const std::vector<LinkId>* Platform::explicit_route(HostId src,
                                                    HostId dst) const {
  const auto it = explicit_routes_.find(pair_key(src, dst));
  return it == explicit_routes_.end() ? nullptr : &it->second;
}

Route Platform::route(HostId src, HostId dst) const {
  Route out;
  out.min_bandwidth = std::numeric_limits<double>::infinity();

  const auto push = [&](LinkId id) {
    if (id == kNone) return;
    const LinkDesc& l = links_.at(static_cast<std::size_t>(id));
    out.links.push_back(id);
    out.latency += l.latency;
    out.min_bandwidth = std::min(out.min_bandwidth, l.bandwidth);
  };

  if (src == dst) {
    push(host(src).loopback);
    return out;
  }

  for (const LinkId l : route_provider_->links(*this, src, dst)) push(l);
  return out;
}

}  // namespace tir::plat
