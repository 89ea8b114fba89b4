#include "simkern/maxmin.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace tir::sim {

namespace {
constexpr double kEps = 1e-12;

/// Progressive filling found unsaturated variables but no resource share
/// (every capacity infinite, or weights at most kEps): nothing limits them.
[[noreturn, gnu::cold, gnu::noinline]] void throw_unconstrained() {
  throw Error("MaxMin: unconstrained variable (no live resource)");
}
}  // namespace

void MaxMin::throw_inactive(VarId id) const {
  (void)vars_.at(static_cast<std::size_t>(id));  // an unknown id: out_of_range
  throw Error("MaxMin: rate() on an inactive variable");
}

ResourceId MaxMin::add_resource(double capacity) {
  if (!(capacity >= 0)) throw Error("MaxMin: capacity must be non-negative");
  resources_.push_back(Res{});
  resources_.back().capacity = capacity;
  return static_cast<ResourceId>(resources_.size() - 1);
}

double MaxMin::capacity(ResourceId r) const {
  return resources_.at(static_cast<std::size_t>(r)).capacity;
}

void MaxMin::mark_resource_modified(ResourceId r) {
  Res& res = resources_[static_cast<std::size_t>(r)];
  if (res.modified) return;
  res.modified = true;
  modified_resources_.push_back(r);
}

// -- slack resources ----------------------------------------------------------

double MaxMin::ceiling_of(const Var& v) const {
  // A weight at most kEps offers the fill no resource share, so no capacity
  // limits such a variable.
  double ceiling = kInf;
  if (v.weight <= kEps) return ceiling;
  for (const ResourceId r : v.resources)
    ceiling = std::min(ceiling, resources_[static_cast<std::size_t>(r)].capacity);
  return ceiling;
}

bool MaxMin::refresh_slack(Res& res) {
  // An infinite ceiling makes the sum infinite (later NaN): never slack.
  const bool slack =
      !full_solve_ && res.ceiling_sum < res.capacity * (1.0 - kSlackMargin);
  const bool flipped = slack != res.slack;
  res.slack = slack;
  return flipped;
}

void MaxMin::dissolve_member_groups(const Res& res) {
  for (const VarId id : res.vars) {
    const GroupId g = vars_[static_cast<std::size_t>(id)].group;
    if (g >= 0) hub_exit(g);
  }
}

void MaxMin::set_capacity(ResourceId r, double capacity) {
  if (!(capacity >= 0)) throw Error("MaxMin: capacity must be non-negative");
  Res& res = resources_.at(static_cast<std::size_t>(r));
  if (res.capacity == capacity) return;
  if (res.hub >= 0) hub_exit(res.hub);
  res.capacity = capacity;
  // An emptied resource's component is empty; its next member refreshes
  // its slack flag.
  if (res.vars.empty()) return;
  const bool was_slack = res.slack;

  // The members' ceilings follow the capacity. Every resource they cross
  // re-sums its ceilings exactly, once (`in_component` is free outside
  // solve()), and one whose slack state flipped is marked. A flip to
  // coupling first dissolves the groups it now joins; a group resource
  // (never slack) turning slack dissolves its group.
  for (const VarId id : res.vars) {
    Var& v = vars_[static_cast<std::size_t>(id)];
    v.ceiling = ceiling_of(v);
  }
  for (const VarId id : res.vars) {
    for (const ResourceId t : vars_[static_cast<std::size_t>(id)].resources) {
      Res& other = resources_[static_cast<std::size_t>(t)];
      if (other.in_component) continue;
      other.in_component = true;
      other.ceiling_sum = 0.0;
      for (const VarId m : other.vars)
        other.ceiling_sum += vars_[static_cast<std::size_t>(m)].ceiling;
      if (!refresh_slack(other) || t == r) continue;
      if (other.hub >= 0) {
        hub_exit(other.hub);
      } else {
        dissolve_member_groups(other);
      }
      mark_resource_modified(t);
    }
  }
  for (const VarId id : res.vars) {
    for (const ResourceId t : vars_[static_cast<std::size_t>(id)].resources)
      resources_[static_cast<std::size_t>(t)].in_component = false;
  }
  // Marked unless it stayed slack: nothing couples through it then.
  if (was_slack && res.slack) return;
  if (was_slack) dissolve_member_groups(res);
  mark_resource_modified(r);
}

// -- hub groups ---------------------------------------------------------------

void MaxMin::hub_update_share(ResourceId r) {
  Res& res = resources_[static_cast<std::size_t>(r)];
  Hub& hub = hubs_[static_cast<std::size_t>(res.hub)];
  if (res.vars.empty() || res.slack) {  // r leaves the component
    hub.shares.erase(static_cast<std::size_t>(res.share_pos), place_share());
    res.hub = -1;
    res.share_pos = -1;
    return;
  }
  const HeapKey key{res.capacity / static_cast<double>(res.vars.size()),
                    static_cast<std::uint64_t>(r)};
  if (res.share_pos < 0) {
    hub.shares.push(key, r, place_share());
  } else {
    hub.shares.update(static_cast<std::size_t>(res.share_pos), key,
                      place_share());
  }
}

void MaxMin::hub_queue(GroupId g) {
  Hub& hub = hubs_[static_cast<std::size_t>(g)];
  if (hub.pending) return;
  hub.pending = true;
  pending_hubs_.push_back(g);
}

bool MaxMin::hub_admit(VarId id) {
  Var& v = vars_[static_cast<std::size_t>(id)];
  bool touches = false;
  GroupId join = -1;  // the group whose hub `v` crosses
  for (const ResourceId r : v.resources) {
    const GroupId g = resources_[static_cast<std::size_t>(r)].hub;
    if (g < 0) continue;
    touches = true;
    if (join < 0 && hubs_[static_cast<std::size_t>(g)].res == r) join = g;
  }
  if (!touches) return false;
  // Every other resource must be the group's, slack, or new to the system
  // (`v` is already listed, so a second member means another component).
  bool fits = join >= 0 && v.weight == 1.0;
  for (const ResourceId r : v.resources) {
    const Res& res = resources_[static_cast<std::size_t>(r)];
    if (res.hub != join &&
        (res.hub >= 0 || (!res.slack && res.vars.size() > 1)))
      fits = false;
  }
  if (!fits) {
    for (const ResourceId r : v.resources) {
      const GroupId g = resources_[static_cast<std::size_t>(r)].hub;
      if (g >= 0) hub_exit(g);
    }
    return false;
  }
  const ResourceId hub_res = hubs_[static_cast<std::size_t>(join)].res;
  v.group = join;
  for (const ResourceId r : v.resources) {
    Res& res = resources_[static_cast<std::size_t>(r)];
    if (r == hub_res || res.slack) continue;  // slack ones stay outside
    res.hub = join;
    hub_update_share(r);
  }
  hub_queue(join);
  return true;
}

void MaxMin::hub_exit(GroupId g) {
  Hub& hub = hubs_[static_cast<std::size_t>(g)];
  Res& h = resources_[static_cast<std::size_t>(hub.res)];
  for (const VarId id : h.vars) {
    Var& v = vars_[static_cast<std::size_t>(id)];
    v.group = -1;
    v.rate = hub.rate;
  }
  for (std::size_t i = 0; i < hub.shares.size(); ++i) {
    Res& res = resources_[static_cast<std::size_t>(hub.shares[i])];
    res.hub = -1;
    res.share_pos = -1;
  }
  h.hub = -1;
  if (!h.vars.empty()) mark_resource_modified(hub.res);
  hub.res = -1;
  hub.pending = false;
  hub.shares.clear();
  free_hubs_.push_back(g);
  pending_exits_.push_back(g);
  ++stats_.hub_exits;
}

void MaxMin::hub_try_enter(std::size_t c) {
  const Component& comp = components_[c];
  const std::size_t n = comp.var_end - comp.var_begin;
  for (std::size_t j = comp.var_begin; j < comp.var_end; ++j) {
    if (fill_var_[j].weight != 1.0) return;
  }
  // The hub offers the fill's best share; it must carry every member, and
  // no other resource may come within the fill's binding tolerance of it.
  const auto share = [this](std::size_t i) {
    const Res& res = resources_[static_cast<std::size_t>(component_res_[i])];
    return res.capacity / static_cast<double>(res.vars.size());
  };
  std::size_t hub_i = comp.res_end;
  double rate = kInf;
  for (std::size_t i = comp.res_begin; i < comp.res_end; ++i) {
    if (share(i) < rate) {
      rate = share(i);
      hub_i = i;
    }
  }
  if (hub_i == comp.res_end || !(rate > 0.0)) return;
  const ResourceId hub_res = component_res_[hub_i];
  if (resources_[static_cast<std::size_t>(hub_res)].vars.size() != n) return;
  for (std::size_t i = comp.res_begin; i < comp.res_end; ++i) {
    if (i != hub_i && share(i) <= rate * (1.0 + 1e-9)) return;
  }

  GroupId g;
  if (!free_hubs_.empty()) {
    g = free_hubs_.back();
    free_hubs_.pop_back();
  } else {
    g = static_cast<GroupId>(hubs_.size());
    hubs_.emplace_back();
  }
  Hub& hub = hubs_[static_cast<std::size_t>(g)];
  hub.res = hub_res;
  hub.rate = rate;
  resources_[static_cast<std::size_t>(hub_res)].hub = g;
  for (std::size_t i = comp.res_begin; i < comp.res_end; ++i) {
    if (i == hub_i) continue;
    const ResourceId r = component_res_[i];
    resources_[static_cast<std::size_t>(r)].hub = g;
    hub.shares.push({share(i), static_cast<std::uint64_t>(r)}, r,
                    place_share());
  }
  for (std::size_t j = comp.var_begin; j < comp.var_end; ++j)
    vars_[static_cast<std::size_t>(component_vars_[j])].group = g;
  entered_groups_.push_back(g);
  ++stats_.hub_entries;
}

std::span<const VarId> MaxMin::group_members(GroupId g) const {
  const Res& h =
      resources_[static_cast<std::size_t>(hubs_[static_cast<std::size_t>(g)].res)];
  return {h.vars.data(), h.vars.size()};
}

bool MaxMin::lone(const Var& v) const {
  // Full-solve mode re-fills everything; a weight at most kEps leaves the
  // fill without a resource share, so such a variable takes the fill too.
  if (full_solve_ || v.weight <= kEps) return false;
  for (const ResourceId r : v.resources) {
    const Res& res = resources_[static_cast<std::size_t>(r)];
    if (res.vars.size() != 1 && !res.slack) return false;
  }
  return true;
}

VarId MaxMin::add_variable(double weight,
                           const std::vector<ResourceId>& resources) {
  if (!(weight > 0)) throw Error("MaxMin: variable weight must be positive");
  if (resources.empty()) throw Error("MaxMin: a variable needs a resource");
  for (const ResourceId r : resources) {
    if (r < 0 || static_cast<std::size_t>(r) >= resources_.size())
      throw Error("MaxMin: unknown resource id");
  }

  VarId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    vars_.emplace_back();
    id = static_cast<VarId>(vars_.size() - 1);
  }
  Var& v = vars_[static_cast<std::size_t>(id)];
  v.weight = weight;
  v.rate = 0.0;
  v.active = true;
  v.resources = resources;
  // Routes from the platform's route cache arrive pre-sorted; skip the sort
  // for them (flows are added once per message — this is a hot path).
  if (!std::is_sorted(v.resources.begin(), v.resources.end()))
    std::sort(v.resources.begin(), v.resources.end());
  v.resources.erase(std::unique(v.resources.begin(), v.resources.end()),
                    v.resources.end());
  v.positions.clear();
  v.positions.reserve(v.resources.size());
  v.group = -1;
  v.ceiling = ceiling_of(v);
  for (const ResourceId r : v.resources) {
    Res& res = resources_[static_cast<std::size_t>(r)];
    v.positions.push_back(static_cast<std::uint32_t>(res.vars.size()));
    res.vars.push_back(id);
    res.ceiling_sum += v.ceiling;
    // Turning coupling joins the members' components: groups among them
    // no longer have their shape. The mark below lets the BFS cross it.
    if (refresh_slack(res) && res.vars.size() > 1) dissolve_member_groups(res);
  }
  ++active_count_;
  if (hubs_.size() > free_hubs_.size() && hub_admit(id)) return id;
  if (lone(v)) {
    // A component of its own: one fill round over its coupling resources,
    // each offering cap / weight (the fill's rem / wsum), rates it exactly.
    double share = kInf;
    for (const ResourceId r : v.resources) {
      const Res& res = resources_[static_cast<std::size_t>(r)];
      if (!res.slack) share = std::min(share, res.capacity / v.weight);
    }
    if (share == kInf) {
      remove_variable(id);
      throw_unconstrained();
    }
    v.rate = share * v.weight;
    ++stats_.lone_rates;
    return id;
  }
  // Not lone, so some resource couples it: the one it shares with another
  // variable, or, at a weight of at most kEps (an infinite ceiling), every
  // one. Full-solve mode has no slack resource.
  for (const ResourceId r : v.resources) {
    if (!resources_[static_cast<std::size_t>(r)].slack)
      mark_resource_modified(r);
  }
  return id;
}

void MaxMin::remove_variable(VarId id) {
  Var& v = vars_.at(static_cast<std::size_t>(id));
  if (!v.active) throw Error("MaxMin: removing an inactive variable");
  // Intrusive bidirectional membership: swap-remove this variable from each
  // of its resources' member lists, repairing the moved member's stored
  // position. Routes are a handful of links, so a linear scan of the moved
  // member's (sorted) resource list beats std::lower_bound's branching.
  for (std::size_t i = 0; i < v.resources.size(); ++i) {
    const ResourceId r = v.resources[i];
    Res& res = resources_[static_cast<std::size_t>(r)];
    const std::uint32_t pos = v.positions[i];
    const VarId moved = res.vars.back();
    res.vars[pos] = moved;
    res.vars.pop_back();
    if (moved != id) {
      Var& m = vars_[static_cast<std::size_t>(moved)];
      std::size_t k = 0;
      while (m.resources[k] != r) ++k;
      m.positions[k] = pos;
    }
    const bool was_slack = res.slack;
    res.ceiling_sum = res.vars.empty() ? 0.0 : res.ceiling_sum - v.ceiling;
    refresh_slack(res);
    // An emptied resource's component is empty, and a slack one coupled
    // nobody: nothing to re-solve. One that turned slack is marked; the
    // solve re-grows its members' components.
    if (v.group < 0 && !res.vars.empty() && !was_slack)
      mark_resource_modified(r);
  }
  if (v.group >= 0) {
    // A member leaving its hub group: O(degree · log R) share updates; the
    // group's rate and binding condition are settled by the next solve.
    // Slack resources the member crossed are not the group's.
    const ResourceId hub_res = hubs_[static_cast<std::size_t>(v.group)].res;
    for (const ResourceId r : v.resources) {
      if (r != hub_res && resources_[static_cast<std::size_t>(r)].hub == v.group)
        hub_update_share(r);
    }
    if (resources_[static_cast<std::size_t>(hub_res)].vars.empty()) {
      hub_exit(v.group);
    } else {
      hub_queue(v.group);
    }
    v.group = -1;
  }
  v.active = false;
  v.rate = 0.0;
  v.resources.clear();
  v.positions.clear();
  --active_count_;
  free_ids_.push_back(id);
}

double MaxMin::resource_load(ResourceId r) const {
  double load = 0.0;
  for (const VarId id : resources_.at(static_cast<std::size_t>(r)).vars)
    load += rate(id);
  return load;
}

void MaxMin::expand_components() {
  component_res_.clear();
  component_vars_.clear();
  components_.clear();
  fill_res_.clear();
  fill_var_.clear();

  // Joining a component also loads the member into the fill scratch arrays
  // and records its slot — the BFS touches every Res/Var anyway, so the
  // fill needs no setup pass of its own.
  const auto push_res = [this](ResourceId r) {
    Res& res = resources_[static_cast<std::size_t>(r)];
    if (res.in_component) return;
    res.in_component = true;
    res.slot = static_cast<std::int32_t>(component_res_.size());
    component_res_.push_back(r);
    fill_res_.push_back(FillRes{res.capacity, 0.0});
  };
  const auto push_var = [this](VarId v) {
    Var& var = vars_[static_cast<std::size_t>(v)];
    if (var.in_component) return;
    var.in_component = true;
    var.slot = static_cast<std::int32_t>(component_vars_.size());
    component_vars_.push_back(v);
    fill_var_.push_back(FillVar{0.0, var.weight, var.rate, false});
  };

  // Grows the full connected component around one seed. Seeds already swept
  // into an earlier component are skipped by the callers (in_component),
  // so each call emits one genuinely disjoint Component slice. Both lists
  // double as BFS worklists: every member of a component resource joins,
  // and every resource of a component variable joins. Weight sums
  // accumulate per (variable, resource) edge in discovery order — the same
  // variable-major order the old fill setup used, so the sums are
  // bit-identical.
  const auto grow = [&](std::size_t res_begin, std::size_t var_begin) {
    std::size_t ri = res_begin, vi = var_begin;
    while (ri < component_res_.size() || vi < component_vars_.size()) {
      while (ri < component_res_.size()) {
        const Res& res = resources_[static_cast<std::size_t>(
            component_res_[ri++])];
        for (const VarId v : res.vars) push_var(v);
      }
      while (vi < component_vars_.size()) {
        const Var& var = vars_[static_cast<std::size_t>(
            component_vars_[vi++])];
        for (const ResourceId r : var.resources) {
          const Res& res = resources_[static_cast<std::size_t>(r)];
          if (res.slack) continue;  // couples nobody
          push_res(r);
          fill_res_[static_cast<std::size_t>(res.slot)].wsum += var.weight;
        }
      }
    }
    components_.push_back(Component{res_begin, component_res_.size(),
                                    var_begin, component_vars_.size()});
  };
  const auto grow_from_var = [&](VarId v) {
    if (vars_[static_cast<std::size_t>(v)].in_component) return;
    const std::size_t rb = component_res_.size();
    const std::size_t vb = component_vars_.size();
    push_var(v);
    grow(rb, vb);
  };
  const auto grow_from_res = [&](ResourceId r) {
    // A resource marked before a hub group absorbed it is the group's to
    // answer; nothing outside a group reaches into it.
    const Res& res = resources_[static_cast<std::size_t>(r)];
    if (res.in_component || res.hub >= 0) return;
    if (res.slack) {
      // It turned slack (or changed while slack): each member's component
      // stands on its own now. Hub groups answer for their members.
      for (const VarId v : res.vars) {
        if (vars_[static_cast<std::size_t>(v)].group < 0) grow_from_var(v);
      }
      return;
    }
    const std::size_t rb = component_res_.size();
    const std::size_t vb = component_vars_.size();
    push_res(r);
    grow(rb, vb);
  };

  if (full_solve_) {
    for (std::size_t i = 0; i < vars_.size(); ++i) {
      if (vars_[i].active) grow_from_var(static_cast<VarId>(i));
    }
  } else {
    for (const ResourceId r : modified_resources_) grow_from_res(r);
  }
  for (const ResourceId r : modified_resources_)
    resources_[static_cast<std::size_t>(r)].modified = false;
  modified_resources_.clear();
}

void MaxMin::fill_component(std::size_t c) {
  const Component& comp = components_[c];
  const std::size_t rb = comp.res_begin, re = comp.res_end;
  const std::size_t vb = comp.var_begin, ve = comp.var_end;

  const auto saturate = [this](std::size_t j, VarId id, double rate) {
    FillVar& fv = fill_var_[j];
    fv.rate = rate;
    fv.done = true;
    const Var& v = vars_[static_cast<std::size_t>(id)];
    for (const ResourceId r : v.resources) {
      const Res& res = resources_[static_cast<std::size_t>(r)];
      if (res.slack) continue;  // not in the component
      FillRes& fr = fill_res_[static_cast<std::size_t>(res.slot)];
      fr.rem = std::max(0.0, fr.rem - rate);
      fr.wsum -= fv.weight;
    }
  };

  // The unsaturated set is tracked through the `done` flags: each round
  // scans every component variable and skips finished ones. Components are
  // small (a handful of variables for most incremental solves) and rounds
  // are few, so the rescans beat maintaining a shrinking worklist.
  std::size_t unsat_count = ve - vb;
  while (unsat_count > 0) {
    // Smallest per-weight share offered by any component resource.
    double best_share = kInf;
    for (std::size_t i = rb; i < re; ++i) {
      if (fill_res_[i].wsum > kEps)
        best_share = std::min(best_share, fill_res_[i].rem / fill_res_[i].wsum);
    }
    if (best_share == kInf) throw_unconstrained();

    // Saturate every variable touching a binding resource at the share
    // times its weight.
    for (std::size_t i = rb; i < re; ++i) {
      if (fill_res_[i].wsum <= kEps) continue;
      if (fill_res_[i].rem / fill_res_[i].wsum <= best_share * (1.0 + 1e-9)) {
        for (const VarId id :
             resources_[static_cast<std::size_t>(component_res_[i])].vars) {
          const auto j = static_cast<std::size_t>(
              vars_[static_cast<std::size_t>(id)].slot);
          const FillVar& fv = fill_var_[j];
          if (fv.done) continue;
          saturate(j, id, best_share * fv.weight);
          --unsat_count;
        }
      }
    }
  }

  for (std::size_t j = vb; j < ve; ++j) {
    Var& v = vars_[static_cast<std::size_t>(component_vars_[j])];
    v.rate = fill_var_[j].rate;
    if (fill_var_[j].rate != fill_var_[j].prev)
      changed_.push_back(component_vars_[j]);
  }
}

void MaxMin::solve() {
  changed_.clear();
  changed_groups_.clear();
  entered_groups_.clear();
  exited_groups_.clear();
  if (!dirty()) return;
  ++stats_.solves;

  // Hub groups whose membership changed: one division each — the fill's
  // own cap / wsum, wsum summing unit weights exactly — unless another
  // resource now binds with the hub, which sends the group back to the fill.
  bool hub_answered = false;
  for (const GroupId g : pending_hubs_) {
    Hub& hub = hubs_[static_cast<std::size_t>(g)];
    if (!hub.pending) continue;  // dissolved since it was queued
    hub.pending = false;
    const Res& h = resources_[static_cast<std::size_t>(hub.res)];
    const double rate = h.capacity / static_cast<double>(h.vars.size());
    if (!hub.shares.empty() &&
        hub.shares.front_key().first <= rate * (1.0 + 1e-9)) {
      hub_exit(g);
      continue;
    }
    hub_answered = true;
    stats_.max_component_vars =
        std::max(stats_.max_component_vars, h.vars.size());
    if (rate != hub.rate) {
      hub.rate = rate;
      changed_groups_.push_back(g);
    }
  }
  pending_hubs_.clear();
  exited_groups_.swap(pending_exits_);
  stats_.group_changes += changed_groups_.size();
  if (hub_answered) ++stats_.hub_solves;
  if (modified_resources_.empty()) return;

  expand_components();

  for (std::size_t c = 0; c < components_.size(); ++c) {
    fill_component(c);
    if (components_[c].var_end - components_[c].var_begin >= kHubMinVars) {
      ++stats_.large_fills;
      if (!full_solve_) hub_try_enter(c);
    }
  }

  stats_.vars_touched += component_vars_.size();
  stats_.last_component_vars = component_vars_.size();
  stats_.max_component_vars =
      std::max(stats_.max_component_vars, component_vars_.size());

  for (const ResourceId r : component_res_)
    resources_[static_cast<std::size_t>(r)].in_component = false;
  for (const VarId v : component_vars_)
    vars_[static_cast<std::size_t>(v)].in_component = false;
}

std::span<const VarId> MaxMin::solve_changed() {
  solve();
  return {changed_.data(), changed_.size()};
}

}  // namespace tir::sim
