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
  resources_.back().certified = !full_solve_;  // empty: load 0
  return static_cast<ResourceId>(resources_.size() - 1);
}

void MaxMin::set_full_solve(bool on) {
  if (on != full_solve_ && !resources_.empty())
    throw Error("MaxMin: set_full_solve after add_resource");
  full_solve_ = on;
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

// -- certified resources ------------------------------------------------------

double MaxMin::ceiling_of(const Var& v) const {
  // A weight at most kEps offers the fill no resource share, so no capacity
  // limits such a variable.
  double ceiling = kInf;
  if (v.weight <= kEps) return ceiling;
  for (const ResourceId r : v.resources)
    ceiling = std::min(ceiling, resources_[static_cast<std::size_t>(r)].capacity);
  return ceiling;
}

void MaxMin::uncertify(Res& res) {
  res.certified = false;
  // Its grouped members were charged their ceilings, and the fill that
  // crosses it now must see their rates: their groups dissolve.
  for (const VarId id : res.vars) {
    const GroupId g = vars_[static_cast<std::size_t>(id)].group;
    if (g >= 0) hub_exit(g);
  }
}

void MaxMin::revoke(ResourceId r) {
  uncertify(resources_[static_cast<std::size_t>(r)]);
  ++stats_.revocations;
  mark_resource_modified(r);
}

void MaxMin::queue_revocation(ResourceId r) {
  if (resources_[static_cast<std::size_t>(r)].modified) return;
  ++stats_.revocations;
  mark_resource_modified(r);
}

void MaxMin::end_revocations() {
  // Only queued revocations are marked during a solve; the hub resources
  // of groups they dissolve join the list behind them.
  const std::size_t queued = modified_resources_.size();
  for (std::size_t i = 0; i < queued; ++i)
    uncertify(resources_[static_cast<std::size_t>(modified_resources_[i])]);
}

void MaxMin::set_capacity(ResourceId r, double capacity) {
  if (!(capacity >= 0)) throw Error("MaxMin: capacity must be non-negative");
  Res& res = resources_.at(static_cast<std::size_t>(r));
  if (res.capacity == capacity) return;
  if (res.hub >= 0) hub_exit(res.hub);
  const bool widened = capacity > res.capacity;
  res.capacity = capacity;
  // An empty resource stays certified at load 0. A certified one that
  // widens is still nobody's narrowest, and its load stays below the mark.
  if (res.vars.empty() || (res.certified && widened)) return;

  // The members' ceilings follow the capacity. Every resource they cross
  // recounts its blockers exactly, once (`slot` is free outside solve()),
  // and loses its certificate: its members' ceilings, or its own capacity,
  // moved. The solve fills them all again and certifies what qualifies.
  for (const VarId id : res.vars) {
    Var& v = vars_[static_cast<std::size_t>(id)];
    v.ceiling = ceiling_of(v);
  }
  for (const VarId id : res.vars) {
    for (const ResourceId t : vars_[static_cast<std::size_t>(id)].resources) {
      Res& other = resources_[static_cast<std::size_t>(t)];
      if (other.slot >= 0) continue;
      other.slot = 0;
      other.blockers = 0;
      for (const VarId m : other.vars)
        other.blockers += blocks(vars_[static_cast<std::size_t>(m)], other);
      if (other.certified) revoke(t);
    }
  }
  for (const VarId id : res.vars) {
    for (const ResourceId t : vars_[static_cast<std::size_t>(id)].resources)
      resources_[static_cast<std::size_t>(t)].slot = -1;
  }
  mark_resource_modified(r);
}

// -- hub groups ---------------------------------------------------------------

void MaxMin::hub_update_share(ResourceId r) {
  Res& res = resources_[static_cast<std::size_t>(r)];
  Hub& hub = hubs_[static_cast<std::size_t>(res.hub)];
  if (res.vars.empty()) {  // r leaves the component
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
  // Every other resource must be the group's, certified (the add charged
  // `v`'s ceiling there and left it below the mark), or new to the system
  // (`v` is already listed, so a second member means another component).
  bool fits = join >= 0 && v.weight == 1.0;
  for (const ResourceId r : v.resources) {
    const Res& res = resources_[static_cast<std::size_t>(r)];
    if (res.hub != join &&
        (res.hub >= 0 || (!res.certified && res.vars.size() > 1)))
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
    if (r == hub_res || res.certified) continue;  // certified: outside
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
    // Charged its ceiling while grouped, its rate from now on.
    const double drop = v.ceiling - charge(v.rate, v);
    for (const ResourceId r : v.resources) {
      Res& res = resources_[static_cast<std::size_t>(r)];
      if (res.certified) res.load -= drop;
    }
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
  // Members may cross certified resources too. Grouped, a member is
  // charged its ceiling there, so the group's re-rates never move those
  // loads. A resource the charges carry to the mark joins the group when
  // all its members are in the component (certified, it left their common
  // rate below its share); any other sends the charges back, and the
  // component stays on the fill path.
  const auto in_component = [this, &comp](VarId m) {
    // A slot of -1 (in no component) wraps past every slice.
    const auto k =
        static_cast<std::size_t>(vars_[static_cast<std::size_t>(m)].slot);
    return k >= comp.var_begin && k < comp.var_end;
  };
  const auto recharge = [&](double sign) {
    bool fits = true;
    for (std::size_t j = comp.var_begin; j < comp.var_end; ++j) {
      const Var& v = vars_[static_cast<std::size_t>(component_vars_[j])];
      const double rise = sign * (v.ceiling - charge(v.rate, v));
      for (const ResourceId r : v.resources) {
        Res& res = resources_[static_cast<std::size_t>(r)];
        if (!res.certified) continue;
        res.load += rise;
        fits = fits && (!at_mark(res, res.load) ||
                        std::all_of(res.vars.begin(), res.vars.end(),
                                    in_component));
      }
    }
    return fits;
  };
  if (!recharge(1.0)) {
    recharge(-1.0);
    return;
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
  for (std::size_t j = comp.var_begin; j < comp.var_end; ++j) {
    Var& v = vars_[static_cast<std::size_t>(component_vars_[j])];
    v.group = g;
    for (const ResourceId r : v.resources) {
      Res& res = resources_[static_cast<std::size_t>(r)];
      if (!res.certified || !at_mark(res, res.load)) continue;
      res.certified = false;
      res.hub = g;
      hub.shares.push({res.capacity / static_cast<double>(res.vars.size()),
                       static_cast<std::uint64_t>(r)},
                      r, place_share());
    }
  }
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
    if (res.vars.size() != 1 && !res.certified) return false;
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
    const bool blocker = blocks(v, res);
    res.blockers += blocker;
    if (!res.certified) continue;
    // Unrated, `v` is charged its ceiling. A resource it blocks or loads to
    // the mark closes; one that held only `v` has no rate to correct.
    res.load += v.ceiling;
    if (!blocker && !at_mark(res, res.load)) continue;
    if (res.vars.size() > 1) {
      revoke(r);
    } else {
      res.certified = false;
    }
  }
  ++active_count_;
  if (hubs_.size() > free_hubs_.size() && hub_admit(id)) return id;
  if (lone(v)) {
    // A component of its own: one fill round over its coupling resources,
    // each offering cap / weight (the fill's rem / wsum), rates it exactly.
    // A certified resource it crosses has it at weight 1 and below its
    // capacity, so that rate is the ceiling it was charged.
    double share = kInf;
    for (const ResourceId r : v.resources) {
      const Res& res = resources_[static_cast<std::size_t>(r)];
      if (!res.certified) share = std::min(share, res.capacity / v.weight);
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
  // one. Full-solve mode has no certified resource.
  for (const ResourceId r : v.resources) {
    if (!resources_[static_cast<std::size_t>(r)].certified)
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
    res.blockers -= blocks(v, res);
    // An emptied resource couples nobody: certified at load 0. A certified
    // one sheds the member's charge, and a hub group answers for its own
    // members: nothing to re-solve. Any other resource is marked.
    if (res.vars.empty()) {
      res.certified = !full_solve_;
      res.load = 0.0;
    } else if (res.certified) {
      res.load -= charge(v.rate, v);
    } else if (v.group < 0) {
      mark_resource_modified(r);
    }
  }
  if (v.group >= 0) {
    // A member leaving its hub group: O(degree · log R) share updates; the
    // group's rate and binding condition are settled by the next solve.
    // Certified resources the member crossed are not the group's.
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
  // A pass appends after the earlier passes' slices: a slot at or past
  // these marks joined in this pass, one below it in an earlier one.
  const auto res_pass = static_cast<std::int32_t>(component_res_.size());
  const auto var_pass = static_cast<std::int32_t>(component_vars_.size());

  // Joining a component also loads the member into the fill scratch arrays
  // and records its slot — the BFS touches every Res/Var anyway, so the
  // fill needs no setup pass of its own.
  const auto push_res = [&](ResourceId r) {
    Res& res = resources_[static_cast<std::size_t>(r)];
    if (res.slot >= res_pass) return;
    res.slot = static_cast<std::int32_t>(component_res_.size());
    component_res_.push_back(r);
    fill_res_.push_back(FillRes{res.capacity, 0.0});
  };
  const auto push_var = [&](VarId v) {
    Var& var = vars_[static_cast<std::size_t>(v)];
    if (var.slot >= var_pass) return;
    // Filled by an earlier pass: its rate before the solve is that fill's.
    const double prev =
        var.slot >= 0 ? fill_var_[static_cast<std::size_t>(var.slot)].prev
                      : var.rate;
    var.slot = static_cast<std::int32_t>(component_vars_.size());
    component_vars_.push_back(v);
    fill_var_.push_back(FillVar{0.0, var.weight, prev, false});
  };

  // Grows the full connected component around one seed. Seeds already swept
  // into an earlier component of this pass are skipped by the callers, so
  // each call emits one genuinely disjoint Component slice. Both lists
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
          if (res.certified) continue;  // couples nobody
          push_res(r);
          fill_res_[static_cast<std::size_t>(res.slot)].wsum += var.weight;
        }
      }
    }
    components_.push_back(Component{res_begin, component_res_.size(),
                                    var_begin, component_vars_.size()});
  };
  const auto grow_from_var = [&](VarId v) {
    if (vars_[static_cast<std::size_t>(v)].slot >= var_pass) return;
    const std::size_t rb = component_res_.size();
    const std::size_t vb = component_vars_.size();
    push_var(v);
    grow(rb, vb);
  };
  const auto grow_from_res = [&](ResourceId r) {
    // A resource marked before a hub group absorbed it is the group's to
    // answer; nothing outside a group reaches into it. A certified one was
    // emptied since it was marked and couples nobody.
    const Res& res = resources_[static_cast<std::size_t>(r)];
    if (res.slot >= res_pass || res.hub >= 0 || res.certified) return;
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
      Res& res = resources_[static_cast<std::size_t>(r)];
      if (res.certified) {
        // Not in the component: the new rate replaces the member's charge
        // (v.rate is still the rate before this pass), and the load must
        // stay below the mark for the certificate to hold.
        res.load += charge(rate, v) - charge(v.rate, v);
        if (at_mark(res, res.load)) queue_revocation(r);
        continue;
      }
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

void MaxMin::finish_solve(bool refilled) {
  // A variable or resource an earlier pass filled again appears once per
  // pass; its latest entry (`slot`) holds its final fill.
  if (refilled) changed_.clear();
  for (std::size_t j = 0; j < component_vars_.size(); ++j) {
    Var& v = vars_[static_cast<std::size_t>(component_vars_[j])];
    if (v.slot != static_cast<std::int32_t>(j)) continue;
    v.slot = -1;
    // Reported once, against its rate before the solve.
    if (refilled && v.rate != fill_var_[j].prev)
      changed_.push_back(component_vars_[j]);
  }
  for (std::size_t i = 0; i < component_res_.size(); ++i) {
    Res& res = resources_[static_cast<std::size_t>(component_res_[i])];
    if (res.slot != static_cast<std::int32_t>(i)) continue;
    res.slot = -1;
    // The fill's remaining capacity gives the load (every member is rated
    // now): certified below the mark, unless a member forbids it or a hub
    // group took the resource.
    if (full_solve_ || res.blockers != 0 || res.hub >= 0) continue;
    const double load = res.capacity - fill_res_[i].rem;
    if (!at_mark(res, load)) {
      res.certified = true;
      res.load = load;
      ++stats_.certificates;
    }
  }
}

void MaxMin::abandon_solve() {
  end_revocations();
  for (const VarId id : component_vars_) {
    Var& v = vars_[static_cast<std::size_t>(id)];
    v.slot = -1;
    for (const ResourceId r : v.resources) {
      if (resources_[static_cast<std::size_t>(r)].certified) revoke(r);
    }
  }
  for (const ResourceId r : component_res_) {
    resources_[static_cast<std::size_t>(r)].slot = -1;
    mark_resource_modified(r);
  }
}

void MaxMin::solve() {
  changed_.clear();
  changed_groups_.clear();
  entered_groups_.clear();
  exited_groups_.clear();
  if (!dirty()) return;
  ++stats_.solves;

  // Hub groups whose membership changed: one where another resource now
  // binds with the hub goes back to the fill.
  for (const GroupId g : pending_hubs_) {
    const Hub& hub = hubs_[static_cast<std::size_t>(g)];
    if (!hub.pending) continue;  // dissolved since it was queued
    const Res& h = resources_[static_cast<std::size_t>(hub.res)];
    const double rate = h.capacity / static_cast<double>(h.vars.size());
    if (!hub.shares.empty() &&
        hub.shares.front_key().first <= rate * (1.0 + 1e-9))
      hub_exit(g);
  }
  if (!modified_resources_.empty()) fill_modified();

  // The others, unless the fill closed a certified resource their members
  // cross: one division each, the fill's own cap / wsum, wsum summing unit
  // weights exactly. A group the fill dissolved kept its published rate.
  bool hub_answered = false;
  for (const GroupId g : pending_hubs_) {
    Hub& hub = hubs_[static_cast<std::size_t>(g)];
    if (!hub.pending) continue;
    hub.pending = false;
    hub_answered = true;
    const Res& h = resources_[static_cast<std::size_t>(hub.res)];
    stats_.max_component_vars =
        std::max(stats_.max_component_vars, h.vars.size());
    const double rate = h.capacity / static_cast<double>(h.vars.size());
    if (rate != hub.rate) {
      hub.rate = rate;
      changed_groups_.push_back(g);
    }
  }
  pending_hubs_.clear();
  exited_groups_.swap(pending_exits_);
  stats_.group_changes += changed_groups_.size();
  if (hub_answered) ++stats_.hub_solves;
}

void MaxMin::fill_modified() {
  component_res_.clear();
  component_vars_.clear();
  components_.clear();
  fill_res_.clear();
  fill_var_.clear();
  // Fill, then again from every resource whose certificate the fills
  // revoked (each pass revokes at least one, and none is granted before
  // the last), until a pass revokes nothing.
  bool refilled = false;
  try {
    for (;;) {
      const std::size_t first = components_.size();
      expand_components();
      for (std::size_t c = first; c < components_.size(); ++c) {
        fill_component(c);
        const std::size_t n = components_[c].var_end - components_[c].var_begin;
        stats_.max_component_vars = std::max(stats_.max_component_vars, n);
        if (n >= kHubMinVars) ++stats_.large_fills;
      }
      if (modified_resources_.empty()) break;
      end_revocations();
      refilled = true;
      ++stats_.refills;
    }
  } catch (...) {
    abandon_solve();
    throw;
  }

  // Hub groups form after the last pass, which leaves every load final. A
  // component a later pass filled again is stale.
  if (!full_solve_) {
    for (std::size_t c = 0; c < components_.size(); ++c) {
      const Component& comp = components_[c];
      if (comp.var_end - comp.var_begin >= kHubMinVars &&
          vars_[static_cast<std::size_t>(component_vars_[comp.var_begin])]
                  .slot == static_cast<std::int32_t>(comp.var_begin))
        hub_try_enter(c);
    }
  }
  stats_.vars_touched += component_vars_.size();
  stats_.last_component_vars = component_vars_.size();
  finish_solve(refilled);
}

std::span<const VarId> MaxMin::solve_changed() {
  solve();
  return {changed_.data(), changed_.size()};
}

}  // namespace tir::sim
