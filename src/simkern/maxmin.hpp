// Max-min fairness solver (SimGrid's "LMM" — linear max-min model).
//
// Resources (CPUs, network links) have a capacity; variables (executions,
// data flows) consume one or more resources with a weight. solve() assigns
// every active variable the max-min fair rate: rates are raised uniformly
// (proportionally to weights) until a resource saturates; its members are
// frozen and the process repeats (progressive filling). Unlike SimGrid's
// LMM, a variable carries no rate bound of its own: every saturation comes
// from a resource.
//
// Incremental solving (SimGrid's "lazy updates with partial invalidation",
// Casanova et al.): mutations (add/remove variable, set_capacity) record
// the touched resources in a modified set instead of invalidating the whole
// system. solve() expands the modified set to the connected component(s) of
// the resource↔variable constraint graph reachable from it and re-runs
// progressive filling on those components only — rates outside them cannot
// change because max-min allocations decompose over connected components.
// solve_changed() additionally reports exactly which variables' rates moved,
// so the caller can re-rate O(changed) activities instead of rescanning
// every flow. set_full_solve(true) disables the component restriction (every
// solve re-rates the whole system) for differential testing.
//
// Lone variables. A variable added alone on every resource it uses is a
// component of its own, which one fill round would rate at the smallest
// cap / weight over its resources, times its weight. add_variable rates it
// at once with the fill's own expressions (so bit for bit) and marks
// nothing: no solve follows, and no solve reports it. A removal marks only
// resources that still have members, since an emptied resource's component
// is empty, so a lone variable also leaves without a solve. A later
// mutation that couples a lone variable takes the ordinary path, whose
// fill compares against the rate add_variable gave it. Full-solve mode and
// weights at most the fill's 1e-12 epsilon never take the lone path.
//
// Slack resources. A variable's *ceiling* is the smallest capacity it
// crosses (infinite when its weight is at most the fill's epsilon, which
// takes no resource share): no fill rates it above that. A resource
// whose members' ceilings sum below capacity · (1 − kSlackMargin) is
// *slack*: in any round of progressive filling with best share s, each
// unsaturated member offers s · w at most its ceiling and each saturated
// one holds at most its ceiling, so the resource's remaining capacity
// stays above s times its weight sum by far more than the 1e-9 binding
// tolerance. It never binds and couples nobody: the component BFS does not
// cross it, the fill leaves it out, the lone test ignores it, and a member
// leaving it marks nothing. A mutation that flips a resource between slack
// and coupling marks it; solve() seeds each member's own component from a
// marked slack resource. In exact arithmetic the allocation is unchanged;
// the pruned fill differs from the joint one only when two sub-components
// bind at shares within the 1e-9 tolerance without being equal (the joint
// fill binds both at the lower). Full-solve mode has no slack resources.
//
// Components are kept separate all the way through progressive filling:
// expand_components() records one [res, var) slice per connected component
// and fill stops at component boundaries, so each component's fill is a
// pure function of that component's state alone. Fills run one after
// another in component order and append their changed variables to one
// list in that order.
//
// Membership lists are intrusively bidirectional: each variable stores, for
// every resource it uses, its index in that resource's member list, so
// remove_variable is O(degree · log degree) swap-removes instead of
// deferring compaction into the solver hot loop.
//
// Hub groups. A *hub component* is one where every variable has weight 1,
// and one resource H (a saturated cluster backbone) is crossed by every
// variable and is the only binding one: every other member resource r
// offers a share cap_r / n_r above cap_H / n_H by more than the fill's
// 1e-9 binding tolerance. Progressive filling then ends in
// one round with every rate equal to cap_H / n_H. After a fill of at least
// kHubMinVars variables finds such a component, the solver keeps it as a
// hub group named by a GroupId: adds and removes that keep the shape are
// answered in O(degree + log R) — a min-heap over the other resources'
// shares tracks the binding condition — and one group-rate change is
// reported (changed_groups()) instead of n changed variables. The rate is
// the fill's own expression, so it is bit-identical to a fill. The group
// falls back to the BFS and fill (exited_groups()) on a set_capacity in the
// component, on a variable that skips the hub, bridges into another
// component or carries a non-unit weight, and on a removal that lets
// another resource reach the hub share. Full-solve mode never forms
// groups. Members may cross slack resources, which stay outside the group;
// one that stops being slack dissolves its members' groups before it is
// marked.
//
// Optimality conditions (checked by the property tests):
//   1. No resource exceeds its capacity.
//   2. Every variable uses at least one saturated resource.
//   3. On a saturated resource, no variable's rate/weight ratio can grow
//      without another's shrinking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "support/heap.hpp"

namespace tir::sim {

using ResourceId = int;
using VarId = int;
using GroupId = int;  ///< hub group (dense, recycled; -1 = none)

class MaxMin {
 public:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Smallest filled component considered for a hub group. Measured on LU
  /// class B replays (bordereau cluster, best-of-3 CPU time over four
  /// interleaved rounds): 32 and 64 are indistinguishable at 64 and at 256
  /// ranks, 128 is ~10% slower at 256 ranks. 64 keeps B/64 — coupled
  /// components of at most 62 variables — entirely on the fill path, bit
  /// for bit, while B/256 couples ~280 flows on its backbone.
  static constexpr std::size_t kHubMinVars = 64;

  /// A resource whose members' ceilings sum below capacity times
  /// (1 − kSlackMargin) is slack (see the header comment). Large against
  /// the rounding of the running sums and the fill's 1e-9 tolerance.
  static constexpr double kSlackMargin = 1e-6;

  /// Cumulative solver-work counters (observable via EngineStats).
  struct SolveStats {
    std::uint64_t solves = 0;         ///< solve() calls that did work
    /// solve() calls in which the hub path settled a group's membership
    /// change (unrelated components may have been filled as well).
    std::uint64_t hub_solves = 0;
    /// Fills of a component of at least kHubMinVars variables: the coupled
    /// work the hub path did not answer (entries and fallbacks included).
    std::uint64_t large_fills = 0;
    std::uint64_t vars_touched = 0;   ///< component variables re-filled
    std::uint64_t group_changes = 0;  ///< hub groups whose rate moved
    std::uint64_t hub_entries = 0;    ///< hub groups formed
    std::uint64_t hub_exits = 0;      ///< hub groups dissolved
    /// Lone variables rated by add_variable, no solve involved.
    std::uint64_t lone_rates = 0;
    std::size_t last_component_vars = 0;  ///< size of the last fill
    /// Largest coupled component so far: filled, or re-rated as a group.
    std::size_t max_component_vars = 0;
  };

  /// Adds a resource with the given capacity (units: flop/s or bytes/s).
  ResourceId add_resource(double capacity);

  double capacity(ResourceId r) const;
  void set_capacity(ResourceId r, double capacity);

  /// Adds an active variable on a non-empty resource list. `resources` may
  /// repeat ids (a flow crossing the same switch twice); repeated ids count
  /// once.
  ///
  /// On return, rate(v) holds the variable's rate when it is lone (see the
  /// header comment): the system stays clean for it, and no solve reports
  /// it until a later mutation moves it. Throws, leaving the system as it
  /// was, when no finite capacity limits a lone variable (the fill's own
  /// error). A hub-group member reads its group's rate (group_of); any
  /// other variable reads 0 until the next solve rates it and reports it
  /// in solve_changed().
  VarId add_variable(double weight, const std::vector<ResourceId>& resources);

  /// Deactivates a variable (O(degree) swap-removes). Its id is recycled.
  /// Marks only the resources left with members that were not slack:
  /// removing a lone variable leaves dirty() as it was.
  void remove_variable(VarId v);

  /// True when the system changed since the last solve().
  bool dirty() const {
    return !modified_resources_.empty() || !pending_hubs_.empty() ||
           !pending_exits_.empty();
  }

  /// Re-solves the components reachable from the modified set and the hub
  /// groups whose membership changed (no-op when not dirty).
  void solve();

  /// solve(), then the variables whose rate changed in that solve, members
  /// of hub groups excepted (see changed_groups()). The span is valid until
  /// the next mutation or solve. Empty when nothing changed. A variable is
  /// listed iff its rate differs from what rate() read before the solve,
  /// so lone variables, rated by add_variable, are listed only when a
  /// coupling mutation moves them.
  std::span<const VarId> solve_changed();

  /// Outcome of the last solve() for hub groups; valid until the next
  /// mutation or solve. A variable's rate moved in that solve iff it is in
  /// solve_changed() or its group is in changed_groups(). Groups formed in
  /// the solve are listed in entered_groups() (their members' rate moves
  /// are in solve_changed()); groups dissolved since the previous solve are
  /// in exited_groups() — their former members are ordinary variables
  /// again, listed in solve_changed() when the fill moved them. A GroupId
  /// may appear in exited_groups() and, recycled, in entered_groups().
  std::span<const GroupId> changed_groups() const { return changed_groups_; }
  std::span<const GroupId> entered_groups() const { return entered_groups_; }
  std::span<const GroupId> exited_groups() const { return exited_groups_; }

  /// Hub group `v` belongs to, or -1. Decided when `v` is added, so a
  /// caller can attach a new variable to its group before the next solve.
  GroupId group_of(VarId v) const {
    return vars_[static_cast<std::size_t>(v)].group;
  }
  /// Members of a live hub group (valid until the next mutation).
  std::span<const VarId> group_members(GroupId g) const;
  /// Per-member rate of a live hub group as of the last solve().
  double group_rate(GroupId g) const {
    return hubs_[static_cast<std::size_t>(g)].rate;
  }

  /// Rate assigned by the last solve(), or by add_variable for a lone
  /// variable (0 for one still awaiting its first solve). Requires an
  /// active variable.
  double rate(VarId v) const {
    const auto i = static_cast<std::size_t>(v);
    if (i >= vars_.size() || !vars_[i].active) [[unlikely]]
      throw_inactive(v);
    const Var& var = vars_[i];
    return var.group >= 0 ? hubs_[static_cast<std::size_t>(var.group)].rate
                          : var.rate;
  }

  std::size_t active_variable_count() const { return active_count_; }
  std::size_t resource_count() const { return resources_.size(); }

  /// Total rate currently allocated on a resource (diagnostics/tests).
  double resource_load(ResourceId r) const;

  /// When on, every solve() re-solves the whole system (differential
  /// testing of the incremental path), no resource is slack and no hub
  /// group forms. Changed-variable reporting still works. Set it before
  /// adding variables.
  void set_full_solve(bool on) { full_solve_ = on; }
  bool full_solve() const { return full_solve_; }

  /// True when `r` is slack: it cannot bind, so it couples no variables.
  bool slack(ResourceId r) const {
    return resources_[static_cast<std::size_t>(r)].slack;
  }

  const SolveStats& solve_stats() const { return stats_; }

 private:
  struct Res {
    double capacity = 0.0;
    double ceiling_sum = 0.0;  // members' ceilings; 0 when empty
    std::vector<VarId> vars;  // active members (positions mirrored in Var)
    bool slack = false;       // see slack(); kept by refresh_slack
    bool modified = false;    // queued in modified_resources_
    GroupId hub = -1;         // hub group whose component holds it
    std::int32_t share_pos = -1;  // slot in that group's share heap
    // solve() scratch:
    bool in_component = false;
    std::int32_t slot = -1;  // component-local index during a fill
  };
  struct Var {
    double weight = 1.0;
    double ceiling = kInf;  // see the header comment
    double rate = 0.0;  // members of a hub group: see Hub::rate
    bool active = false;
    GroupId group = -1;
    // solve() scratch:
    bool in_component = false;
    std::int32_t slot = -1;  // component-local index during a fill
    std::vector<ResourceId> resources;       // unique, sorted
    std::vector<std::uint32_t> positions;    // index in each resource's vars
  };
  /// One connected component: slices of component_res_ / component_vars_.
  struct Component {
    std::size_t res_begin = 0, res_end = 0;
    std::size_t var_begin = 0, var_end = 0;
  };
  /// A hub component kept out of the fill (see the header comment).
  struct Hub {
    ResourceId res = -1;  // the hub resource; -1 = free slot
    double rate = 0.0;    // cap / n as of the last solve: every member's rate
    bool pending = false;  // membership changed; queued in pending_hubs_
    // The other resources, keyed (cap_r / n_r, r): the id only breaks ties,
    // as the solve reads nothing but the front's share.
    Heap<ResourceId> shares;
  };

  /// rate()'s cold path: out_of_range (unknown id) or tir::Error.
  [[noreturn, gnu::cold, gnu::noinline]] void throw_inactive(VarId v) const;
  void mark_resource_modified(ResourceId r);
  /// `v`'s ceiling under the current capacities.
  double ceiling_of(const Var& v) const;
  /// Recomputes `res.slack` from its ceiling sum; true when it flipped.
  bool refresh_slack(Res& res);
  /// A slack resource turned coupling: dissolves its members' hub groups.
  void dissolve_member_groups(const Res& res);
  /// add_variable's lone test: every resource `v` uses carries it alone or
  /// is slack, its weight exceeds the fill's epsilon, and full-solve mode
  /// is off.
  bool lone(const Var& v) const;
  /// add_variable's hub check: joins `v` to the group whose hub it crosses
  /// when the component keeps its shape, and dissolves every group it
  /// touches otherwise. Returns true when `v` joined.
  bool hub_admit(VarId v);
  /// Dissolves group `g` back into an ordinary component: members get the
  /// group's published rate (the fill's `prev`), and the hub resource is
  /// marked modified so the next solve re-fills the component.
  void hub_exit(GroupId g);
  /// After fill_component(c): forms a hub group when component `c` has the
  /// hub shape (see the header comment).
  void hub_try_enter(std::size_t c);
  /// Re-keys (or adds / drops) resource `r` in its group's share heap after
  /// its member count changed.
  void hub_update_share(ResourceId r);
  /// The share heaps' hook: records a resource's slot in its group's heap.
  auto place_share() {
    return [this](ResourceId r, std::size_t i) {
      resources_[static_cast<std::size_t>(r)].share_pos =
          static_cast<std::int32_t>(i);
    };
  }
  void hub_queue(GroupId g);
  /// Collects the connected components reachable from the modified
  /// resources (or every active variable when full_solve_ is on) into
  /// component_res_ / component_vars_, one Component slice per BFS, and
  /// clears the modified marks.
  /// The BFS doubles as the fill setup pass: every member joining a
  /// component is loaded into the fill_* scratch arrays at its slot
  /// (= global component position) and resource weight sums accumulate
  /// edge by edge in discovery order.
  void expand_components();
  /// Progressive filling of one component, operating on that component's
  /// [res_begin, res_end) / [var_begin, var_end) slices of the fill_*
  /// arrays. Changed vars are appended to changed_.
  void fill_component(std::size_t c);

  std::vector<Res> resources_;
  std::vector<Var> vars_;
  std::vector<VarId> free_ids_;
  std::size_t active_count_ = 0;
  bool full_solve_ = false;

  // Modified resources (each once, via Res::modified).
  std::vector<ResourceId> modified_resources_;

  // Hub groups, indexed by GroupId; free slots are recycled.
  std::vector<Hub> hubs_;
  std::vector<GroupId> free_hubs_;
  std::vector<GroupId> pending_hubs_;   // membership changed since a solve
  std::vector<GroupId> pending_exits_;  // dissolved since the last solve
  std::vector<GroupId> changed_groups_, entered_groups_, exited_groups_;

  // solve() scratch, reused across calls so the steady state allocates
  // nothing.
  std::vector<ResourceId> component_res_;
  std::vector<VarId> component_vars_;
  std::vector<Component> components_;
  std::vector<VarId> changed_;

  // Progressive-filling state, slot-indexed (slot = position in
  // component_res_ / component_vars_): one compact record per member keeps
  // the fill's round scans on sequential memory. Loaded by
  // expand_components() during the BFS; each fill_component(c) touches only
  // its component's slices.
  struct FillRes {
    double rem;   // remaining capacity
    double wsum;  // unsaturated weight sum
  };
  struct FillVar {
    double rate;   // rate being assigned
    double weight;
    double prev;   // rate before this solve
    bool done;     // saturated flag
  };
  std::vector<FillRes> fill_res_;
  std::vector<FillVar> fill_var_;

  SolveStats stats_;
};

}  // namespace tir::sim
