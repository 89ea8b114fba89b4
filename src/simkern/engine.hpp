// The discrete-event simulation engine (SimGrid-kernel equivalent).
//
// The engine advances a fluid model: at any instant every running Exec /
// Transfer progresses at a rate; the next event is the earliest fluid
// completion or the earliest timed event (timer firing, transfer latency
// expiring). Simulated processes are coroutines resumed by the engine;
// they create activities and `co_await engine.wait(activity)`.
//
// Scheduling is sequential: an await on an unfinished activity always
// suspends, and run() resumes ready coroutines one at a time in wake-up
// order. That single schedule defines the results every test pins.
//
// Scalability design (this is what keeps 1,024-rank replays tractable):
//   - CPUs are scheduled separately from the network: concurrent Execs on
//     a host share its power equally, so only that host's Execs are
//     touched when one starts or finishes (O(execs-on-host), not
//     O(all-activities)).
//   - Network flows go through the incremental max-min solver: a change
//     re-solves only the connected component(s) of the constraint graph it
//     touched, and only flows whose solved rate actually moved are re-rated
//     (O(changed), not O(live flows)).
//   - Fluid progress is tracked lazily: each fluid stores its remaining
//     work as of `last_update`, and its predicted finish sits in an indexed
//     4-ary min-heap — one entry per running fluid, re-keyed in place when
//     its rate changes. Advancing simulated time is O(1) instead of
//     O(active fluids).
//   - Share groups: the flows of one solver hub group (a saturated
//     backbone every member crosses, all at one rate; see maxmin.hpp) share
//     a virtual clock V, the work each member has done since the group
//     formed. A member's key is V at its join plus its remaining work, so
//     its remaining is key − V; only the group head (smallest key) sits in
//     the finish heap. A group re-rate is O(log) instead of O(members), a
//     join or leave O(log members). Exact in real arithmetic; in floating
//     point the finish times stay within 1e-9 relative of the per-flow
//     reference (full_solve, which never forms groups).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "platform/platform.hpp"
#include "simkern/activity.hpp"
#include "simkern/co.hpp"
#include "simkern/maxmin.hpp"

namespace tir::obs {
class Recorder;
}

namespace tir::sim {

class Process {
 public:
  int id() const { return id_; }
  int host() const { return host_; }
  const std::string& name() const { return name_; }
  bool finished() const { return finished_; }

  /// Installs a callback describing what this process is blocked on; the
  /// engine calls it when it detects a deadlock to build per-actor
  /// diagnostics (the MPI world wires this to Rank state).
  void set_diagnostics(std::function<std::string()> fn) {
    diagnostics_ = std::move(fn);
  }

 private:
  friend class Engine;
  friend struct Task::promise_type::FinalAwaiter;
  int id_ = -1;
  int host_ = -1;
  std::string name_;
  bool finished_ = false;
  Engine* engine_ = nullptr;
  std::function<std::string()> diagnostics_;
  Task::Handle coro_;
  // The body callable must outlive its coroutine frame: a coroutine lambda
  // references its own closure object, so the Process owns it.
  std::function<Task(Process&)> body_;
};

struct EngineConfig {
  /// When true (default), run() throws SimError if processes remain blocked
  /// with no pending event (deadlock). When false, run() returns normally.
  bool deadlock_is_error = true;
  /// When true, the network max-min solver re-solves the whole system on
  /// every change instead of only the modified connected components —
  /// the reference path for differential testing of the incremental solver.
  bool full_solve = false;
  /// Observability sink, or null (the default: recording fully disabled,
  /// costing one pointer test per emission site). The engine records fault
  /// activations always, and per-activity spans on host tracks when the
  /// recorder's activity_detail flag is set. The recorder must outlive the
  /// engine and is only touched from the simulation thread.
  obs::Recorder* recorder = nullptr;
};

struct EngineStats {
  std::uint64_t resumes = 0;        ///< coroutine context switches
  std::uint64_t activities = 0;     ///< activities created
  std::uint64_t solver_calls = 0;   ///< network max-min re-solves
  std::uint64_t heap_events = 0;    ///< timed events dispatched
  // Solver work: how much of the network system each re-solve touched.
  std::uint64_t solver_vars_touched = 0;  ///< component vars re-solved (sum)
  std::uint64_t solver_component_size_max = 0;  ///< largest single re-solve
  std::uint64_t flows_rerated = 0;  ///< transfers whose rate was requeued
  // Hub groups (see maxmin.hpp) and their engine-side share groups.
  std::uint64_t solver_hub_solves = 0;  ///< re-solves a hub group answered
  std::uint64_t solver_large_fills = 0;  ///< fills of >= kHubMinVars vars
  std::uint64_t groups_rerated = 0;     ///< share groups re-rated as one
  std::uint64_t hub_entries = 0;        ///< share groups formed
  std::uint64_t hub_exits = 0;          ///< share groups dissolved
};

class Engine {
 public:
  explicit Engine(const plat::Platform& platform, EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const plat::Platform& platform() const { return platform_; }
  SimTime now() const { return now_; }
  const EngineStats& stats() const { return stats_; }

  using ProcessBody = std::function<Task(Process&)>;

  /// Creates a process on `host`, scheduled to start at the current time.
  Process& spawn(std::string name, int host, ProcessBody body);

  /// Runs until no event remains. Throws the first exception escaping a
  /// process body, or SimError on deadlock (see EngineConfig).
  void run();

  /// Destroys all remaining coroutine frames (reverse creation order) —
  /// frames suspended at any await point are safe to destroy. Call this
  /// before objects referenced by frame locals (MPI ranks, replay contexts)
  /// go out of scope: after run() throws, suspended frames still hold RAII
  /// guards into them, and leaving teardown to ~Engine would run those
  /// destructors after the referents are gone. Idempotent; ~Engine calls it.
  void drop_frames();

  // -- activity factories (started immediately) ---------------------------

  /// Computation of `flops` on `host` at `efficiency` * nominal speed.
  /// The CPU is shared equally among concurrent Execs on the host.
  std::shared_ptr<Exec> exec_async(int host, double flops,
                                   double efficiency = 1.0);

  /// Message of `bytes` from src to dst, subject to the platform's
  /// piece-wise-linear MPI model and link contention.
  std::shared_ptr<Transfer> transfer_async(int src_host, int dst_host,
                                           double bytes);

  /// Local buffer copy of `bytes` on `host` (an eager send handing its
  /// payload to the MPI runtime): a zero-latency fluid over the host's
  /// loopback (memory) capacity. Completes instantly when the host has no
  /// loopback link configured.
  std::shared_ptr<Transfer> injection_async(int host, double bytes);

  std::shared_ptr<Timer> timer_async(SimTime duration);

  /// Nominal one-way route latency between two hosts (cached).
  double route_latency(int src_host, int dst_host);

  // -- fault injection / perturbation ---------------------------------------
  // Factor changes take effect immediately: running Execs/flows are re-rated,
  // and activities started afterwards see the changed platform. They model a
  // host or link failing *partially* mid-simulation (the "Variability
  // Matters" workload) and healing again.
  //
  // Semantics (pinned; the variability tests regression-test this): every
  // factor is ABSOLUTE RELATIVE TO THE PLATFORM'S NOMINAL value, tracked by
  // the engine against the pristine platform. Setting a factor twice does
  // not compound — the second call overwrites the first — so repeated
  // degrade events on one resource are idempotent, and a factor of 1.0
  // always returns the resource exactly to its nominal rate whatever
  // sequence of events preceded it.

  /// Sets `host`'s compute power to `factor` (> 0) times nominal from the
  /// current simulated time onwards. Running Execs are re-rated.
  void set_host_factor(int host, double factor);

  /// Sets a link's bandwidth to `bandwidth_factor` (> 0) and its latency to
  /// `latency_factor` (>= 0) times their nominal values from the current
  /// simulated time onwards. Flowing transfers are re-solved; latency
  /// applies to transfers started after the call.
  void set_link_factors(int link, double bandwidth_factor,
                        double latency_factor);

  /// Current factors relative to nominal (1.0 = healthy). Used by recovery
  /// injectors to capture the factor in force before an outage.
  double host_factor(int host) const;
  double link_bandwidth_factor(int link) const;
  double link_latency_factor(int link) const;

  GatePtr make_gate();

  // -- awaiting ------------------------------------------------------------

  struct Awaiter {
    Activity* activity;
    bool await_ready() const noexcept { return activity->done(); }
    void await_suspend(std::coroutine_handle<> h) {
      activity->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  /// Awaiter that keeps its activity alive for the await's duration — used
  /// for anonymous activities nobody else holds (wait_for's timers). Living
  /// in the coroutine frame, it releases its reference exactly when the
  /// co_await resumes, so long replays accumulate no dead ActivityPtrs.
  struct OwningAwaiter {
    ActivityPtr activity;
    bool await_ready() const noexcept { return activity->done(); }
    void await_suspend(std::coroutine_handle<> h) {
      activity->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  /// co_await engine.wait(act) — suspends until the activity completes.
  Awaiter wait(const ActivityPtr& activity) { return Awaiter{activity.get()}; }
  Awaiter wait(Activity& activity) { return Awaiter{&activity}; }

  /// Convenience: one-shot sleep.
  OwningAwaiter wait_for(SimTime duration) {
    return OwningAwaiter{timer_async(duration)};
  }

 private:
  friend class Gate;
  friend struct Task::promise_type::FinalAwaiter;

  struct CachedRoute {
    std::vector<ResourceId> resources;
    double latency = 0.0;
  };

  struct HeapItem {
    SimTime time;
    std::uint64_t seq;
    enum class What { timer_fire, latency_done } what;
    ActivityPtr activity;
    bool operator>(const HeapItem& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  // Finish-time queue entry for fluids. Every running fluid (rate > 0,
  // activity not done) has exactly one entry, re-keyed in place on rate
  // changes through FluidState::heap_pos. The entry holds a strong
  // reference so a scheduled activity outlives its owner dropping it.
  struct FinishItem {
    SimTime time;
    std::uint64_t seq;
    ActivityPtr activity;
    FluidState* fluid;  // points into *activity
  };

  const CachedRoute& cached_route(int src_host, int dst_host);
  void complete(Activity& activity);
  void start_flow(Transfer& transfer);

  // Indexed 4-ary min-heap over the running fluids (see the comment block
  // in engine.cpp). Pop order is the strict (time, seq) total order.
  static bool finish_before(const FinishItem& a, const FinishItem& b);
  void finish_place(FinishItem item, std::size_t i);
  std::size_t finish_sift_up(std::size_t i);
  std::size_t finish_sift_down(std::size_t i);
  /// Inserts `fluid`'s entry or re-keys it in place to (time, fresh seq).
  void finish_update(const ActivityPtr& activity, FluidState& fluid,
                     SimTime time);
  /// Drops `fluid`'s entry if queued (starvation, completion).
  void finish_remove(FluidState& fluid);
  /// Removes the earliest entry.
  void finish_pop();

  /// Brings `fluid.remaining` up to date at the current time.
  void catch_up(FluidState& fluid);
  /// Sets a fluid's rate (catching it up first) and requeues its finish.
  void set_rate(const ActivityPtr& activity, FluidState& fluid, double rate);

  // Share groups (see the header comment). Members sit in a binary min-heap
  // on (key, seq); the head alone holds a finish-heap entry.
  struct Member {
    double key;  // V at the join + remaining work then
    std::uint64_t seq;
    Transfer* flow;  // kept alive by var_flows_
  };
  struct ShareGroup {
    double rate = 0.0;   // every member's rate
    double clock = 0.0;  // V as of last_update
    SimTime last_update = 0.0;
    std::vector<Member> members;
    Transfer* queued = nullptr;  // the member holding the finish entry
  };
  /// Finish time of a member with `key` at the group's stored clock.
  static SimTime member_finish(const ShareGroup& group, double key) {
    return group.last_update + std::max(0.0, key - group.clock) / group.rate;
  }
  void member_place(ShareGroup& group, Member m, std::size_t i);
  void member_sift(ShareGroup& group, std::size_t i);
  void group_catch_up(ShareGroup& group);
  /// Gives the finish-heap entry to the current head, keyed at its finish.
  void group_requeue(ShareGroup& group);
  void group_join(Transfer& flow, GroupId g);
  void group_leave(Transfer& flow);
  /// Solver group `g` formed: its flows leave the finish heap for the group.
  void group_form(GroupId g);
  /// Solver group `g` dissolved: members return to per-flow state.
  void group_dissolve(GroupId g);

  /// Equal-share rescheduling of one host's Execs.
  void reschedule_host(int host);
  /// Incremental network max-min resolve; re-rates only the flows whose
  /// solved rate changed (the solver's changed-variable set).
  void resolve_network();

  void drain_ready();
  void on_process_exit(Process& process);

  const plat::Platform& platform_;
  EngineConfig config_;

  // Network model state. The engine keeps flowing transfers alive through
  // var_flows_, a VarId-indexed side table (dense: the solver recycles ids)
  // that lets resolve_network() re-rate exactly the flows the incremental
  // solver reports as changed instead of rescanning every live flow.
  MaxMin net_lmm_;
  std::vector<ResourceId> link_res_;   // link id -> network resource
  std::vector<std::shared_ptr<Transfer>> var_flows_;  // VarId -> flow
  std::vector<ShareGroup> groups_;  // GroupId -> share group

  // CPU scheduling state; active execs per host, kept alive by the engine.
  std::vector<std::vector<std::shared_ptr<Exec>>> host_execs_;

  // Fault-injection state: current factors over the platform's nominal host
  // powers and link bandwidths/latencies (1.0 = healthy). Absolute, not
  // compounding: set_* overwrites, so nominal is always recoverable.
  std::vector<double> host_power_factor_;
  std::vector<double> link_bandwidth_factor_;
  std::vector<double> link_latency_factor_;

  std::unordered_map<std::uint64_t, CachedRoute> route_cache_;

  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap_;
  std::vector<FinishItem> finish_heap_;  // indexed min-heap, one per fluid
  std::deque<std::coroutine_handle<>> ready_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::size_t live_processes_ = 0;
  std::exception_ptr first_error_;
  EngineStats stats_;
};

/// Awaits every activity in order (completion order does not matter for the
/// resulting simulated time).
Co<void> wait_all(Engine& engine, std::vector<ActivityPtr> activities);

}  // namespace tir::sim
