// Action registry: maps trace keywords to replay behaviours, mirroring
// SimGrid's MSG_action_register (paper §5). run_scenario installs default
// handlers for every Table 1 action; a scenario's customize_registry hook
// may override any of them to explore alternative semantics without
// touching the replayer (the paper's "wide range of what-if scenarios ...
// without any modification of the simulator").
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>

#include "mpisim/mpi.hpp"
#include "trace/action.hpp"

namespace tir::replay {

/// Per-process state handed to action handlers.
class ReplayCtx {
 public:
  ReplayCtx(mpi::Rank& rank, double compute_efficiency)
      : rank_(rank), compute_efficiency_(compute_efficiency) {}

  mpi::Rank& rank() { return rank_; }
  int pid() const { return rank_.rank(); }
  double compute_efficiency() const { return compute_efficiency_; }

  /// FIFO of pending non-blocking requests: the trace's `wait` action
  /// carries no parameters, so it completes the oldest pending request.
  void push_request(mpi::Request request) {
    pending_.push_back(std::move(request));
  }
  mpi::Request pop_request();
  std::size_t pending_requests() const { return pending_.size(); }

 private:
  mpi::Rank& rank_;
  double compute_efficiency_;
  std::deque<mpi::Request> pending_;
};

using ActionHandler =
    std::function<sim::Co<void>(ReplayCtx&, const trace::Action&)>;

class ActionRegistry {
 public:
  /// Installs the default handler for every Table 1 keyword.
  static ActionRegistry with_defaults();

  /// Registers (or replaces) the handler for a trace keyword, e.g.
  /// registry.register_action("compute", fn) — the MSG_action_register
  /// equivalent. Throws on unknown keywords.
  void register_action(const std::string& keyword, ActionHandler handler);

  /// Handler lookup; throws tir::SimError when the action has no handler.
  const ActionHandler& handler(trace::ActionType type) const;

 private:
  std::unordered_map<std::string, ActionHandler> handlers_;
};

}  // namespace tir::replay
