#include "simkern/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "obs/recorder.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace tir::sim {

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

// The queues' hooks: each records an entry's new slot in its owner.
constexpr auto place_fluid = [](const auto& entry, std::size_t i) {
  entry.fluid->heap_pos = static_cast<std::int32_t>(i);
};
constexpr auto place_member = [](Transfer* flow, std::size_t i) {
  flow->fluid.group_pos = static_cast<std::int32_t>(i);
};
constexpr auto no_slot = [](const auto&, std::size_t) {};
}  // namespace

void Task::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<Task::promise_type> h) noexcept {
  Process* process = h.promise().process;
  if (process && process->engine_) process->engine_->on_process_exit(*process);
}

void Gate::open() {
  if (done()) return;
  if (engine_ == nullptr) return;  // detached gate: nothing to notify
  engine_->complete(*this);
}

Engine::Engine(const plat::Platform& platform, EngineConfig config)
    : platform_(platform), config_(config) {
  net_lmm_.set_full_solve(config.full_solve);
  // One network resource per link, added in link order: link l is
  // resource l, so a route's links are its resources.
  for (std::size_t l = 0; l < platform.link_count(); ++l)
    net_lmm_.add_resource(platform.link(static_cast<int>(l)).bandwidth);
  host_execs_.resize(platform.host_count());
  host_power_factor_.assign(platform.host_count(), 1.0);
  link_bandwidth_factor_.assign(platform.link_count(), 1.0);
  link_latency_factor_.assign(platform.link_count(), 1.0);
}

Engine::~Engine() { drop_frames(); }

EngineStats Engine::stats() const {
  EngineStats stats = stats_;
  const auto& solver = net_lmm_.solve_stats();
  stats.solver_vars_touched = solver.vars_touched;
  stats.solver_component_size_max = solver.max_component_vars;
  stats.lone_rates = solver.lone_rates;
  stats.links_certified = solver.certificates;
  stats.certificates_revoked = solver.revocations;
  stats.refill_passes = solver.refills;
  stats.solver_hub_solves = solver.hub_solves;
  stats.solver_large_fills = solver.large_fills;
  stats.hub_entries = solver.hub_entries;
  stats.hub_exits = solver.hub_exits;
  return stats;
}

void Engine::drop_frames() {
  for (auto it = processes_.rbegin(); it != processes_.rend(); ++it) {
    if ((*it)->coro_) {
      (*it)->coro_.destroy();
      (*it)->coro_ = {};
    }
  }
}

Process& Engine::spawn(std::string name, int host, ProcessBody body) {
  if (host < 0 || static_cast<std::size_t>(host) >= platform_.host_count())
    throw SimError("spawn: unknown host id " + std::to_string(host));
  auto process = std::make_unique<Process>();
  process->id_ = static_cast<int>(processes_.size());
  process->host_ = host;
  process->name_ = std::move(name);
  process->engine_ = this;
  process->body_ = std::move(body);
  Process& ref = *process;
  processes_.push_back(std::move(process));

  Task task = ref.body_(ref);
  ref.coro_ = task.release();
  ref.coro_.promise().process = &ref;
  ready_.push_back(ref.coro_);
  ++live_processes_;
  return ref;
}

void Engine::on_process_exit(Process& process) {
  process.finished_ = true;
  --live_processes_;
  if (process.coro_.promise().error && !first_error_)
    first_error_ = process.coro_.promise().error;
}

// ---------------------------------------------------------------------------
// Fluid bookkeeping.
// ---------------------------------------------------------------------------

void Engine::catch_up(FluidState& fluid) {
  if (fluid.rate > 0 && now_ > fluid.last_update)
    fluid.remaining =
        std::max(0.0, fluid.remaining - fluid.rate * (now_ - fluid.last_update));
  fluid.last_update = now_;
}

// Finish queue: one entry per running flow, per busy host (held by its
// head exec, see reschedule_host) and per share group (held by its head
// flow), re-keyed in place through FluidState::heap_pos; DESIGN key
// decision 2 says why the lazy stale-entry queue went. Pops follow the
// strict (time, seq) order and nothing reads the array order.
void Engine::finish_update(Activity& activity, FluidState& fluid,
                           SimTime time, std::uint64_t seq) {
  if (fluid.heap_pos < 0) {
    finish_.push({time, seq}, QueuedFluid{&activity, &fluid}, place_fluid);
  } else {
    finish_.update(static_cast<std::size_t>(fluid.heap_pos), {time, seq},
                   place_fluid);
  }
}

void Engine::finish_remove(FluidState& fluid) {
  if (fluid.heap_pos < 0) return;
  finish_.erase(static_cast<std::size_t>(fluid.heap_pos), place_fluid);
  fluid.heap_pos = -1;
}

void Engine::set_rate(Activity& activity, FluidState& fluid, double rate) {
  catch_up(fluid);
  fluid.rate = rate;
  if (rate > 0) {
    fluid.finish_est = now_ + fluid.remaining / rate;
    finish_update(activity, fluid, fluid.finish_est, seq_++);
  } else {
    fluid.finish_est = kInf;  // starved: no completion until a rate change
    finish_remove(fluid);
  }
}

// Share groups: the flows of one solver hub group progress on one virtual
// clock. Member keys order the group's binary heap; ties fall to join
// order (seq). The head's finish is last_update + (key − clock) / rate at
// the stored clock; a leave leaves the clock alone and requeues the next
// head at its finish under that same clock.

void Engine::group_catch_up(ShareGroup& group) {
  if (now_ > group.last_update)
    group.clock += group.rate * (now_ - group.last_update);
  group.last_update = now_;
}

void Engine::group_requeue(ShareGroup& group) {
  Transfer* head = group.members.empty() ? nullptr : group.members.front();
  if (group.queued != nullptr && group.queued != head)
    finish_remove(group.queued->fluid);
  group.queued = head;
  if (head == nullptr) return;
  FluidState& fluid = head->fluid;
  fluid.finish_est = member_finish(group, group.members.front_key().first);
  finish_update(*head, fluid, fluid.finish_est, seq_++);
}

void Engine::group_join(Transfer& flow, GroupId g) {
  ShareGroup& group = groups_[static_cast<std::size_t>(g)];
  group_catch_up(group);
  flow.fluid.group = g;
  group.members.push({group.clock + flow.fluid.remaining, seq_++}, &flow,
                     place_member);
  if (flow.fluid.group_pos == 0) group_requeue(group);
}

void Engine::group_leave(Transfer& flow) {
  ShareGroup& group = groups_[static_cast<std::size_t>(flow.fluid.group)];
  group.members.erase(static_cast<std::size_t>(flow.fluid.group_pos),
                      place_member);
  flow.fluid.group = -1;
  flow.fluid.group_pos = -1;
  if (group.queued == &flow) {
    group.queued = nullptr;  // the caller dropped its finish entry
    group_requeue(group);
  }
}

void Engine::group_form(GroupId g) {
  if (static_cast<std::size_t>(g) >= groups_.size())
    groups_.resize(static_cast<std::size_t>(g) + 1);
  ShareGroup& group = groups_[static_cast<std::size_t>(g)];
  group.rate = net_lmm_.group_rate(g);
  group.clock = 0.0;
  group.last_update = now_;
  group.queued = nullptr;
  for (const VarId var : net_lmm_.group_members(g)) {
    Transfer& flow = *var_flows_[static_cast<std::size_t>(var)];
    catch_up(flow.fluid);
    finish_remove(flow.fluid);
    flow.fluid.group = g;
    group.members.push({flow.fluid.remaining, seq_++}, &flow, place_member);
  }
  group_requeue(group);
}

void Engine::group_dissolve(GroupId g) {
  ShareGroup& group = groups_[static_cast<std::size_t>(g)];
  group_catch_up(group);
  for (std::size_t i = 0; i < group.members.size(); ++i) {
    Transfer& flow = *group.members[i];
    FluidState& fluid = flow.fluid;
    fluid.remaining = std::max(0.0, group.members.key(i).first - group.clock);
    fluid.rate = group.rate;
    fluid.last_update = now_;
    fluid.group = -1;
    fluid.group_pos = -1;
    fluid.finish_est = now_ + fluid.remaining / fluid.rate;
    finish_update(flow, fluid, fluid.finish_est, seq_++);
  }
  group.members.clear();
  group.queued = nullptr;
}

// A host's execs share its power equally, and the host has one finish-queue
// entry, keyed with its head's own (finish_est, seq): the head is the exec
// with the smallest key. Each exec whose share moved is caught up at its old
// rate, re-rated and re-estimated, and takes one seq, in host-list order.
// The queue pops in strict (time, seq) order and each host entry carries
// exactly its minimum member's key, so every pop takes the exec that one
// entry per exec would have popped. A fresh seq for the entry would not:
// after a reschedule that re-rates nothing it would reorder ties across
// hosts.
void Engine::reschedule_host(int host) {
  auto& execs = host_execs_[static_cast<std::size_t>(host)];
  if (execs.empty()) return;
  const double rate = platform_.host(host).power *
                      host_power_factor_[static_cast<std::size_t>(host)] /
                      static_cast<double>(execs.size());
  if (!(rate > 0)) {  // a share that underflows: the execs starve
    for (const auto& exec : execs) set_rate(*exec, exec->fluid, 0.0);
    return;
  }
  Exec* head = nullptr;
  Exec* holder = nullptr;  // the exec holding the host's entry, if queued
  for (const auto& exec : execs) {
    FluidState& fluid = exec->fluid;
    if (fluid.heap_pos >= 0) holder = exec.get();
    if (fluid.rate != rate) {
      catch_up(fluid);
      fluid.rate = rate;
      fluid.finish_est = now_ + fluid.remaining / rate;
      fluid.seq = seq_++;
    }
    if (head == nullptr || fluid.finish_est < head->fluid.finish_est ||
        (fluid.finish_est == head->fluid.finish_est &&
         fluid.seq < head->fluid.seq))
      head = exec.get();
  }
  if (holder != nullptr && holder != head) {
    // The head changed: it takes over the entry's slot in place.
    finish_[static_cast<std::size_t>(holder->fluid.heap_pos)] =
        QueuedFluid{head, &head->fluid};
    head->fluid.heap_pos = std::exchange(holder->fluid.heap_pos, -1);
  }
  finish_update(*head, head->fluid, head->fluid.finish_est, head->fluid.seq);
}

void Engine::resolve_network() {
  if (!net_lmm_.dirty()) return;
  const auto changed = net_lmm_.solve_changed();
  ++stats_.solver_calls;
  // Dissolved groups first: their flows must be per-flow again before the
  // fill's changes re-rate them. Formed groups last: the fill just rated
  // their members.
  for (const GroupId g : net_lmm_.exited_groups()) group_dissolve(g);
  for (const VarId var : changed) {
    const auto& transfer = var_flows_[static_cast<std::size_t>(var)];
    if (!transfer) continue;
    const double rate = net_lmm_.rate(var);
    const double old = transfer->fluid.rate;
    // Requeue only on a meaningful change to keep the heap lean.
    if (rate != old &&
        (old <= 0 || std::abs(rate - old) > 1e-12 * std::max(rate, old))) {
      set_rate(*transfer, transfer->fluid, rate);
      ++stats_.flows_rerated;
    }
  }
  for (const GroupId g : net_lmm_.entered_groups()) group_form(g);
  for (const GroupId g : net_lmm_.changed_groups()) {
    ShareGroup& group = groups_[static_cast<std::size_t>(g)];
    group_catch_up(group);
    group.rate = net_lmm_.group_rate(g);
    group_requeue(group);
    ++stats_.groups_rerated;
  }
}

Ref<Exec> Engine::exec_async(int host, double flops, double efficiency) {
  if (host < 0 || static_cast<std::size_t>(host) >= platform_.host_count())
    throw SimError("exec_async: unknown host id " + std::to_string(host));
  if (!(efficiency > 0)) throw SimError("exec_async: efficiency must be > 0");
  auto exec = make_ref<Exec>();
  exec->host = host;
  exec->flops = flops;
  exec->start_time_ = now_;
  ++stats_.activities;
  if (flops <= 0) {
    complete(*exec);
    return exec;
  }
  exec->fluid.remaining = flops / efficiency;
  exec->fluid.last_update = now_;
  auto& execs = host_execs_[static_cast<std::size_t>(host)];
  exec->fluid.index = execs.size();
  execs.push_back(exec);
  reschedule_host(host);
  return exec;
}

const Engine::CachedRoute& Engine::cached_route(int src_host, int dst_host) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_host))
       << 32) |
      static_cast<std::uint32_t>(dst_host);
  auto it = route_cache_.find(key);
  if (it == route_cache_.end()) {
    CachedRoute cached;
    cached.resources = platform_.route(src_host, dst_host).links;
    cached.latency = route_latency_sum(cached.resources);
    it = route_cache_.emplace(key, std::move(cached)).first;
  }
  return it->second;
}

double Engine::route_latency_sum(const std::vector<ResourceId>& links) const {
  // Sum per-link latencies here rather than take route.latency, so link
  // degradation factors apply (the two agree when every factor is 1.0).
  double latency = 0.0;
  for (const plat::LinkId link : links)
    latency += platform_.link(link).latency *
               link_latency_factor_[static_cast<std::size_t>(link)];
  return latency;
}

void Engine::set_host_factor(int host, double factor) {
  if (host < 0 || static_cast<std::size_t>(host) >= platform_.host_count())
    throw SimError("set_host_factor: unknown host id " + std::to_string(host));
  if (!(factor > 0)) throw SimError("set_host_factor: factor must be > 0");
  if (host_power_factor_[static_cast<std::size_t>(host)] == factor) return;
  host_power_factor_[static_cast<std::size_t>(host)] = factor;
  if (config_.recorder)
    config_.recorder->fault(now_, obs::FaultEvent::Kind::host, host, factor);
  // reschedule_host re-rates every running Exec whose equal share changed
  // (set_rate catches each fluid up at its old rate first).
  reschedule_host(host);
}

double Engine::host_factor(int host) const {
  if (host < 0 || static_cast<std::size_t>(host) >= platform_.host_count())
    throw SimError("host_factor: unknown host id " + std::to_string(host));
  return host_power_factor_[static_cast<std::size_t>(host)];
}

double Engine::link_bandwidth_factor(int link) const {
  if (link < 0 || static_cast<std::size_t>(link) >= platform_.link_count())
    throw SimError("link_bandwidth_factor: unknown link id " +
                   std::to_string(link));
  return link_bandwidth_factor_[static_cast<std::size_t>(link)];
}

double Engine::link_latency_factor(int link) const {
  if (link < 0 || static_cast<std::size_t>(link) >= platform_.link_count())
    throw SimError("link_latency_factor: unknown link id " +
                   std::to_string(link));
  return link_latency_factor_[static_cast<std::size_t>(link)];
}

void Engine::set_link_factors(int link, double bandwidth_factor,
                              double latency_factor) {
  if (link < 0 || static_cast<std::size_t>(link) >= platform_.link_count())
    throw SimError("set_link_factors: unknown link id " + std::to_string(link));
  if (!(bandwidth_factor > 0))
    throw SimError("set_link_factors: bandwidth factor must be > 0");
  if (!(latency_factor >= 0))
    throw SimError("set_link_factors: latency factor must be >= 0");
  if (link_bandwidth_factor_[static_cast<std::size_t>(link)] ==
          bandwidth_factor &&
      link_latency_factor_[static_cast<std::size_t>(link)] == latency_factor)
    return;
  net_lmm_.set_capacity(link,
                        platform_.link(link).bandwidth * bandwidth_factor);
  link_bandwidth_factor_[static_cast<std::size_t>(link)] = bandwidth_factor;
  link_latency_factor_[static_cast<std::size_t>(link)] = latency_factor;
  if (config_.recorder)
    config_.recorder->fault(now_, obs::FaultEvent::Kind::link, link,
                            bandwidth_factor, latency_factor);
  // Cached route latencies embed the old factor: re-sum the routes that
  // cross the link, in place (transfers in their latency phase point at
  // them). The sum is the one cached_route makes, so it is bit-identical
  // to a fresh computation.
  for (auto& [key, cached] : route_cache_) {
    const auto& links = cached.resources;
    if (std::find(links.begin(), links.end(), link) != links.end())
      cached.latency = route_latency_sum(links);
  }
}

double Engine::route_latency(int src_host, int dst_host) {
  return cached_route(src_host, dst_host).latency;
}

Ref<Transfer> Engine::transfer_async(int src_host, int dst_host,
                                     double bytes) {
  auto transfer = make_ref<Transfer>();
  transfer->src_host = src_host;
  transfer->dst_host = dst_host;
  transfer->bytes = bytes;
  transfer->start_time_ = now_;
  ++stats_.activities;

  const CachedRoute& route = cached_route(src_host, dst_host);
  const auto& segment = platform_.net_model().classify(
      static_cast<std::uint64_t>(std::max(0.0, bytes)));
  transfer->latency = segment.latency_factor * route.latency;
  transfer->amount = bytes > 0 ? bytes / segment.bandwidth_factor : 0.0;
  transfer->route = &route.resources;

  if (transfer->latency <= 0) {
    start_flow(*transfer);
  } else {
    timers_.push({now_ + transfer->latency, seq_++},
                 TimedEvent{TimedEvent::What::latency_done, transfer},
                 no_slot);
  }
  return transfer;
}

Ref<Transfer> Engine::injection_async(int host, double bytes) {
  auto transfer = make_ref<Transfer>();
  transfer->src_host = host;
  transfer->dst_host = host;
  transfer->bytes = bytes;
  transfer->amount = bytes;
  transfer->start_time_ = now_;
  ++stats_.activities;
  // A host's route to itself is its loopback link (empty without one),
  // built once in the route cache.
  transfer->route = &cached_route(host, host).resources;
  start_flow(*transfer);
  return transfer;
}

Ref<Timer> Engine::timer_async(SimTime duration) {
  if (duration < 0) throw SimError("timer_async: negative duration");
  auto timer = make_ref<Timer>();
  timer->fire_at = now_ + duration;
  timer->start_time_ = now_;
  ++stats_.activities;
  if (duration == 0) {
    complete(*timer);
  } else {
    timers_.push({timer->fire_at, seq_++},
                 TimedEvent{TimedEvent::What::timer_fire, timer},
                 no_slot);
  }
  return timer;
}

GatePtr Engine::make_gate() {
  auto gate = make_ref<Gate>();
  gate->engine_ = this;
  gate->start_time_ = now_;
  ++stats_.activities;
  return gate;
}

void Engine::start_flow(Transfer& transfer) {
  if (transfer.done()) return;
  if (transfer.amount <= 0 || transfer.route->empty()) {
    // Nothing to stream (zero payload) or an unconstrained local copy.
    complete(transfer);
    return;
  }
  transfer.fluid.remaining = transfer.amount;
  transfer.fluid.last_update = now_;
  transfer.fluid.var = net_lmm_.add_variable(1.0, *transfer.route);
  const auto slot = static_cast<std::size_t>(transfer.fluid.var);
  if (slot >= var_flows_.size()) var_flows_.resize(slot + 1);
  var_flows_[slot] = Ref<Transfer>(&transfer);
  // Joining a hub group happens at once; the group's new rate follows at
  // the next solve, still at this instant. A lone flow was rated by the
  // add, and no solve will report it; any other flow reads 0 until the
  // solve at this instant.
  const GroupId g = net_lmm_.group_of(transfer.fluid.var);
  if (g >= 0) {
    group_join(transfer, g);
  } else if (const double rate = net_lmm_.rate(transfer.fluid.var); rate > 0) {
    set_rate(transfer, transfer.fluid, rate);
    ++stats_.flows_rerated;
  }
}

void Engine::complete(Activity& activity) {
  if (activity.done_) return;
  activity.done_ = true;
  activity.finish_time_ = now_;
  if (config_.recorder && config_.recorder->activity_detail()) {
    if (activity.kind() == Activity::Kind::exec) {
      const auto& exec = static_cast<const Exec&>(activity);
      config_.recorder->activity_span(exec.host, -1, obs::SpanKind::exec,
                                      exec.start_time_, now_, exec.flops);
    } else if (activity.kind() == Activity::Kind::transfer) {
      const auto& transfer = static_cast<const Transfer&>(activity);
      config_.recorder->activity_span(transfer.src_host, transfer.dst_host,
                                      obs::SpanKind::transfer,
                                      transfer.start_time_, now_,
                                      transfer.bytes);
    }
  }
  switch (activity.kind()) {
    case Activity::Kind::exec: {
      auto& exec = static_cast<Exec&>(activity);
      finish_remove(exec.fluid);
      auto& execs = host_execs_[static_cast<std::size_t>(exec.host)];
      if (exec.fluid.index < execs.size() &&
          execs[exec.fluid.index].get() == &exec) {
        execs[exec.fluid.index] = std::move(execs.back());
        execs[exec.fluid.index]->fluid.index = exec.fluid.index;
        execs.pop_back();
        reschedule_host(exec.host);
      }
      break;
    }
    case Activity::Kind::transfer: {
      auto& transfer = static_cast<Transfer&>(activity);
      finish_remove(transfer.fluid);
      if (transfer.fluid.group >= 0) group_leave(transfer);
      if (transfer.fluid.var >= 0) {
        net_lmm_.remove_variable(transfer.fluid.var);
        var_flows_[static_cast<std::size_t>(transfer.fluid.var)].reset();
        transfer.fluid.var = -1;
      }
      break;
    }
    default:
      break;
  }
  if (activity.first_waiter_) {
    ready_.push_back(std::exchange(activity.first_waiter_, {}));
    for (const auto waiter : activity.more_waiters_) ready_.push_back(waiter);
    activity.more_waiters_.clear();
  }
}

void Engine::drain_ready() {
  while (!ready_.empty()) {
    const auto handle = ready_.front();
    ready_.pop_front();
    ++stats_.resumes;
    handle.resume();
  }
}

void Engine::run() {
  drain_ready();

  while (!first_error_) {
    resolve_network();

    const SimTime t_fluid = finish_.empty() ? kInf : finish_.front_key().first;
    const SimTime t_timer = timers_.empty() ? kInf : timers_.front_key().first;
    const SimTime t_next = std::min(t_fluid, t_timer);
    if (t_next == kInf) break;
    now_ = t_next;

    // Complete every fluid due at this instant. Completions can reschedule
    // siblings to earlier finishes (a host freeing up), so keep examining
    // the queue front rather than iterating a snapshot.
    const double time_eps = 1e-9 * (1.0 + std::abs(now_));
    for (;;) {
      if (finish_.empty() || finish_.front_key().first > now_ + time_eps) break;
      const QueuedFluid entry = finish_.pop(place_fluid);
      entry.fluid->heap_pos = -1;
      // complete() lets go of the engine's own reference.
      const ActivityPtr activity(entry.activity);
      complete(*activity);
    }

    while (!timers_.empty() && timers_.front_key().first <= now_ + time_eps) {
      const TimedEvent event = timers_.pop(no_slot);
      ++stats_.heap_events;
      if (event.activity->done()) continue;
      if (event.what == TimedEvent::What::timer_fire) {
        complete(*event.activity);
      } else {
        start_flow(static_cast<Transfer&>(*event.activity));
      }
    }

    drain_ready();
  }

  if (first_error_) {
    const auto error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
  if (live_processes_ > 0) {
    // Build one diagnostic line per blocked process. The quiescent state is
    // deterministic (same trace + platform => same blocked set), so these
    // diagnostics are stable across runs and worker counts.
    std::vector<std::string> blocked;
    for (const auto& p : processes_) {
      if (p->finished()) continue;
      std::string line =
          p->name() + " on host " + std::to_string(p->host()) + ": " +
          (p->diagnostics_ ? p->diagnostics_() : std::string("blocked"));
      blocked.push_back(std::move(line));
    }
    std::ostringstream os;
    os << "deadlock at t=" << now_ << ": " << live_processes_
       << " process(es) blocked with no pending event:";
    std::size_t listed = 0;
    for (const auto& line : blocked) {
      if (listed++ == 10) {
        os << " [+" << (blocked.size() - 10) << " more]";
        break;
      }
      os << "\n  " << line;
    }
    throw DeadlockError(os.str(), now_, std::move(blocked));
  }
}

}  // namespace tir::sim
