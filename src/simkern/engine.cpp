#include "simkern/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/recorder.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace tir::sim {

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
}

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
  link_res_.reserve(platform.link_count());
  for (std::size_t l = 0; l < platform.link_count(); ++l)
    link_res_.push_back(
        net_lmm_.add_resource(platform.link(static_cast<int>(l)).bandwidth));
  host_execs_.resize(platform.host_count());
  host_power_factor_.assign(platform.host_count(), 1.0);
  link_bandwidth_factor_.assign(platform.link_count(), 1.0);
  link_latency_factor_.assign(platform.link_count(), 1.0);
}

Engine::~Engine() { drop_frames(); }

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

// Finish queue: indexed 4-ary min-heap over the running fluids.
//
// Every fluid with a positive rate has exactly one entry, re-keyed in place
// when a solve changes its rate (FluidState::heap_pos tracks the slot). The
// lazy alternative — push a fresh entry per re-rate, drop stale ones as
// they surface at the top — floods the queue at scale: on a shared
// backbone every solve re-rates O(coupled flows), so stale entries come to
// dominate the heap, deepening every sift and burning a pop each. Re-keying
// keeps the heap at live size, and a rate change that barely moves the
// finish estimate barely moves the entry. Pop order is the same strict
// (time, seq) total order either way — stale entries never complete
// anything — so simulated times are bit-identical.
bool Engine::finish_before(const FinishItem& a, const FinishItem& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

void Engine::finish_place(FinishItem item, std::size_t i) {
  item.fluid->heap_pos = static_cast<std::int32_t>(i);
  finish_heap_[i] = std::move(item);
}

std::size_t Engine::finish_sift_up(std::size_t i) {
  FinishItem item = std::move(finish_heap_[i]);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!finish_before(item, finish_heap_[parent])) break;
    finish_place(std::move(finish_heap_[parent]), i);
    i = parent;
  }
  finish_place(std::move(item), i);
  return i;
}

std::size_t Engine::finish_sift_down(std::size_t i) {
  FinishItem item = std::move(finish_heap_[i]);
  const std::size_t n = finish_heap_.size();
  for (;;) {
    std::size_t best = 4 * i + 1;
    if (best >= n) break;
    const std::size_t last = std::min(best + 4, n);
    for (std::size_t c = best + 1; c < last; ++c) {
      if (finish_before(finish_heap_[c], finish_heap_[best])) best = c;
    }
    if (!finish_before(finish_heap_[best], item)) break;
    finish_place(std::move(finish_heap_[best]), i);
    i = best;
  }
  finish_place(std::move(item), i);
  return i;
}

void Engine::finish_update(const ActivityPtr& activity, FluidState& fluid,
                           SimTime time) {
  if (fluid.heap_pos < 0) {
    const std::size_t i = finish_heap_.size();
    finish_heap_.push_back(FinishItem{time, seq_++, activity, &fluid});
    fluid.heap_pos = static_cast<std::int32_t>(i);
    finish_sift_up(i);
  } else {
    const auto i = static_cast<std::size_t>(fluid.heap_pos);
    finish_heap_[i].time = time;
    finish_heap_[i].seq = seq_++;
    finish_sift_down(finish_sift_up(i));
  }
}

void Engine::finish_remove(FluidState& fluid) {
  if (fluid.heap_pos < 0) return;
  const auto i = static_cast<std::size_t>(fluid.heap_pos);
  fluid.heap_pos = -1;
  if (i + 1 != finish_heap_.size()) {
    finish_place(std::move(finish_heap_.back()), i);
    finish_heap_.pop_back();
    finish_sift_down(finish_sift_up(i));
  } else {
    finish_heap_.pop_back();
  }
}

void Engine::finish_pop() {
  finish_heap_.front().fluid->heap_pos = -1;
  if (finish_heap_.size() > 1) {
    finish_place(std::move(finish_heap_.back()), 0);
    finish_heap_.pop_back();
    finish_sift_down(0);
  } else {
    finish_heap_.pop_back();
  }
}

void Engine::set_rate(const ActivityPtr& activity, FluidState& fluid,
                      double rate) {
  catch_up(fluid);
  fluid.rate = rate;
  if (rate > 0) {
    fluid.finish_est = now_ + fluid.remaining / rate;
    finish_update(activity, fluid, fluid.finish_est);
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

void Engine::member_place(ShareGroup& group, Member m, std::size_t i) {
  m.flow->fluid.group_pos = static_cast<std::int32_t>(i);
  group.members[i] = m;
}

void Engine::member_sift(ShareGroup& group, std::size_t i) {
  const auto before = [](const Member& a, const Member& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  };
  const Member m = group.members[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(m, group.members[parent])) break;
    member_place(group, group.members[parent], i);
    i = parent;
  }
  const std::size_t n = group.members.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(group.members[child + 1], group.members[child]))
      ++child;
    if (!before(group.members[child], m)) break;
    member_place(group, group.members[child], i);
    i = child;
  }
  member_place(group, m, i);
}

void Engine::group_catch_up(ShareGroup& group) {
  if (now_ > group.last_update)
    group.clock += group.rate * (now_ - group.last_update);
  group.last_update = now_;
}

void Engine::group_requeue(ShareGroup& group) {
  Transfer* head = group.members.empty() ? nullptr : group.members[0].flow;
  if (group.queued != nullptr && group.queued != head)
    finish_remove(group.queued->fluid);
  group.queued = head;
  if (head == nullptr) return;
  FluidState& fluid = head->fluid;
  fluid.finish_est = member_finish(group, group.members[0].key);
  finish_update(var_flows_[static_cast<std::size_t>(fluid.var)], fluid,
                fluid.finish_est);
}

void Engine::group_join(Transfer& flow, GroupId g) {
  ShareGroup& group = groups_[static_cast<std::size_t>(g)];
  group_catch_up(group);
  flow.fluid.group = g;
  group.members.push_back(
      Member{group.clock + flow.fluid.remaining, seq_++, &flow});
  member_sift(group, group.members.size() - 1);
  if (flow.fluid.group_pos == 0) group_requeue(group);
}

void Engine::group_leave(Transfer& flow) {
  ShareGroup& group = groups_[static_cast<std::size_t>(flow.fluid.group)];
  const auto i = static_cast<std::size_t>(flow.fluid.group_pos);
  const Member last = group.members.back();
  group.members.pop_back();
  if (i < group.members.size()) {
    group.members[i] = last;
    member_sift(group, i);
  }
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
    group.members.push_back(Member{flow.fluid.remaining, seq_++, &flow});
    member_sift(group, group.members.size() - 1);
  }
  group_requeue(group);
}

void Engine::group_dissolve(GroupId g) {
  ShareGroup& group = groups_[static_cast<std::size_t>(g)];
  group_catch_up(group);
  for (const Member& m : group.members) {
    FluidState& fluid = m.flow->fluid;
    fluid.remaining = std::max(0.0, m.key - group.clock);
    fluid.rate = group.rate;
    fluid.last_update = now_;
    fluid.group = -1;
    fluid.group_pos = -1;
    fluid.finish_est = now_ + fluid.remaining / fluid.rate;
    finish_update(var_flows_[static_cast<std::size_t>(fluid.var)], fluid,
                  fluid.finish_est);
  }
  group.members.clear();
  group.queued = nullptr;
}

void Engine::reschedule_host(int host) {
  auto& execs = host_execs_[static_cast<std::size_t>(host)];
  if (execs.empty()) return;
  const double rate = platform_.host(host).power *
                      host_power_factor_[static_cast<std::size_t>(host)] /
                      static_cast<double>(execs.size());
  for (const auto& exec : execs) {
    if (exec->fluid.rate != rate) set_rate(exec, exec->fluid, rate);
  }
}

void Engine::resolve_network() {
  if (!net_lmm_.dirty()) return;
  const auto changed = net_lmm_.solve_changed();
  ++stats_.solver_calls;
  const auto& solver = net_lmm_.solve_stats();
  stats_.solver_vars_touched = solver.vars_touched;
  stats_.solver_component_size_max =
      std::max<std::uint64_t>(stats_.solver_component_size_max,
                              solver.max_component_vars);
  stats_.solver_hub_solves = solver.hub_solves;
  stats_.solver_large_fills = solver.large_fills;
  stats_.hub_entries = solver.hub_entries;
  stats_.hub_exits = solver.hub_exits;
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
      set_rate(transfer, transfer->fluid, rate);
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

std::shared_ptr<Exec> Engine::exec_async(int host, double flops,
                                         double efficiency) {
  if (host < 0 || static_cast<std::size_t>(host) >= platform_.host_count())
    throw SimError("exec_async: unknown host id " + std::to_string(host));
  if (efficiency <= 0) throw SimError("exec_async: efficiency must be > 0");
  auto exec = std::make_shared<Exec>();
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
    const plat::Route route = platform_.route(src_host, dst_host);
    CachedRoute cached;
    // Sum per-link latencies ourselves so link degradation factors apply
    // (equals route.latency when every factor is 1.0).
    cached.latency = 0.0;
    cached.resources.reserve(route.links.size());
    for (const auto link : route.links) {
      cached.latency += platform_.link(link).latency *
                        link_latency_factor_[static_cast<std::size_t>(link)];
      cached.resources.push_back(link_res_[static_cast<std::size_t>(link)]);
    }
    it = route_cache_.emplace(key, std::move(cached)).first;
  }
  return it->second;
}

void Engine::set_host_factor(int host, double factor) {
  if (host < 0 || static_cast<std::size_t>(host) >= platform_.host_count())
    throw SimError("set_host_factor: unknown host id " + std::to_string(host));
  if (factor <= 0) throw SimError("set_host_factor: factor must be > 0");
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
  if (bandwidth_factor <= 0)
    throw SimError("set_link_factors: bandwidth factor must be > 0");
  if (latency_factor < 0)
    throw SimError("set_link_factors: latency factor must be >= 0");
  if (link_bandwidth_factor_[static_cast<std::size_t>(link)] ==
          bandwidth_factor &&
      link_latency_factor_[static_cast<std::size_t>(link)] == latency_factor)
    return;
  const ResourceId res = link_res_[static_cast<std::size_t>(link)];
  net_lmm_.set_capacity(res,
                        platform_.link(link).bandwidth * bandwidth_factor);
  link_bandwidth_factor_[static_cast<std::size_t>(link)] = bandwidth_factor;
  link_latency_factor_[static_cast<std::size_t>(link)] = latency_factor;
  if (config_.recorder)
    config_.recorder->fault(now_, obs::FaultEvent::Kind::link, link,
                            bandwidth_factor, latency_factor);
  // Cached route latencies embed the old factor. Only routes crossing the
  // degraded link are stale; keep the rest so sweeps with faults don't pay
  // a full route recomputation.
  std::erase_if(route_cache_, [res](const auto& entry) {
    const auto& resources = entry.second.resources;
    return std::find(resources.begin(), resources.end(), res) !=
           resources.end();
  });
}

double Engine::route_latency(int src_host, int dst_host) {
  return cached_route(src_host, dst_host).latency;
}

std::shared_ptr<Transfer> Engine::transfer_async(int src_host, int dst_host,
                                                 double bytes) {
  auto transfer = std::make_shared<Transfer>();
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
  transfer->link_resources = route.resources;

  if (transfer->latency <= 0) {
    start_flow(*transfer);
  } else {
    heap_.push(HeapItem{now_ + transfer->latency, seq_++,
                        HeapItem::What::latency_done, transfer});
  }
  return transfer;
}

std::shared_ptr<Transfer> Engine::injection_async(int host, double bytes) {
  auto transfer = std::make_shared<Transfer>();
  transfer->src_host = host;
  transfer->dst_host = host;
  transfer->bytes = bytes;
  transfer->amount = bytes;
  transfer->start_time_ = now_;
  ++stats_.activities;
  const plat::LinkId loopback = platform_.host(host).loopback;
  if (loopback != plat::kNone)
    transfer->link_resources.push_back(
        link_res_[static_cast<std::size_t>(loopback)]);
  start_flow(*transfer);
  return transfer;
}

std::shared_ptr<Timer> Engine::timer_async(SimTime duration) {
  if (duration < 0) throw SimError("timer_async: negative duration");
  auto timer = std::make_shared<Timer>();
  timer->fire_at = now_ + duration;
  timer->start_time_ = now_;
  ++stats_.activities;
  if (duration == 0) {
    complete(*timer);
  } else {
    heap_.push(
        HeapItem{timer->fire_at, seq_++, HeapItem::What::timer_fire, timer});
  }
  return timer;
}

GatePtr Engine::make_gate() {
  auto gate = std::make_shared<Gate>();
  gate->engine_ = this;
  gate->start_time_ = now_;
  ++stats_.activities;
  return gate;
}

void Engine::start_flow(Transfer& transfer) {
  if (transfer.done()) return;
  if (transfer.amount <= 0 || transfer.link_resources.empty()) {
    // Nothing to stream (zero payload) or an unconstrained local copy.
    complete(transfer);
    return;
  }
  transfer.fluid.remaining = transfer.amount;
  transfer.fluid.last_update = now_;
  transfer.fluid.var = net_lmm_.add_variable(1.0, transfer.link_resources);
  const auto slot = static_cast<std::size_t>(transfer.fluid.var);
  if (slot >= var_flows_.size()) var_flows_.resize(slot + 1);
  var_flows_[slot] =
      std::static_pointer_cast<Transfer>(transfer.shared_from_this());
  // Joining a hub group happens at once; the group's new rate follows at
  // the next solve, still at this instant.
  const GroupId g = net_lmm_.group_of(transfer.fluid.var);
  if (g >= 0) group_join(transfer, g);
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
  for (const auto waiter : activity.waiters_) ready_.push_back(waiter);
  activity.waiters_.clear();
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

    const SimTime t_fluid =
        finish_heap_.empty() ? kInf : finish_heap_.front().time;
    const SimTime t_heap = heap_.empty() ? kInf : heap_.top().time;
    const SimTime t_next = std::min(t_fluid, t_heap);
    if (t_next == kInf) break;
    now_ = t_next;

    // Complete every fluid due at this instant. Completions can reschedule
    // siblings to earlier finishes (a host freeing up), so keep examining
    // the heap top rather than iterating a snapshot.
    const double time_eps = 1e-9 * (1.0 + std::abs(now_));
    for (;;) {
      if (finish_heap_.empty()) break;
      if (finish_heap_.front().time > now_ + time_eps) break;
      const ActivityPtr activity = std::move(finish_heap_.front().activity);
      finish_pop();
      complete(*activity);
    }

    while (!heap_.empty() && heap_.top().time <= now_ + time_eps) {
      HeapItem item = heap_.top();
      heap_.pop();
      ++stats_.heap_events;
      if (item.activity->done()) continue;
      if (item.what == HeapItem::What::timer_fire) {
        complete(*item.activity);
      } else {
        start_flow(static_cast<Transfer&>(*item.activity));
      }
    }

    drain_ready();
  }

  if (first_error_) {
    const auto error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
  if (live_processes_ > 0 && config_.deadlock_is_error) {
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

Co<void> wait_all(Engine& engine, std::vector<ActivityPtr> activities) {
  for (const auto& activity : activities) co_await engine.wait(activity);
}

}  // namespace tir::sim
