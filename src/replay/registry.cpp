#include "replay/registry.hpp"

#include <cstdint>

#include "support/error.hpp"

namespace tir::replay {

using trace::Action;
using trace::ActionType;

mpi::Request ReplayCtx::pop_request() {
  if (pending_.empty())
    throw SimError("replay: process " + std::to_string(pid()) +
                   " executes `wait` with no pending request");
  mpi::Request request = std::move(pending_.front());
  pending_.pop_front();
  return request;
}

namespace {

std::uint64_t as_bytes(double volume) {
  return volume < 0 ? 0 : static_cast<std::uint64_t>(volume);
}

sim::Co<void> do_compute(ReplayCtx& ctx, const Action& a) {
  co_await ctx.rank().compute(a.volume, ctx.compute_efficiency());
}

sim::Co<void> do_send(ReplayCtx& ctx, const Action& a) {
  co_await ctx.rank().send(a.partner, as_bytes(a.volume), 0);
}

sim::Co<void> do_isend(ReplayCtx& ctx, const Action& a) {
  ctx.push_request(ctx.rank().isend(a.partner, as_bytes(a.volume), 0));
  co_return;
}

sim::Co<void> do_recv(ReplayCtx& ctx, const Action& a) {
  co_await ctx.rank().recv(a.partner, as_bytes(a.volume), 0);
}

sim::Co<void> do_irecv(ReplayCtx& ctx, const Action& a) {
  ctx.push_request(ctx.rank().irecv(a.partner, as_bytes(a.volume), 0));
  co_return;
}

sim::Co<void> do_wait(ReplayCtx& ctx, const Action&) {
  co_await ctx.rank().wait(ctx.pop_request());
}

sim::Co<void> do_barrier(ReplayCtx& ctx, const Action&) {
  co_await ctx.rank().barrier();
}

sim::Co<void> do_bcast(ReplayCtx& ctx, const Action& a) {
  // Collectives are rooted on process 0 (paper §3).
  co_await ctx.rank().bcast(as_bytes(a.volume), 0);
}

sim::Co<void> do_reduce(ReplayCtx& ctx, const Action& a) {
  co_await ctx.rank().reduce(as_bytes(a.volume), a.volume2, 0);
}

sim::Co<void> do_allreduce(ReplayCtx& ctx, const Action& a) {
  co_await ctx.rank().allreduce(as_bytes(a.volume), a.volume2);
}

sim::Co<void> do_gather(ReplayCtx& ctx, const Action& a) {
  co_await ctx.rank().gather(as_bytes(a.volume), 0);
}

sim::Co<void> do_allgather(ReplayCtx& ctx, const Action& a) {
  co_await ctx.rank().allgather(as_bytes(a.volume));
}

sim::Co<void> do_alltoall(ReplayCtx& ctx, const Action& a) {
  co_await ctx.rank().alltoall(as_bytes(a.volume));
}

sim::Co<void> do_waitall(ReplayCtx& ctx, const Action&) {
  while (ctx.pending_requests() > 0)
    co_await ctx.rank().wait(ctx.pop_request());
}

sim::Co<void> do_comm_size(ReplayCtx& ctx, const Action& a) {
  if (a.comm_size != ctx.rank().size())
    throw SimError("replay: trace declares comm_size " +
                   std::to_string(a.comm_size) + " but the deployment has " +
                   std::to_string(ctx.rank().size()) + " processes");
  co_return;
}

}  // namespace

ActionRegistry ActionRegistry::with_defaults() {
  ActionRegistry registry;
  registry.register_action("compute", do_compute);
  registry.register_action("send", do_send);
  registry.register_action("Isend", do_isend);
  registry.register_action("recv", do_recv);
  registry.register_action("Irecv", do_irecv);
  registry.register_action("wait", do_wait);
  registry.register_action("barrier", do_barrier);
  registry.register_action("bcast", do_bcast);
  registry.register_action("reduce", do_reduce);
  registry.register_action("allReduce", do_allreduce);
  registry.register_action("comm_size", do_comm_size);
  registry.register_action("gather", do_gather);
  registry.register_action("allGather", do_allgather);
  registry.register_action("allToAll", do_alltoall);
  registry.register_action("waitAll", do_waitall);
  return registry;
}

void ActionRegistry::register_action(const std::string& keyword,
                                     ActionHandler handler) {
  // Validate the keyword against Table 1 so typos fail loudly.
  handlers_[static_cast<std::size_t>(
      trace::action_type_from_keyword(keyword))] = std::move(handler);
}

const ActionHandler& ActionRegistry::handler(trace::ActionType type) const {
  const auto index = static_cast<std::size_t>(type);
  if (index >= handlers_.size() || !handlers_[index])
    throw SimError("replay: no handler registered for action '" +
                   std::string(trace::action_keyword(type)) + "'");
  return handlers_[index];
}

}  // namespace tir::replay
