#include "acquisition/instrumented.hpp"

#include <cmath>

namespace tir::acq {

namespace {
/// CPU seconds consumed per TAU record written (at nominal host speed).
constexpr double kPerRecordOverhead = 1.5e-6;
}  // namespace

InstrumentedMpi::InstrumentedMpi(mpi::Rank& rank, tau::TauTraceWriter& writer,
                                 InstrumentOptions options)
    : rank_(rank),
      writer_(writer),
      options_(options),
      host_power_(
          rank.engine().platform().host(rank.host()).power),
      rng_(options.seed + static_cast<unsigned>(rank.rank()) * 7919u) {
  ev_.fp_ops = writer_.define_trigger("TAUEVENT", "PAPI_FP_OPS");
  ev_.msg_size = writer_.define_trigger("TAUEVENT", "Message size sent");
  ev_.send = writer_.define_state("MPI", "MPI_Send() ");
  ev_.recv = writer_.define_state("MPI", "MPI_Recv() ");
  ev_.isend = writer_.define_state("MPI", "MPI_Isend() ");
  ev_.irecv = writer_.define_state("MPI", "MPI_Irecv() ");
  ev_.wait = writer_.define_state("MPI", "MPI_Wait() ");
  ev_.barrier = writer_.define_state("MPI", "MPI_Barrier() ");
  ev_.bcast = writer_.define_state("MPI", "MPI_Bcast() ");
  ev_.reduce = writer_.define_state("MPI", "MPI_Reduce() ");
  ev_.allreduce = writer_.define_state("MPI", "MPI_Allreduce() ");
  ev_.gather = writer_.define_state("MPI", "MPI_Gather() ");
  ev_.allgather = writer_.define_state("MPI", "MPI_Allgather() ");
  ev_.alltoall = writer_.define_state("MPI", "MPI_Alltoall() ");
  ev_.app_exit = writer_.define_state("TAU", "APPLICATION_EXIT");
  // Selective instrumentation of the application's compute routines (the
  // paper instruments SSOR with TAU_ENABLE_INSTRUMENTATION): each block is
  // bracketed like any TAU-traced function, with its own counter triggers.
  ev_.app_block = writer_.define_state("TAU_USER", "ssor [application]");
}

std::uint64_t InstrumentedMpi::now_us() const {
  return static_cast<std::uint64_t>(
      std::llround(rank_.engine().now() * 1e6));
}

std::int64_t InstrumentedMpi::counter_read() {
  return static_cast<std::int64_t>(std::llround(fp_ops_));
}

void InstrumentedMpi::count_flops(double flops) {
  // Jitter perturbs each increment (not each read) so the counter stays
  // monotone and every extracted burst carries a bounded relative error —
  // the §6.2 "hardware counter accuracy issues".
  if (options_.counter_jitter > 0)
    flops *= 1.0 + options_.counter_jitter * rng_.uniform(-1.0, 1.0);
  fp_ops_ += flops;
}

sim::Co<void> InstrumentedMpi::overhead(int records) {
  if (records <= 0) co_return;
  // Instrumentation burns CPU: under folding it contends for the core like
  // any other computation.
  co_await rank_.compute(records * kPerRecordOverhead * host_power_, 1.0);
}

sim::Co<void> InstrumentedMpi::compute(double flops, double efficiency) {
  co_await overhead(4);
  writer_.enter(ev_.app_block, now_us());
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  count_flops(flops);
  co_await rank_.compute(flops, efficiency);
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.leave(ev_.app_block, now_us());
}

sim::Co<void> InstrumentedMpi::send(int dst, std::uint64_t bytes, int tag) {
  co_await overhead(6);
  writer_.enter(ev_.send, now_us());
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.trigger(ev_.msg_size, now_us(), static_cast<std::int64_t>(bytes));
  writer_.send_message(now_us(), dst, bytes, tag);
  co_await rank_.send(dst, bytes, tag);
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.leave(ev_.send, now_us());
}

sim::Co<void> InstrumentedMpi::recv(int src, std::uint64_t bytes, int tag) {
  co_await overhead(6);
  writer_.enter(ev_.recv, now_us());
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  auto request = rank_.irecv(src, bytes, tag);
  co_await rank_.wait(request);
  writer_.recv_message(now_us(), request->matched_src, request->bytes, tag);
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.leave(ev_.recv, now_us());
}

mpi::Request InstrumentedMpi::isend(int dst, std::uint64_t bytes, int tag) {
  writer_.enter(ev_.isend, now_us());
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.trigger(ev_.msg_size, now_us(), static_cast<std::int64_t>(bytes));
  writer_.send_message(now_us(), dst, bytes, tag);
  auto request = rank_.isend(dst, bytes, tag);
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.leave(ev_.isend, now_us());
  return request;
}

mpi::Request InstrumentedMpi::irecv(int src, std::uint64_t bytes, int tag) {
  writer_.enter(ev_.irecv, now_us());
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.trigger(ev_.msg_size, now_us(), static_cast<std::int64_t>(bytes));
  auto request = rank_.irecv(src, bytes, tag);
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.leave(ev_.irecv, now_us());
  return request;
}

sim::Co<void> InstrumentedMpi::wait(mpi::Request request) {
  co_await overhead(5);
  writer_.enter(ev_.wait, now_us());
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  const bool is_recv =
      request &&
      request->kind == mpi::detail::RequestState::Kind::recv;
  co_await rank_.wait(request);
  if (is_recv) {
    // The paper's §4.3: "the mandatory information [...] are given by the
    // RecvMessage event which generally occurs within the MPI_Wait".
    writer_.recv_message(now_us(), request->matched_src, request->bytes,
                         request->tag);
  }
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.leave(ev_.wait, now_us());
}

sim::Co<void> InstrumentedMpi::waitall(std::vector<mpi::Request> requests) {
  for (auto& request : requests) co_await wait(std::move(request));
}

sim::Co<void> InstrumentedMpi::barrier() {
  co_await overhead(4);
  writer_.enter(ev_.barrier, now_us());
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  co_await rank_.barrier();
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.leave(ev_.barrier, now_us());
}

sim::Co<void> InstrumentedMpi::bcast(std::uint64_t bytes, int root) {
  co_await overhead(5);
  writer_.enter(ev_.bcast, now_us());
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.trigger(ev_.msg_size, now_us(), static_cast<std::int64_t>(bytes));
  co_await rank_.bcast(bytes, root);
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.leave(ev_.bcast, now_us());
}

sim::Co<void> InstrumentedMpi::reduce(std::uint64_t vcomm, double vcomp,
                                      int root) {
  co_await overhead(5);
  writer_.enter(ev_.reduce, now_us());
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.trigger(ev_.msg_size, now_us(), static_cast<std::int64_t>(vcomm));
  // The combine flops execute inside the call: the counter delta between
  // the entry and exit triggers is what tau2ti extracts as vcomp.
  count_flops(vcomp);
  co_await rank_.reduce(vcomm, vcomp, root);
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.leave(ev_.reduce, now_us());
}

sim::Co<void> InstrumentedMpi::allreduce(std::uint64_t vcomm, double vcomp) {
  co_await overhead(5);
  writer_.enter(ev_.allreduce, now_us());
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.trigger(ev_.msg_size, now_us(), static_cast<std::int64_t>(vcomm));
  count_flops(vcomp);
  co_await rank_.allreduce(vcomm, vcomp);
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.leave(ev_.allreduce, now_us());
}

namespace {
// All three data-movement collectives trace identically: bracketed call
// with the per-process contribution logged as the size trigger.
}  // namespace

sim::Co<void> InstrumentedMpi::gather(std::uint64_t bytes, int root) {
  co_await overhead(5);
  writer_.enter(ev_.gather, now_us());
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.trigger(ev_.msg_size, now_us(), static_cast<std::int64_t>(bytes));
  co_await rank_.gather(bytes, root);
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.leave(ev_.gather, now_us());
}

sim::Co<void> InstrumentedMpi::allgather(std::uint64_t bytes) {
  co_await overhead(5);
  writer_.enter(ev_.allgather, now_us());
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.trigger(ev_.msg_size, now_us(), static_cast<std::int64_t>(bytes));
  co_await rank_.allgather(bytes);
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.leave(ev_.allgather, now_us());
}

sim::Co<void> InstrumentedMpi::alltoall(std::uint64_t bytes) {
  co_await overhead(5);
  writer_.enter(ev_.alltoall, now_us());
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.trigger(ev_.msg_size, now_us(), static_cast<std::int64_t>(bytes));
  co_await rank_.alltoall(bytes);
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.leave(ev_.alltoall, now_us());
}

void InstrumentedMpi::finalize() {
  writer_.enter(ev_.app_exit, now_us());
  writer_.trigger(ev_.fp_ops, now_us(), counter_read());
  writer_.leave(ev_.app_exit, now_us());
}

}  // namespace tir::acq
