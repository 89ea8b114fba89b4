// TAU-instrumented MPI decorator (paper §4.1 / §4.2).
//
// Wraps a simulated Rank with the behaviour of a TAU-instrumented MPI
// application: every MPI call is bracketed by EnterState / LeaveState
// records with PAPI_FP_OPS counter triggers (the Fig. 3 sequence), message
// calls log SendMessage / RecvMessage records, and each record costs a
// little CPU time — the "tracing overhead" slice of Figure 7. Computation
// advances the simulated hardware counter; an optional relative jitter
// models the "hardware counter accuracy issues" that §6.2 blames for the
// sub-1% replay variations.
#pragma once

#include <cstdint>
#include <memory>

#include "mpisim/mpi.hpp"
#include "support/rng.hpp"
#include "tau/tau_writer.hpp"

namespace tir::acq {

struct InstrumentOptions {
  /// Relative jitter applied to each counter read (0 = exact).
  double counter_jitter = 0.0;
  unsigned seed = 42;
};

class InstrumentedMpi final : public mpi::MpiApi {
 public:
  InstrumentedMpi(mpi::Rank& rank, tau::TauTraceWriter& writer,
                  InstrumentOptions options = {});

  int rank() const override { return rank_.rank(); }
  int size() const override { return rank_.size(); }

  sim::Co<void> compute(double flops, double efficiency) override;
  sim::Co<void> send(int dst, std::uint64_t bytes, int tag) override;
  sim::Co<void> recv(int src, std::uint64_t bytes, int tag) override;
  mpi::Request isend(int dst, std::uint64_t bytes, int tag) override;
  mpi::Request irecv(int src, std::uint64_t bytes, int tag) override;
  sim::Co<void> wait(mpi::Request request) override;
  sim::Co<void> waitall(std::vector<mpi::Request> requests) override;
  sim::Co<void> barrier() override;
  sim::Co<void> bcast(std::uint64_t bytes, int root) override;
  sim::Co<void> reduce(std::uint64_t vcomm, double vcomp, int root) override;
  sim::Co<void> allreduce(std::uint64_t vcomm, double vcomp) override;
  sim::Co<void> gather(std::uint64_t bytes, int root) override;
  sim::Co<void> allgather(std::uint64_t bytes) override;
  sim::Co<void> alltoall(std::uint64_t bytes) override;

  /// Writes the end-of-application marker (flushes the trailing CPU burst
  /// into the trace). Call after the application body returns.
  void finalize();

 private:
  struct Events {
    int fp_ops, msg_size;
    int send, recv, isend, irecv, wait, barrier, bcast, reduce, allreduce;
    int gather, allgather, alltoall;
    int app_exit;
    int app_block;
  };

  std::uint64_t now_us() const;
  std::int64_t counter_read();
  void count_flops(double flops);
  sim::Co<void> overhead(int records);

  mpi::Rank& rank_;
  tau::TauTraceWriter& writer_;
  InstrumentOptions options_;
  Events ev_;
  double fp_ops_ = 0.0;  ///< the simulated PAPI_FP_OPS counter
  double host_power_;
  Rng rng_;
};

}  // namespace tir::acq
