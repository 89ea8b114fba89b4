// Simulated MPI runtime on top of the simulation kernel.
//
// World owns one Rank per MPI process; each rank runs as a kernel actor.
// Point-to-point semantics follow mainstream MPI implementations on TCP
// clusters (the environment the paper targets):
//
//   - Eager protocol (message <= eager_threshold): the payload is injected
//     immediately; the receiver's Recv completes when it both matched the
//     message and the data finished streaming. The sender completes after
//     a local memory-speed buffer copy (an MPI_Send under the eager limit
//     returns once the payload is handed to the runtime — it does NOT wait
//     for delivery, which is what lets far-apart acquisition sites pipeline
//     the wavefront in Scattering mode).
//   - Rendezvous protocol (larger messages): the sender blocks until the
//     receiver has matched; a control-message delay (one route latency)
//     precedes the data transfer. The data movement is driven by the
//     receiver's wait, which is where MPI progress happens in practice.
//
// Matching is FIFO per MPI rules, with MPI_ANY_SOURCE / MPI_ANY_TAG
// wildcards. Collectives are implemented as trees of point-to-point
// messages (binomial by default), rooted at rank 0 as the paper specifies.
//
// Like the engine's activities (activity.hpp), a World's ranks, requests
// and operation frames are touched only by the thread running its engine:
// a Request's count is a plain integer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "simkern/engine.hpp"
#include "support/fifo.hpp"

namespace tir::obs {
class Recorder;
}

namespace tir::mpi {

constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;

/// Reserved tag namespace for collectives (p2p user tags must be smaller).
constexpr int kCollectiveTagBase = 1 << 24;

enum class CollectiveAlgo {
  binomial,  ///< binomial trees (default; what MPICH-era OpenMPI used)
  flat,      ///< root exchanges with every rank directly
};

struct Config {
  std::uint64_t eager_threshold = 64 * 1024;
  CollectiveAlgo collectives = CollectiveAlgo::binomial;
};

class World;
class Rank;

namespace detail {
struct RequestState;
}

/// Handle for a pending non-blocking operation. Copyable; completion is
/// observed through Rank::wait / Rank::waitall.
using Request = sim::Ref<detail::RequestState>;

/// The MPI surface exposed to applications. Rank implements it directly;
/// the acquisition layer wraps it with a TAU-instrumented decorator, so an
/// application runs identically with or without instrumentation.
class MpiApi {
 public:
  virtual ~MpiApi() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Computes `flops` on this rank's host; `efficiency` scales the nominal
  /// flop rate (cache effects, phase behaviour).
  virtual sim::Co<void> compute(double flops, double efficiency) = 0;

  virtual sim::Co<void> send(int dst, std::uint64_t bytes, int tag) = 0;
  virtual sim::Co<void> recv(int src, std::uint64_t bytes, int tag) = 0;
  virtual Request isend(int dst, std::uint64_t bytes, int tag) = 0;
  virtual Request irecv(int src, std::uint64_t bytes, int tag) = 0;
  virtual sim::Co<void> wait(Request request) = 0;
  virtual sim::Co<void> waitall(std::vector<Request> requests) = 0;

  virtual sim::Co<void> barrier() = 0;
  virtual sim::Co<void> bcast(std::uint64_t bytes, int root) = 0;
  virtual sim::Co<void> reduce(std::uint64_t vcomm, double vcomp,
                               int root) = 0;
  virtual sim::Co<void> allreduce(std::uint64_t vcomm, double vcomp) = 0;
  /// Each rank contributes `bytes`; the root ends up with size() * bytes.
  virtual sim::Co<void> gather(std::uint64_t bytes, int root) = 0;
  /// Each rank contributes `bytes` and receives everyone else's block.
  virtual sim::Co<void> allgather(std::uint64_t bytes) = 0;
  /// Each rank sends `bytes` to every other rank (personalised exchange).
  virtual sim::Co<void> alltoall(std::uint64_t bytes) = 0;

  // Convenience wrappers with the customary defaults.
  sim::Co<void> compute(double flops) { return compute(flops, 1.0); }
  sim::Co<void> send(int dst, std::uint64_t bytes) {
    return send(dst, bytes, 0);
  }
  sim::Co<void> recv(int src, std::uint64_t bytes) {
    return recv(src, bytes, 0);
  }
};

/// One simulated MPI process.
class Rank final : public MpiApi {
 public:
  int rank() const override { return rank_; }
  int size() const override;
  int host() const { return host_; }
  sim::Engine& engine() const;

  sim::Co<void> compute(double flops, double efficiency) override;
  using MpiApi::compute;
  using MpiApi::recv;
  using MpiApi::send;

  sim::Co<void> send(int dst, std::uint64_t bytes, int tag) override;
  sim::Co<void> recv(int src, std::uint64_t bytes, int tag) override;
  Request isend(int dst, std::uint64_t bytes, int tag) override;
  Request irecv(int src, std::uint64_t bytes, int tag) override;
  sim::Co<void> wait(Request request) override;
  sim::Co<void> waitall(std::vector<Request> requests) override;

  sim::Co<void> barrier() override;
  sim::Co<void> bcast(std::uint64_t bytes, int root) override;
  sim::Co<void> reduce(std::uint64_t vcomm, double vcomp, int root) override;
  sim::Co<void> allreduce(std::uint64_t vcomm, double vcomp) override;
  sim::Co<void> gather(std::uint64_t bytes, int root) override;
  sim::Co<void> allgather(std::uint64_t bytes) override;
  sim::Co<void> alltoall(std::uint64_t bytes) override;

  /// One-line description of what this rank is doing right now — the MPI
  /// call in progress, the request being awaited, and the matching-queue
  /// contents. The engine's deadlock diagnostics call this for every
  /// blocked rank (see World::launch_rank).
  std::string describe_state() const;

 private:
  friend class World;

  /// RAII marker for an MPI call in progress. Only the outermost call is
  /// kept: a barrier blocked inside its tree reports "barrier", not the
  /// internal recv it is built from. The same depth gate drives span
  /// emission, so recorded timelines hold disjoint outermost-op spans.
  /// Defined out-of-line (rank.cpp): emission needs the engine clock.
  struct OpScope {
    OpScope(Rank& r, const char* label, obs::SpanKind kind, int peer = -1,
            double volume = 0.0);
    ~OpScope();
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;
    Rank& rank;
  };

  World* world_ = nullptr;
  int rank_ = -1;
  int host_ = -1;
  obs::Recorder* recorder_ = nullptr;  ///< the engine's (may be null)

  // Matching state.
  struct InMsg {
    int src;
    int tag;
    std::uint64_t bytes;
    sim::ActivityPtr transfer;  ///< eager payload (null for rendezvous)
    bool rendezvous = false;
    sim::GatePtr sender_gate;   ///< opened when a rendezvous completes
    double sent_at = 0.0;       ///< simulated time the send was issued
  };
  Fifo<InMsg> unexpected_;
  Fifo<Request> posted_;

  // Diagnostics state (see OpScope / describe_state). Rendering is lazy:
  // the hot path stores a label pointer and a request handle, and only a
  // deadlock report turns them into text — waits happen millions of times
  // per replay, deadlocks once.
  int op_depth_ = 0;
  const char* op_label_ = nullptr;  ///< outermost MPI call in progress
  enum class OpPhase { none, request, eager_payload, rendezvous_payload };
  OpPhase op_phase_ = OpPhase::none;  ///< innermost await (set by wait())
  Request op_request_;                ///< request behind the innermost await

  void deliver(InMsg message);
  void fill_match(detail::RequestState& recv_state, const InMsg& message);
  int coll_tag_ = 0;  ///< round-robin tag for collective operations
  int next_coll_tag();
};

/// An MPI job: a set of ranks mapped onto platform hosts.
class World {
 public:
  /// `rank_hosts[i]` is the platform host running rank i (folding =
  /// repeating a host id).
  World(sim::Engine& engine, std::vector<int> rank_hosts, Config config = {});
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return static_cast<int>(ranks_.size()); }
  sim::Engine& engine() const { return engine_; }
  const Config& config() const { return config_; }
  Rank& rank(int r);

  /// Spawns one actor per rank running `body`. Call engine.run() afterwards.
  void launch(std::function<sim::Co<void>(Rank&)> body);

  /// Spawns an actor for a single rank (used when bodies differ per rank).
  void launch_rank(int r, std::function<sim::Co<void>(Rank&)> body);

  /// Throws SimError if any rank still has unmatched messages or pending
  /// receives (call after engine.run() in tests).
  void check_quiescent() const;

 private:
  sim::Engine& engine_;
  Config config_;
  std::vector<std::unique_ptr<Rank>> ranks_;
};

namespace detail {

/// Reference-counted through Request, allocated from the block cache.
struct RequestState final : sim::RefCounted {
  enum class Kind { send_eager, send_rendezvous, recv };
  Kind kind = Kind::recv;

  // Common.
  std::uint64_t bytes = 0;
  int tag = 0;
  // Destination rank for sends (diagnostics); -1 for recv requests.
  int peer = -1;

  // send_eager / matched-eager recv: the payload transfer.
  sim::ActivityPtr transfer;
  // send_eager only: the local buffer copy the sender completes on.
  sim::ActivityPtr sender_copy;

  // recv: opened when matched; send_rendezvous: opened at completion.
  sim::GatePtr gate;

  // recv matching constraints.
  int src = kAnySource;
  // Actual sender rank, filled at match time (recv requests only) — the
  // instrumentation layer logs it in the TAU RecvMessage record.
  int matched_src = -1;
  // Simulated time the matched send was issued (recv requests only): the
  // source endpoint of the observability edge emitted at recv completion.
  double sent_at = 0.0;

  // Filled at match time for a rendezvous recv; the receiver's wait()
  // drives the handshake and payload movement.
  bool rendezvous = false;
  int peer_host = -1;
  int my_host = -1;
  double control_latency = 0.0;
  sim::GatePtr peer_gate;

  bool completed = false;  ///< wait() already ran to completion
};

}  // namespace detail

}  // namespace tir::mpi
