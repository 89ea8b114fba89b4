// Simulated activities: the things a process can wait for.
//
//   Exec     — a computation of N flops on a host CPU (fluid, contended).
//   Transfer — a message of N bytes across a route: a latency phase
//              followed by a fluid flow phase over the route's links.
//   Timer    — pure simulated delay.
//   Gate     — completes when some other process (or the kernel) opens it;
//              the building block for message matching in mpisim.
//
// Activities are reference-counted (Ref<T>, ref.hpp): the engine keeps
// them alive while they run, and any process may hold a reference to await
// them later. They come from the per-thread block cache, and the count is
// a plain integer.
//
// Thread contract: an engine's activities, the MPI requests built on them
// and its coroutine frames are touched only by the thread running that
// engine. Every replay runs a whole scenario on one thread (sweep, Monte
// Carlo and service workers included), so nothing here is shared.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "simkern/maxmin.hpp"
#include "simkern/ref.hpp"

namespace tir::sim {

using SimTime = double;

class Engine;

class Activity : public RefCounted {
 public:
  enum class Kind { exec, transfer, timer, gate };

  virtual ~Activity() = default;

  Kind kind() const { return kind_; }
  bool done() const { return done_; }
  /// Simulated time at which the activity was created.
  SimTime start_time() const { return start_time_; }
  /// Simulated time at which the activity completed (-1 while running).
  SimTime finish_time() const { return finish_time_; }

 protected:
  explicit Activity(Kind kind) : kind_(kind) {}

 private:
  friend class Engine;
  /// Queues `waiter` to resume on completion. Most activities have exactly
  /// one waiter, so the first lives inline; waiters resume in call order.
  void add_waiter(std::coroutine_handle<> waiter) {
    if (!first_waiter_)
      first_waiter_ = waiter;
    else
      more_waiters_.push_back(waiter);
  }

  Kind kind_;
  bool done_ = false;
  SimTime start_time_ = 0.0;
  SimTime finish_time_ = -1.0;
  std::coroutine_handle<> first_waiter_;
  std::vector<std::coroutine_handle<>> more_waiters_;
};

using ActivityPtr = Ref<Activity>;

/// State shared by the fluid (rate-controlled) phase of Exec and Transfer.
/// Progress is tracked lazily: `remaining` is exact as of `last_update`,
/// and the engine keeps the predicted finish in its indexed finish queue,
/// re-keyed in place when the rate changes and located through `heap_pos`:
/// one entry per running flow, and one per host with running execs, held
/// by the exec with the smallest (finish_est, seq), whose `seq` keys it. A
/// flow in a share group instead progresses on its group's virtual clock
/// (see engine.hpp): `remaining`, `rate` and `last_update` are stale while
/// `group` is set, and only the group head holds a finish-queue entry.
struct FluidState {
  VarId var = -1;              ///< network-solver variable (flows only)
  std::int32_t heap_pos = -1;  ///< slot in the finish queue (-1: not queued)
  double remaining = 0.0;    ///< work left as of last_update
  double rate = 0.0;         ///< current rate
  SimTime last_update = 0.0;
  SimTime finish_est = 0.0;  ///< predicted completion (inf when starved)
  std::int32_t group = -1;      ///< share group (flows only; -1: none)
  std::int32_t group_pos = -1;  ///< slot in the group's member heap
  std::size_t index = 0;     ///< Execs: slot in the engine's per-host list.
                             ///< Transfers are tracked by `var` instead
                             ///< (the engine's VarId-indexed flow table).
  std::uint64_t seq = 0;     ///< Execs: seq taken at the last re-rate; it
                             ///< breaks finish_est ties within the host
};

class Exec final : public Activity {
 public:
  Exec() : Activity(Kind::exec) {}
  int host = -1;
  double flops = 0.0;  ///< requested volume (before efficiency scaling)
  FluidState fluid;
};

class Transfer final : public Activity {
 public:
  Transfer() : Activity(Kind::transfer) {}
  int src_host = -1;
  int dst_host = -1;
  double bytes = 0.0;      ///< payload size
  double amount = 0.0;     ///< model amount (bytes / bandwidth_factor)
  double latency = 0.0;    ///< effective route latency
  /// The engine's cached route (its links' network resources); it stays
  /// valid for the engine's lifetime.
  const std::vector<ResourceId>* route = nullptr;
  FluidState fluid;
};

class Timer final : public Activity {
 public:
  Timer() : Activity(Kind::timer) {}
  SimTime fire_at = 0.0;
};

class Gate final : public Activity {
 public:
  Gate() : Activity(Kind::gate) {}
  /// Completes the gate at the current simulated time; resumes waiters.
  /// Safe to call only while the owning engine runs. Idempotent.
  void open();

 private:
  friend class Engine;
  Engine* engine_ = nullptr;
};

using GatePtr = Ref<Gate>;

}  // namespace tir::sim
