// ReplayService: the persistent replay-as-a-service core behind tir-serve.
//
// One service owns the two caches (TraceCache keyed by file identity,
// ResultMemo keyed by trace content and knobs) and a persistent pool of
// replay workers. submit() does everything but the replay on the caller's
// thread:
//
//   submit() -> admission -> build (build lock) -> { bad request -> respond
//                                                  { memo hit    -> respond
//                                                  { in flight   -> join it
//                                                  { miss -> worker replays
//                                                      -> memoise -> respond
//
// The build lock guards the InputResolver, which is unsynchronised, so
// client threads build one at a time; none of them ever replays, so a memo
// hit is answered inside submit() instead of waiting behind a replay in
// flight. Callbacks run on the caller's thread for hits, bad requests and
// shed requests, and on a worker for replays, so responses leave in
// completion order. Admission control is load-shedding, not blocking:
// while queue_limit requests are accepted and unanswered, submit() answers
// `overloaded` and returns false — a saturated daemon stays responsive
// instead of growing an unbounded backlog. A request identical to one
// already replaying joins that replay; repeats across the daemon's
// lifetime hit the memo and return the stored answer bit-for-bit (the
// differential tests memcmp the doubles against cold runs).
//
// Request parameters are exactly the sweep-list vocabulary (see
// serve/scenario_build.hpp) plus `replica=R` to pick one Monte-Carlo
// replica of a perturbed row. Per-request wall-clock telemetry (queue wait,
// build, decode, solve) aggregates into obs::Histogram metrics.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/memo.hpp"
#include "serve/scenario_build.hpp"
#include "serve/trace_cache.hpp"

namespace tir::serve {

struct ServiceOptions {
  int workers = 0;                ///< replay worker threads; 0 = hardware
  /// Admission bound on requests accepted and not yet answered, whether
  /// being built or waiting on a replay; beyond it, shed.
  std::size_t queue_limit = 256;
  TraceCacheOptions trace_cache;
  MemoOptions memo;
  std::string base_dir = ".";     ///< relative request paths resolve here
};

/// One protocol request: an id echoed in the response plus sweep-list
/// key=value parameters (and optionally replica=).
struct Request {
  std::string id;
  std::map<std::string, std::string> params;
};

struct Response {
  enum class Status {
    ok,          ///< replay finished; sim_time is the makespan
    deadlock,    ///< replay quiesced with blocked ranks
    failed,      ///< replay error (corrupt trace, ...)
    badrequest,  ///< parameters did not build a scenario
    overloaded,  ///< shed at admission; nothing ran
  };

  std::string id;
  Status status = Status::failed;
  std::string name;               ///< scenario name (baked replica names)
  std::string error;
  double sim_time = 0.0;
  double coverage = 0.0;
  std::uint64_t actions_replayed = 0;
  int processes = 0;
  std::vector<std::string> diagnostics;

  std::string trace_digest;       ///< hex; empty when never resolved
  bool trace_hit = false;
  bool memo_hit = false;
  double queue_seconds = 0.0;
  double decode_seconds = 0.0;
  double solve_seconds = 0.0;     ///< replay wall time (0 on memo hit)
};

std::string_view to_string(Response::Status status);

/// Aggregate counters + latency distributions, snapshot under the lock.
struct ServiceStats {
  std::uint64_t received = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;          ///< refused at admission
  std::uint64_t badrequests = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t replays = 0;       ///< scenarios actually simulated
  std::uint64_t batch_dedups = 0;  ///< requests that joined a replay in flight
  /// Always 0: requests are no longer batched. Kept because perfbench
  /// reads it for serve.batches_per_round; drop both together.
  std::uint64_t batches = 0;
  std::size_t max_queue_depth = 0; ///< peak accepted-and-unanswered requests
  obs::Histogram queue_wait;
  obs::Histogram build;            ///< submit(): admission -> memo decision
  obs::Histogram decode;
  obs::Histogram solve;
  obs::Histogram total;            ///< submit -> response
  TraceCacheStats trace_cache;
  MemoStats memo;
};

class ReplayService {
 public:
  using Callback = std::function<void(Response)>;

  explicit ReplayService(ServiceOptions options = {});
  /// Answers every accepted request, then stops the workers.
  ~ReplayService();

  ReplayService(const ReplayService&) = delete;
  ReplayService& operator=(const ReplayService&) = delete;

  /// Builds one request on the calling thread. `done` runs exactly once
  /// with the response: before submit() returns for a memo hit, a bad
  /// request or a shed one, and on a worker thread for a request answered
  /// by a replay. Responses therefore leave in completion order, not
  /// submission order. Every ServiceStats counter is updated before `done`
  /// runs, and no service lock is held while it runs; `done` must not
  /// throw. Returns false when the request was shed because queue_limit
  /// requests are already accepted and unanswered; `done` then got an
  /// `overloaded` response.
  bool submit(Request request, Callback done);

  /// Synchronous convenience: submit + wait for the response.
  Response run(Request request);

  /// Blocks until every accepted request has been answered and its
  /// callback has returned.
  void drain();

  ServiceStats stats() const;

 private:
  /// One accepted request on its way to an answer.
  struct Pending {
    Callback done;
    std::chrono::steady_clock::time_point enqueued;
    double build_seconds = 0.0;  ///< admission -> memo decision
    Response response;
  };

  /// One distinct miss: a replay whose answer every waiter shares.
  struct Flight {
    replay::ScenarioSpec spec;
    std::string memo_key;          ///< empty: never memoised
    std::vector<Pending> waiters;  ///< the first one queued it
  };

  /// Builds `params` into `spec` and the response's name, trace fields and
  /// queue wait; returns the memo key, empty when the report must not be
  /// memoised. Throws on a bad request. Takes build_mu_ for the resolver.
  std::string build(std::map<std::string, std::string> params,
                    Pending& pending, replay::ScenarioSpec& spec);
  void worker_loop();
  void run_flight(Flight& flight);
  /// Records `answered` in stats_, runs their callbacks outside the lock,
  /// then releases their admission slots. Called without mu_ held.
  void respond(std::span<Pending> answered);
  void stop_workers();

  ServiceOptions options_;
  TraceCache trace_cache_;
  ResultMemo memo_;
  std::mutex build_mu_;      ///< guards resolver_ and seq_
  InputResolver resolver_;
  std::size_t seq_ = 0;      ///< names anonymous requests

  mutable std::mutex mu_;
  std::condition_variable run_cv_;    ///< a flight is runnable / stopping
  std::condition_variable drain_cv_;  ///< outstanding_ reached zero
  std::deque<std::unique_ptr<Flight>> runnable_;  ///< awaiting a worker
  /// Memoisable flights by memo key, from their queueing until their worker
  /// has stored the report: a request for the same key joins instead of
  /// replaying again. The worker running a flight owns it.
  std::map<std::string, Flight*> in_flight_;
  std::size_t outstanding_ = 0;  ///< accepted, callback not yet returned
  bool stopping_ = false;  ///< shed submits; workers drain runnable_, exit
  ServiceStats stats_;

  std::vector<std::thread> workers_;
};

// -- line protocol -----------------------------------------------------------

/// Parses one request line: a JSON object whose "id" is echoed back and
/// whose remaining string/number/boolean fields become parameters
/// ({"id":"r1","platform":"cluster:hosts=4","traces":"ti/","deployment":
/// "block","eager":4096}). Throws tir::ParseError.
Request parse_request_line(const std::string& line);

/// Renders one response as a single JSON line (no trailing newline).
/// sim_time is printed with %.17g so bit-identity survives the text round
/// trip.
std::string render_response(const Response& response);

/// Renders a stats snapshot as a single JSON line.
std::string render_stats(const ServiceStats& stats);

}  // namespace tir::serve
