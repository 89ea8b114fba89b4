// ReplayService: the persistent replay-as-a-service core behind tir-serve.
//
// One service owns the two caches (content-addressed TraceCache, keyed
// ResultMemo), one dispatcher thread and a persistent pool of replay
// workers:
//
//   submit() -> bounded queue -> dispatcher -> { bad request -> respond
//                                              { memo hit    -> respond
//                                              { in flight   -> join it
//                                              { miss -> worker replays
//                                                  -> memoise -> respond
//
// The dispatcher builds every scenario (it is the only thread that touches
// the InputResolver) and never replays, so a memo hit is answered on
// arrival instead of waiting behind the replay in flight. Callbacks run on
// the dispatcher for hits and bad requests and on a worker for replays, so
// responses leave in completion order. Admission control
// is load-shedding, not blocking: submit() refuses while queue_limit
// requests are accepted and unanswered, and the caller answers
// `overloaded` — a saturated daemon stays responsive instead of growing an
// unbounded backlog. A request identical to one already replaying joins
// that replay; repeats across the daemon's lifetime hit the memo and
// return the stored report bit-for-bit (the differential tests memcmp the
// doubles against cold runs).
//
// Request parameters are exactly the sweep-list vocabulary (see
// serve/scenario_build.hpp) plus `replica=R` to pick one Monte-Carlo
// replica of a perturbed row. Per-request wall-clock telemetry (queue wait,
// decode, solve) aggregates into obs::Histogram metrics.
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
  /// queued for the dispatcher or waiting on a replay; beyond it, shed.
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
  std::uint64_t batches = 0;       ///< dispatcher passes over the queue
  std::size_t max_queue_depth = 0; ///< peak accepted-and-unanswered requests
  obs::Histogram queue_wait;
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
  /// Answers every accepted request, then stops the dispatcher and workers.
  ~ReplayService();

  ReplayService(const ReplayService&) = delete;
  ReplayService& operator=(const ReplayService&) = delete;

  /// Enqueues one request. `done` runs once with the response: on the
  /// dispatcher thread for a memo hit or a bad request, on a worker thread
  /// for a request answered by a replay. Responses therefore leave in
  /// completion order, not submission order. Every ServiceStats counter is
  /// updated before `done` runs. Returns false — without enqueueing or
  /// calling `done` — when queue_limit requests are already accepted and
  /// unanswered: the caller answers `overloaded` (make_overloaded helps).
  bool submit(Request request, Callback done);

  /// Synchronous convenience: submit + wait. A shed request comes back as
  /// an overloaded response.
  Response run(Request request);

  /// Blocks until every accepted request has been answered and its
  /// callback has returned.
  void drain();

  Response make_overloaded(const Request& request) const;

  ServiceStats stats() const;

 private:
  /// One accepted request on its way to an answer.
  struct Pending {
    Request request;  ///< consumed by the dispatcher
    Callback done;
    std::chrono::steady_clock::time_point enqueued;
    Response response;
  };

  /// One distinct miss: a replay whose answer every waiter shares.
  struct Flight {
    replay::ScenarioSpec spec;
    std::string memo_key;          ///< empty: never memoised
    std::vector<Pending> waiters;  ///< the first one dispatched it
  };

  void dispatcher_loop();
  void dispatch(Pending& pending);
  void worker_loop();
  void run_flight(Flight& flight);
  /// Records `answered` in stats_, runs their callbacks outside the lock,
  /// then releases their admission slots. Called without mu_ held.
  void respond(std::span<Pending> answered);
  void stop_workers();

  ServiceOptions options_;
  TraceCache trace_cache_;
  ResultMemo memo_;
  InputResolver resolver_;   ///< dispatcher thread only
  std::size_t seq_ = 0;      ///< names anonymous requests; dispatcher only

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< queue non-empty / stopping
  std::condition_variable run_cv_;    ///< a flight is runnable / stopping
  std::condition_variable drain_cv_;  ///< outstanding_ reached zero
  std::deque<Pending> queue_;         ///< awaiting the dispatcher
  std::deque<std::unique_ptr<Flight>> runnable_;  ///< awaiting a worker
  /// Memoisable flights by memo key, from dispatch until their worker has
  /// stored the report: a request for the same key joins instead of
  /// replaying again. The worker running a flight owns it.
  std::map<std::string, Flight*> in_flight_;
  std::size_t outstanding_ = 0;  ///< accepted, callback not yet returned
  bool stopping_ = false;  ///< refuse submits; the dispatcher drains, exits
  bool workers_stopping_ = false;  ///< workers drain runnable_, then exit
  ServiceStats stats_;

  std::thread dispatcher_;
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
