#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "replay/sweep.hpp"
#include "serve/json.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace tir::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Response::Status from_replay(replay::ReplayStatus status) {
  switch (status) {
    case replay::ReplayStatus::ok: return Response::Status::ok;
    case replay::ReplayStatus::deadlock: return Response::Status::deadlock;
    case replay::ReplayStatus::failed: break;
  }
  return Response::Status::failed;
}

void fill_from_report(Response& response, const replay::ReplayReport& report) {
  response.status = from_replay(report.status);
  response.sim_time = report.sim_time;
  response.coverage = report.coverage;
  response.error = report.error;
  response.diagnostics = report.diagnostics;
  response.actions_replayed = report.result.actions_replayed;
  response.processes =
      static_cast<int>(report.result.process_finish_times.size());
}

}  // namespace

std::string_view to_string(Response::Status status) {
  switch (status) {
    case Response::Status::ok: return "ok";
    case Response::Status::deadlock: return "deadlock";
    case Response::Status::failed: return "failed";
    case Response::Status::badrequest: return "badrequest";
    case Response::Status::overloaded: return "overloaded";
  }
  return "failed";
}

ReplayService::ReplayService(ServiceOptions options)
    : options_(options),
      trace_cache_(options.trace_cache),
      memo_(options.memo),
      resolver_(options.base_dir, trace_cache_) {
  if (options_.queue_limit == 0) options_.queue_limit = 1;
  const int workers =
      options_.workers > 0
          ? options_.workers
          : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  try {
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
      workers_.emplace_back([this] { worker_loop(); });
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
  } catch (...) {
    stop_workers();
    throw;
  }
}

ReplayService::~ReplayService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  // The dispatcher exits only once the queue is empty, so every accepted
  // request is answered or waits in a flight the workers still run.
  dispatcher_.join();
  stop_workers();
}

void ReplayService::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    workers_stopping_ = true;
  }
  run_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ReplayService::submit(Request request, Callback done) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.received;
  if (stopping_ || outstanding_ >= options_.queue_limit) {
    ++stats_.shed;
    return false;
  }
  queue_.push_back({std::move(request), std::move(done), Clock::now(), {}});
  ++outstanding_;
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, outstanding_);
  work_cv_.notify_one();
  return true;
}

Response ReplayService::run(Request request) {
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  Response out;
  const Request copy = request;
  const bool accepted =
      submit(std::move(request), [&](Response response) {
        std::lock_guard<std::mutex> lock(done_mu);
        out = std::move(response);
        done = true;
        done_cv.notify_one();
      });
  if (!accepted) return make_overloaded(copy);
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done; });
  return out;
}

void ReplayService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return outstanding_ == 0; });
}

Response ReplayService::make_overloaded(const Request& request) const {
  Response response;
  response.id = request.id;
  response.status = Response::Status::overloaded;
  response.error = "queue full (limit " +
                   std::to_string(options_.queue_limit) + "): request shed";
  return response;
}

ServiceStats ReplayService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
  }
  out.trace_cache = trace_cache_.stats();
  out.memo = memo_.stats();
  return out;
}

void ReplayService::dispatcher_loop() {
  for (;;) {
    std::deque<Pending> pass;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to dispatch
      pass.swap(queue_);
      ++stats_.batches;
    }
    for (Pending& pending : pass) dispatch(pending);
  }
}

void ReplayService::dispatch(Pending& pending) {
  Response& response = pending.response;
  response.id = std::move(pending.request.id);
  response.queue_seconds = seconds_between(pending.enqueued, Clock::now());
  replay::ScenarioSpec spec;
  std::string memo_key;  // empty: never memoised
  try {
    KeyValues kv;
    kv.kv = std::move(pending.request.params);
    int replica = 0;
    if (const auto it = kv.kv.find("replica"); it != kv.kv.end()) {
      replica = parse_int("replica", it->second);
      if (replica < 0) throw Error("replica must be >= 0");
      kv.kv.erase(it);
    }
    if (kv.kv.count("mc") != 0)
      throw Error(
          "mc= aggregation is not servable per request; "
          "use replica=R for one replica or tir-mc for the summary");
    const SweepEntry entry = build_scenario(kv, resolver_, seq_++);
    spec = bake_replica(entry, replica);
    response.name = spec.name;
    response.trace_hit = entry.trace_cache_hit;
    response.decode_seconds = entry.trace_decode_seconds;
    // A zero digest means the resolver fell back to an uncached lazy
    // TraceSet (unreadable input): never memoise under an ambiguous key —
    // run it and let the replay report the error.
    if (!(entry.trace_digest == trace::Digest{})) {
      response.trace_digest = entry.trace_digest.hex();
      memo_key =
          scenario_memo_key(spec, entry.platform_key, entry.trace_digest);
    }
  } catch (const std::exception& e) {
    response.status = Response::Status::badrequest;
    response.error = e.what();
    respond({&pending, 1});
    return;
  }

  if (!memo_key.empty()) {
    // The flight table before the memo: a worker stores its report before
    // it leaves the table, so a key absent from the table is either
    // memoised already or not running at all.
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (const auto it = in_flight_.find(memo_key); it != in_flight_.end()) {
        ++stats_.batch_dedups;
        it->second->waiters.push_back(std::move(pending));
        return;
      }
    }
    if (auto report = memo_.lookup(memo_key)) {
      fill_from_report(response, *report);
      response.memo_hit = true;
      respond({&pending, 1});
      return;
    }
  }

  auto flight = std::make_unique<Flight>();
  flight->spec = std::move(spec);
  flight->memo_key = memo_key;
  flight->waiters.push_back(std::move(pending));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!memo_key.empty()) in_flight_.emplace(memo_key, flight.get());
    runnable_.push_back(std::move(flight));
  }
  run_cv_.notify_one();
}

void ReplayService::worker_loop() {
  for (;;) {
    std::unique_ptr<Flight> flight;
    {
      std::unique_lock<std::mutex> lock(mu_);
      run_cv_.wait(lock, [&] { return workers_stopping_ || !runnable_.empty(); });
      if (runnable_.empty()) return;  // stopping, and no flight is left
      flight = std::move(runnable_.front());
      runnable_.pop_front();
      // A miss's queue wait runs until its replay starts; a request that
      // joins the flight later keeps the wait it had at dispatch.
      const auto start = Clock::now();
      for (Pending& waiter : flight->waiters)
        waiter.response.queue_seconds =
            seconds_between(waiter.enqueued, start);
    }
    run_flight(*flight);
  }
}

void ReplayService::run_flight(Flight& flight) {
  replay::SweepResult r;
  replay::run_one(flight.spec, r);
  replay::ReplayReport report;
  report.status = r.status;
  report.sim_time = r.sim_time;
  report.coverage = r.coverage;
  report.error = std::move(r.error);
  report.diagnostics = std::move(r.diagnostics);
  report.result = std::move(r.replay);
  // ok and deadlock are deterministic functions of the scenario; a `failed`
  // outcome may be environmental (OOM, racing file edits), so it is
  // answered but never cached. The store precedes leaving the flight table.
  if (!flight.memo_key.empty() && r.status != replay::ReplayStatus::failed)
    memo_.store(flight.memo_key, report);

  std::vector<Pending> answered;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!flight.memo_key.empty()) in_flight_.erase(flight.memo_key);
    answered = std::move(flight.waiters);
    ++stats_.replays;
  }
  for (Pending& waiter : answered) {
    fill_from_report(waiter.response, report);
    waiter.response.solve_seconds = r.wall_seconds;
  }
  respond(answered);
}

void ReplayService::respond(std::span<Pending> answered) {
  const auto now = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Pending& p : answered) {
      const Response& response = p.response;
      ++stats_.completed;
      if (response.status == Response::Status::badrequest)
        ++stats_.badrequests;
      if (response.memo_hit) ++stats_.memo_hits;
      stats_.queue_wait.record(response.queue_seconds);
      if (response.decode_seconds > 0.0)
        stats_.decode.record(response.decode_seconds);
      if (response.solve_seconds > 0.0)
        stats_.solve.record(response.solve_seconds);
      stats_.total.record(seconds_between(p.enqueued, now));
    }
  }
  // Callbacks run outside the lock: a callback is allowed to call stats()
  // or submit() without deadlocking.
  for (Pending& p : answered)
    if (p.done) p.done(std::move(p.response));
  std::lock_guard<std::mutex> lock(mu_);
  outstanding_ -= answered.size();
  if (outstanding_ == 0) drain_cv_.notify_all();
}

// -- line protocol -----------------------------------------------------------

Request parse_request_line(const std::string& line) {
  const JsonValue v = parse_json(line);
  if (v.type != JsonValue::Type::object)
    throw ParseError("request must be a JSON object");
  Request request;
  for (const auto& [key, value] : v.object) {
    std::string text;
    switch (value.type) {
      case JsonValue::Type::string:
        text = value.string;
        break;
      case JsonValue::Type::number: {
        // Integral values print as integers so eager=65536 survives the
        // double round trip; everything else keeps full precision.
        if (std::floor(value.number) == value.number &&
            std::abs(value.number) < 9.0e15) {
          text = std::to_string(static_cast<long long>(value.number));
        } else {
          char buf[40];
          std::snprintf(buf, sizeof buf, "%.17g", value.number);
          text = buf;
        }
        break;
      }
      case JsonValue::Type::boolean:
        text = value.boolean ? "on" : "off";
        break;
      default:
        throw ParseError("request field '" + key +
                         "': expected a string, number or boolean");
    }
    if (key == "id")
      request.id = std::move(text);
    else
      request.params[key] = std::move(text);
  }
  return request;
}

std::string render_response(const Response& response) {
  std::string out = "{\"id\":\"" + str::json_escape(response.id) + "\"";
  out += ",\"status\":\"";
  out += to_string(response.status);
  out += "\"";
  if (!response.name.empty())
    out += ",\"name\":\"" + str::json_escape(response.name) + "\"";
  char buf[64];
  if (response.status == Response::Status::ok ||
      response.status == Response::Status::deadlock) {
    std::snprintf(buf, sizeof buf, "%.17g", response.sim_time);
    out += ",\"sim_time\":";
    out += buf;
    std::snprintf(buf, sizeof buf, "%.6f", response.coverage);
    out += ",\"coverage\":";
    out += buf;
    out += ",\"actions_replayed\":" +
           std::to_string(response.actions_replayed);
    out += ",\"processes\":" + std::to_string(response.processes);
  }
  if (!response.trace_digest.empty())
    out += ",\"trace\":\"" + response.trace_digest + "\"";
  out += ",\"cache\":{\"trace\":\"";
  out += response.trace_hit ? "hit" : "miss";
  out += "\",\"memo\":\"";
  out += response.memo_hit ? "hit" : "miss";
  out += "\"}";
  const auto timing = [&](const char* key, double v) {
    std::snprintf(buf, sizeof buf, "%.6f", v);
    out += ",\"";
    out += key;
    out += "\":";
    out += buf;
  };
  timing("queue_s", response.queue_seconds);
  timing("decode_s", response.decode_seconds);
  timing("solve_s", response.solve_seconds);
  if (!response.error.empty())
    out += ",\"error\":\"" + str::json_escape(response.error) + "\"";
  if (!response.diagnostics.empty()) {
    out += ",\"diagnostics\":[";
    for (std::size_t i = 0; i < response.diagnostics.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + str::json_escape(response.diagnostics[i]) + "\"";
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::string render_stats(const ServiceStats& stats) {
  std::string out = "{\"stats\":{";
  const auto count = [&](const char* key, std::uint64_t v, bool first = false) {
    if (!first) out += ",";
    out += "\"";
    out += key;
    out += "\":" + std::to_string(v);
  };
  count("received", stats.received, true);
  count("completed", stats.completed);
  count("shed", stats.shed);
  count("badrequests", stats.badrequests);
  count("memo_hits", stats.memo_hits);
  count("replays", stats.replays);
  count("batch_dedups", stats.batch_dedups);
  count("batches", stats.batches);
  count("max_queue_depth", stats.max_queue_depth);
  count("trace_hits", stats.trace_cache.hits);
  count("trace_misses", stats.trace_cache.misses);
  count("trace_dedups", stats.trace_cache.dedups);
  count("trace_evictions", stats.trace_cache.evictions);
  count("trace_resident_bytes", stats.trace_cache.resident_bytes);
  count("trace_entries", stats.trace_cache.entries);
  count("memo_entries", stats.memo.entries);
  count("memo_evictions", stats.memo.evictions);
  out += ",\"queue_wait\":\"" + str::json_escape(stats.queue_wait.summary()) +
         "\"";
  out += ",\"decode\":\"" + str::json_escape(stats.decode.summary()) + "\"";
  out += ",\"solve\":\"" + str::json_escape(stats.solve.summary()) + "\"";
  out += ",\"total\":\"" + str::json_escape(stats.total.summary()) + "\"";
  out += "}}";
  return out;
}

}  // namespace tir::serve
