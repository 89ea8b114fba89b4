// The four benchmark workloads.
//
// Why these four (each optimisation should have one workload that exercises
// it and one that bypasses it):
//   fig9-lu64       the paper's Fig 9 point: LU class B, 64 ranks, acquired
//                   in F-8 mode, materialised traces. Engine loop, MPI
//                   matching and action dispatch dominate; solver components
//                   stay small and cursors are a sliver of the run.
//   fig9-lu256      the same at 256 ranks, one iteration: the cluster
//                   backbone saturates and the max-min solver dominates.
//   cg-text-stream  8-rank synthetic CG, text codec, DecodePolicy::stream:
//                   mmap'd text cursors take a large share of the replay and
//                   solver components stay tiny.
//   serve-mixed     in-process ReplayService in a closed loop, 1 request in
//                   10 a new scenario: memo, trace cache, admission,
//                   batching and graph-routing platform builds.
//
// The LU and CG instances are fixed (their makespans are pinned below); the
// seed drives the serve request mix and the solver micro benchmark inputs.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "bench.hpp"
#include "platform/cluster.hpp"
#include "platform/deployment.hpp"
#include "platform/topology.hpp"
#include "replay/scenario.hpp"
#include "serve/service.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_set.hpp"

namespace fs = std::filesystem;
using namespace tir;

namespace perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Error budget on the simulated makespan: a speed-up that changes the
/// arithmetic must stay within it of the pinned reference.
constexpr double kMakespanBudget = 1e-9;

/// Untraced runs set up this many times and report the median as setup_s.
constexpr int kSetups = 3;

/// About the median host_probe_seconds() on the host the bounds in
/// BENCHMARK.json were set on (4-vCPU Xeon, GCC 12.2, Release build).
constexpr double kReferenceProbeSeconds = 0.0135;

/// Resident MiB of the host probe's data, left out of peak_rss_mib.
double g_probe_mib = 0.0;

double workload_peak_rss_mib() { return peak_rss_mib() - g_probe_mib; }

/// Rescales wall times to the reference host speed, so that the end-to-end
/// metrics of runs made minutes apart on a shared host stay comparable.
/// Measured stretches alternate with probes (host_probe.cpp); a stretch's
/// wall time is multiplied by the reference probe time over the mean of the
/// probes on either side of it. The wall-clock figures are printed beside.
class HostSpeed {
 public:
  HostSpeed() : last_(host_probe_seconds()) { probes_.push_back(last_); }

  /// Probes again; returns `wall`, measured since the previous probe, at
  /// the reference speed.
  double rescale(double wall) {
    const double next = host_probe_seconds();
    const double scaled =
        wall * kReferenceProbeSeconds / (0.5 * (last_ + next));
    last_ = next;
    probes_.push_back(next);
    return scaled;
  }

  /// Median probe time over the reference: above 1, slower than it.
  double slowdown() const { return median(probes_) / kReferenceProbeSeconds; }

 private:
  double last_;
  std::vector<double> probes_;
};

/// Counts operations and the ones that failed a check; never aborts.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// One operation whose outcome is `ok`.
  void operation(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
};

void add(Metrics& metrics, std::string name, double value, std::string unit) {
  metrics.emplace_back(std::move(name), Metric{value, std::move(unit)});
}

/// Runs `fn` inside span `name`; returns its wall time in seconds.
double timed(Tracer& tracer, const char* name, const std::function<void()>& fn,
             std::uint64_t trace_id = 0) {
  const auto scope = tracer.span(name, trace_id);
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// The solver churn micro benchmark, a quarter second per shape.
void run_micro(Metrics& metrics, Tracer& tracer, std::uint64_t seed,
               Checks& checks) {
  ChurnResult shared, disjoint;
  timed(tracer, "simkern.maxmin_churn_shared",
        [&] { shared = maxmin_churn(true, seed, 0.25); });
  timed(tracer, "simkern.maxmin_churn_disjoint",
        [&] { disjoint = maxmin_churn(false, seed, 0.25); });
  checks.operation(shared.changed >= shared.ops, "maxmin churn (shared)");
  checks.operation(disjoint.changed >= disjoint.ops, "maxmin churn (disjoint)");
  add(metrics, "maxmin.churn_ns_per_op.shared", shared.ns_per_op, "ns");
  add(metrics, "maxmin.churn_ns_per_op.disjoint", disjoint.ns_per_op, "ns");
}

void finish_traced(Metrics& metrics, const Tracer& tracer, int root,
                   double overhead, const Checks& checks) {
  add(metrics, "bench.tracing_overhead", overhead, "ratio");
  add(metrics, "bench.host_slowdown",
      host_probe_seconds() / kReferenceProbeSeconds, "ratio");
  add(metrics, "bench.span_coverage", tracer.layer_coverage(root), "ratio");
  add(metrics, "bench.failed_ratio",
      ratio(static_cast<double>(checks.failed),
            static_cast<double>(checks.attempted)),
      "ratio");
  for (const auto& [layer, seconds] : tracer.self_seconds_by_layer())
    std::printf("self %-12s %10.4f s\n", layer.c_str(), seconds);
}

// -- replay workloads ---------------------------------------------------------

/// Everything one replay needs, plus what its set-up cost per layer.
struct ReplayInputs {
  replay::ScenarioSpec spec;
  std::uint64_t actions = 0;  ///< expected action count
  double setup_s = 0.0;
  double acquisition_s = 0.0;
  std::uint64_t acquisition_actions = 0;
  double generate_s = 0.0;
  double open_s = 0.0;
  double platform_s = 0.0;
  std::uint64_t resident_bytes = 0;
};

struct ReplayWorkload {
  std::string name;
  /// Builds the inputs under `dir` (acquisition or generation, trace open,
  /// platform build); spans go to `tracer`.
  std::function<ReplayInputs(const fs::path& dir, Tracer& tracer)> setup;
  double makespan = 0.0;  ///< pinned reference simulated time
  bool measure_recorder = false;  ///< obs.spans_wall_ratio
};

void open_traces(ReplayInputs& in, const std::vector<fs::path>& files,
                 trace::DecodePolicy policy, Tracer& tracer) {
  in.open_s = timed(tracer, "trace.open", [&] {
    in.spec.traces = trace::TraceSet::per_process_files(
        files, trace::DecodeMode::strict, policy);
    in.spec.traces.streaming();  // decides the policy, builds indexes
    in.resident_bytes = in.spec.traces.resident_bytes();  // or materialises
  });
}

ReplayInputs setup_lu(int procs, double iteration_scale, const fs::path& dir,
                      Tracer& tracer) {
  const auto t0 = Clock::now();
  ReplayInputs in;
  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::B;
  cfg.nprocs = procs;
  cfg.iteration_scale = iteration_scale;
  acq::AcquisitionSpec acquisition;
  acquisition.app = apps::make_lu_app(cfg);
  acquisition.mode = acq::Mode::folding;
  acquisition.folding = 8;
  acquisition.workdir = dir;
  acquisition.run_uninstrumented_baseline = false;
  acq::AcquisitionReport report;
  in.acquisition_s = timed(tracer, "acquisition.run", [&] {
    report = acq::run_acquisition(acquisition);
  });
  in.actions = in.acquisition_actions = report.actions;
  open_traces(in, report.ti_files, trace::DecodePolicy::automatic, tracer);
  in.platform_s = timed(tracer, "platform.build", [&] {
    auto platform = std::make_shared<plat::Platform>();
    in.spec.process_hosts =
        plat::build_cluster(*platform, plat::bordereau_spec(procs));
    in.spec.platform = std::move(platform);
  });
  in.setup_s = seconds_since(t0);
  return in;
}

trace::SyntheticSpec cg_stream_spec() {
  trace::SyntheticSpec spec;
  spec.pattern = trace::SyntheticPattern::cg;
  spec.nprocs = 8;
  spec.iterations = 50'000;  // 2.0M actions, 46 MB of text
  // A measured flop count rather than a round one: the volumes of acquired
  // traces print with all 17 digits, which is what the text cursors parse.
  spec.compute_flops = 1234567.891;
  return spec;
}

ReplayInputs setup_cg_stream(const fs::path& dir, Tracer& tracer) {
  const auto t0 = Clock::now();
  ReplayInputs in;
  const trace::SyntheticSpec synthetic = cg_stream_spec();
  std::vector<fs::path> files;
  in.generate_s = timed(tracer, "trace.generate", [&] {
    files = trace::write_synthetic_traces(dir, synthetic, "text");
  });
  in.actions = trace::synthetic_actions(synthetic);
  open_traces(in, files, trace::DecodePolicy::stream, tracer);
  in.platform_s = timed(tracer, "platform.build", [&] {
    auto platform =
        std::make_shared<plat::Platform>(plat::make_platform("cluster:hosts=8"));
    in.spec.process_hosts =
        plat::resolve_deployment_spec("block", *platform, synthetic.nprocs);
    in.spec.platform = std::move(platform);
  });
  in.setup_s = seconds_since(t0);
  return in;
}

std::vector<ReplayWorkload> replay_workloads() {
  return {
      {"fig9-lu64",
       [](const fs::path& dir, Tracer& t) { return setup_lu(64, 0.1, dir, t); },
       2.3115284855280276, true},
      // iteration_scale below 1/250 runs LU B's minimum of one iteration.
      {"fig9-lu256",
       [](const fs::path& dir, Tracer& t) {
         return setup_lu(256, 1e-6, dir, t);
       },
       0.081866314740068724, false},
      {"cg-text-stream", setup_cg_stream, 400.75472595124864, false},
  };
}

struct Replayed {
  double wall = 0.0;
  replay::ReplayResult result;
};

/// One replay with the default ReplayConfig (optionally recording spans),
/// checked against the pinned makespan and the expected action count.
Replayed replay_checked(const ReplayWorkload& w, const ReplayInputs& in,
                        bool record_spans, const char* span, Tracer& tracer,
                        Checks& checks) {
  Replayed out;
  replay::ScenarioSpec spec = in.spec;
  spec.config.record_spans = record_spans;
  bool threw = false;
  out.wall = timed(tracer, span, [&] {
    try {
      out.result = replay::run_scenario(spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "replay failed: %s\n", e.what());
      threw = true;
    }
  });
  const double sim = out.result.simulated_time;
  const double error = std::fabs(sim - w.makespan) / w.makespan;
  std::printf("replay %s wall=%.4f s sim_time=%.17g actions=%llu\n",
              w.name.c_str(), out.wall, sim,
              static_cast<unsigned long long>(out.result.actions_replayed));
  checks.operation(!threw && error <= kMakespanBudget,
                   w.name + " makespan off the pinned reference");
  checks.operation(out.result.actions_replayed == in.actions,
                   w.name + " replayed action count");
  return out;
}

void check_inputs(const ReplayWorkload& w, const ReplayInputs& in,
                  Checks& checks) {
  std::uint64_t total = 0;
  for (int pid = 0; pid < in.spec.traces.nprocs(); ++pid)
    total += in.spec.traces.action_count(pid);
  checks.operation(total == in.actions && in.actions > 0,
                   w.name + " trace action count");
}

RunResult run_replay(const ReplayWorkload& w, const RunOptions& o,
                     Tracer& tracer) {
  Checks checks;
  Tracer off(false);
  RunResult out;

  if (!o.trace) {
    HostSpeed host;
    std::vector<double> setups, setup_walls;
    ReplayInputs in;
    for (int i = 0; i < kSetups; ++i) {
      in = ReplayInputs{};  // release the previous set-up first
      const fs::path dir = o.workdir / ("setup" + std::to_string(i));
      in = w.setup(dir, off);
      fs::remove_all(dir / "tau");  // acquisition by-products, not replayed
      setup_walls.push_back(in.setup_s);
      setups.push_back(host.rescale(in.setup_s));
      check_inputs(w, in, checks);
    }
    // Throughput over every replay of the run rather than a median of a few:
    // on a shared host, slow phases last seconds and cover whole replays.
    double wall = 0.0, scaled = 0.0, actions = 0.0;
    int replays = 0;
    const auto t0 = Clock::now();
    do {
      const Replayed r = replay_checked(w, in, false, "replay.run", off, checks);
      wall += r.wall;
      scaled += host.rescale(r.wall);
      actions += static_cast<double>(r.result.actions_replayed);
      ++replays;
    } while (seconds_since(t0) < o.seconds || replays < 3);
    std::printf("wall-clock setup_s=%.6g actions_per_s=%.6g "
                "requests_per_s=%.6g host_slowdown=%.4f\n",
                median(setup_walls), actions / wall, replays / wall,
                host.slowdown());
    add(out.metrics, "setup_s", median(setups), "s");
    add(out.metrics, "actions_per_s", actions / scaled, "1/s");
    add(out.metrics, "requests_per_s", replays / scaled, "1/s");
    add(out.metrics, "peak_rss_mib", workload_peak_rss_mib(), "MiB");
    out.attempted = checks.attempted;
    out.failed = checks.failed;
    return out;
  }

  // Traced run: one set-up, then each layer on its own, all inside the root
  // span; untraced replays after the root close give the tracing overhead.
  ReplayInputs in;
  std::vector<double> traced_walls, recorded_walls;
  Replayed first;
  double route_ns = 0.0, cursor_ns = 0.0;
  trace::TraceStats stats;
  int root = -1;
  {
    const auto root_span = tracer.span("bench.workload");
    root = root_span.index();
    in = w.setup(o.workdir / "setup", tracer);
    check_inputs(w, in, checks);

    const plat::Platform& platform = *in.spec.platform;
    const auto& hosts = in.spec.process_hosts;
    std::uint64_t pairs = 0, links = 0;
    const double route_s = timed(tracer, "platform.route", [&] {
      for (const int a : hosts)
        for (const int b : hosts) {
          if (a == b) continue;
          links += platform.route(a, b).links.size();
          ++pairs;
        }
    });
    route_ns = pairs > 0 && links > 0 ? route_s * 1e9 / pairs : 0.0;

    timed(tracer, "trace.stats", [&] { stats = in.spec.traces.stats(); });

    // A cursor drain pass before each replay, so the cursor share compares
    // timings taken under the same host load.
    std::vector<double> drains;
    const auto drain = [&] {
      std::uint64_t drained = 0;
      drains.push_back(timed(tracer, "trace.drain", [&] {
        for (int pid = 0; pid < in.spec.traces.nprocs(); ++pid) {
          auto source = in.spec.traces.open(pid);
          while (source->next()) ++drained;
        }
      }));
      checks.operation(drained == in.actions, w.name + " cursor drain count");
    };
    drain();
    first = replay_checked(w, in, false, "replay.run", tracer, checks);
    traced_walls.push_back(first.wall);
    const long extra = std::clamp(std::lround(o.seconds / (2 * first.wall)),
                                  1L, 5L) - 1;
    for (long i = 0; i < extra; ++i) {
      drain();
      traced_walls.push_back(
          replay_checked(w, in, false, "replay.run", tracer, checks).wall);
    }
    cursor_ns = median(drains) * 1e9 / static_cast<double>(in.actions);
    if (w.measure_recorder)
      for (std::size_t i = 0; i < traced_walls.size(); ++i)
        recorded_walls.push_back(
            replay_checked(w, in, true, "replay.run_recorded", tracer, checks)
                .wall);
    run_micro(out.metrics, tracer, o.seed, checks);
  }
  std::vector<double> untraced_walls;
  for (std::size_t i = 0; i < traced_walls.size(); ++i)
    untraced_walls.push_back(
        replay_checked(w, in, false, "replay.run", off, checks).wall);

  const double n = static_cast<double>(in.actions);
  const double replay_ns = median(traced_walls) * 1e9 / n;
  const sim::EngineStats& e = first.result.engine_stats;
  const auto per_action = [&](double count) { return count / n; };
  add(out.metrics, "acquisition.s", in.acquisition_s, "s");
  add(out.metrics, "acquisition.actions",
      static_cast<double>(in.acquisition_actions), "count");
  add(out.metrics, "trace.generate_s", in.generate_s, "s");
  add(out.metrics, "trace.open_s", in.open_s, "s");
  add(out.metrics, "trace.resident_mib",
      static_cast<double>(in.resident_bytes) / kMiB, "MiB");
  add(out.metrics, "trace.actions", n, "count");
  add(out.metrics, "trace.cursor_ns_per_action", cursor_ns, "ns");
  add(out.metrics, "trace.cursor_share", ratio(cursor_ns, replay_ns), "ratio");
  add(out.metrics, "platform.build_s", in.platform_s, "s");
  add(out.metrics, "platform.route_ns_per_pair", route_ns, "ns");
  add(out.metrics, "replay.ns_per_action", replay_ns, "ns");
  add(out.metrics, "replay.non_cursor_ns_per_action", replay_ns - cursor_ns,
      "ns");
  add(out.metrics, "engine.resumes_per_action",
      per_action(static_cast<double>(e.resumes)), "ratio");
  add(out.metrics, "engine.heap_events_per_action",
      per_action(static_cast<double>(e.heap_events)), "ratio");
  add(out.metrics, "engine.activities_per_action",
      per_action(static_cast<double>(e.activities)), "ratio");
  add(out.metrics, "maxmin.solves_per_action",
      per_action(static_cast<double>(e.solver_calls)), "ratio");
  add(out.metrics, "maxmin.vars_per_solve",
      ratio(static_cast<double>(e.solver_vars_touched),
            static_cast<double>(e.solver_calls)),
      "ratio");
  add(out.metrics, "maxmin.rerates_per_action",
      per_action(static_cast<double>(e.flows_rerated)), "ratio");
  add(out.metrics, "maxmin.component_max",
      static_cast<double>(e.solver_component_size_max), "count");
  add(out.metrics, "mpisim.p2p_per_action",
      per_action(static_cast<double>(stats.p2p_messages)), "ratio");
  add(out.metrics, "mpisim.collectives_per_action",
      per_action(static_cast<double>(stats.collectives)), "ratio");
  add(out.metrics, "mpisim.bytes_per_action", per_action(stats.total_bytes_sent),
      "B");
  if (w.measure_recorder)
    add(out.metrics, "obs.spans_wall_ratio",
        ratio(median(recorded_walls), median(traced_walls)), "ratio");
  finish_traced(out.metrics, tracer, root,
                ratio(median(traced_walls), median(untraced_walls)) - 1.0,
                checks);
  out.attempted = checks.attempted;
  out.failed = checks.failed;
  return out;
}

// -- serve-mixed ----------------------------------------------------------------

constexpr int kServeRanks = 16;
constexpr int kClients = 2;  // closed loop: each waits for its reply
constexpr int kWorkers = 2;  // SweepRunner workers inside the service
constexpr int kRound = 200;  // requests per round; counts are checked per round
constexpr int kNewPerRound = kRound / 10;  // memo misses that replay
const char* const kServePlatforms[] = {"cluster:hosts=16", "dragonfly",
                                       "fattree:k=4", "torus:dims=4x4"};
constexpr int kKnown = 32;  // 4 platforms x 8 efficiencies

trace::SyntheticSpec serve_trace_spec() {
  trace::SyntheticSpec spec;
  spec.pattern = trace::SyntheticPattern::cg;
  spec.nprocs = kServeRanks;
  spec.iterations = 150;
  return spec;
}

struct ServeScenario {
  std::string platform;
  std::string efficiency;  // decimal text, so memo keys are exact
  std::string key() const { return platform + "|" + efficiency; }
};

ServeScenario known_scenario(int i) {
  char eff[16];
  std::snprintf(eff, sizeof eff, "%.6f", 0.55 + 0.05 * (i / 4));
  return {kServePlatforms[i % 4], eff};
}

std::string request_line(const std::string& id, const ServeScenario& s) {
  return "{\"id\":\"" + id + "\",\"platform\":\"" + s.platform +
         "\",\"traces\":\"cg16\",\"deployment\":\"block\",\"efficiency\":\"" +
         s.efficiency + "\"}";
}

/// A round of requests: kNewPerRound fresh scenarios at seeded positions,
/// as many on each platform (their replays cost differently), the rest drawn
/// from the known set.
struct Round {
  std::vector<std::string> lines;
  std::vector<int> known;  ///< known-scenario index, -1 = new scenario
};

class RequestMix {
 public:
  explicit RequestMix(std::uint64_t seed) : rng_(seed) {}

  Round next(int round) {
    Round r;
    std::vector<int> order(kRound);
    for (int i = 0; i < kRound; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng_);
    std::vector<bool> fresh(kRound, false);
    for (int i = 0; i < kNewPerRound; ++i) fresh[order[i]] = true;
    std::uniform_int_distribution<int> pick_known(0, kKnown - 1);
    std::uniform_int_distribution<int> pick_eff(0, 199'999);
    int fresh_no = 0;
    for (int i = 0; i < kRound; ++i) {
      const std::string id =
          "r" + std::to_string(round) + "-" + std::to_string(i);
      if (!fresh[i]) {
        const int k = pick_known(rng_);
        r.known.push_back(k);
        r.lines.push_back(request_line(id, known_scenario(k)));
        continue;
      }
      ServeScenario s;
      do {  // efficiencies below the known ladder, never repeated
        char eff[16];
        std::snprintf(eff, sizeof eff, "%.6f", 0.3 + 1e-6 * pick_eff(rng_));
        s = {kServePlatforms[fresh_no % 4], eff};
      } while (!used_.insert(s.key()).second);
      ++fresh_no;
      r.known.push_back(-1);
      r.lines.push_back(request_line(id, s));
    }
    return r;
  }

 private:
  std::mt19937_64 rng_;
  std::set<std::string> used_;
};

struct Sample {
  double latency = 0.0;
  bool known = false;
  bool memo_hit = false;
  double queue = 0.0;
  double solve = 0.0;
  double decode = 0.0;
  double actions = 0.0;  ///< actions replayed; misses only
};

struct ServeState {
  std::unique_ptr<serve::ReplayService> service;
  std::vector<double> reference;  ///< known index -> replayed sim_time
  std::vector<double> decodes;    ///< warm-up decode seconds (> 0)
  double setup_s = 0.0;
};

ServeState setup_serve(const fs::path& dir, Tracer& tracer, Checks& checks) {
  const auto t0 = Clock::now();
  ServeState st;
  timed(tracer, "trace.generate", [&] {
    trace::write_synthetic_traces(dir / "cg16", serve_trace_spec(), "compact");
  });
  timed(tracer, "serve.start", [&] {
    serve::ServiceOptions options;
    options.workers = kWorkers;
    options.base_dir = dir.string();
    st.service = std::make_unique<serve::ReplayService>(options);
  });
  // Warm-up: every known scenario replays once (memo misses), filling the
  // trace cache, the platform cache and the memo before anything is timed.
  std::vector<serve::Response> responses(kKnown);
  timed(tracer, "serve.warm", [&] {
    std::vector<std::thread> clients;
    std::atomic<int> next{0};
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&] {
        for (int i = next++; i < kKnown; i = next++)
          responses[i] = st.service->run(serve::parse_request_line(
              request_line("warm-" + std::to_string(i), known_scenario(i))));
      });
    for (auto& t : clients) t.join();
  });
  const std::uint64_t expected = trace::synthetic_actions(serve_trace_spec());
  for (int i = 0; i < kKnown; ++i) {
    const serve::Response& r = responses[i];
    checks.operation(r.status == serve::Response::Status::ok && !r.memo_hit &&
                         r.actions_replayed == expected,
                     "serve warm-up " + known_scenario(i).key());
    st.reference.push_back(r.sim_time);
    if (r.decode_seconds > 0.0) st.decodes.push_back(r.decode_seconds);
  }
  st.setup_s = seconds_since(t0);
  return st;
}

/// Reads the %.17g sim_time back out of a rendered response line.
bool rendered_sim_time(const std::string& line, double& out) {
  const auto at = line.find("\"sim_time\":");
  if (at == std::string::npos) return false;
  out = std::strtod(line.c_str() + at + 11, nullptr);
  return true;
}

/// Drives one round through kClients closed-loop clients. Requests travel as
/// protocol lines (parse_request_line) and answers through render_response.
void run_round(ServeState& st, const Round& round, std::uint64_t trace_base,
               Tracer& tracer, Checks& checks, std::vector<Sample>& samples) {
  const serve::ServiceStats before = st.service->stats();
  const std::uint64_t expected = trace::synthetic_actions(serve_trace_spec());
  std::vector<Sample> out(round.lines.size());
  std::vector<char> ok(round.lines.size(), 0);
  {
    const auto loop = tracer.span("bench.round");
    std::atomic<std::size_t> next{0};
    const auto client = [&] {
      for (std::size_t i = next++; i < round.lines.size(); i = next++) {
        const std::uint64_t id = trace_base + i + 1;
        const auto request_span = tracer.span("serve.request", id, loop.index());
        const auto t0 = Clock::now();
        serve::Request request;
        timed(tracer, "serve.parse",
              [&] { request = serve::parse_request_line(round.lines[i]); }, id);
        serve::Response response;
        timed(tracer, "serve.run",
              [&] { response = st.service->run(std::move(request)); }, id);
        std::string line;
        timed(tracer, "serve.render",
              [&] { line = serve::render_response(response); }, id);
        Sample& s = out[i];
        s.latency = seconds_since(t0);
        s.known = round.known[i] >= 0;
        s.memo_hit = response.memo_hit;
        s.queue = response.queue_seconds;
        s.solve = response.solve_seconds;
        s.decode = response.decode_seconds;
        double rendered = 0.0;
        bool good = response.status == serve::Response::Status::ok &&
                    rendered_sim_time(line, rendered) &&
                    std::memcmp(&rendered, &response.sim_time,
                                sizeof rendered) == 0;
        if (s.known) {
          const double ref = st.reference[round.known[i]];
          good = good && response.memo_hit &&
                 std::memcmp(&response.sim_time, &ref, sizeof ref) == 0;
        } else {
          good = good && !response.memo_hit &&
                 response.actions_replayed == expected &&
                 response.solve_seconds > 0.0;
          s.actions = static_cast<double>(response.actions_replayed);
        }
        ok[i] = good;
      }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
    for (auto& t : clients) t.join();
  }
  for (std::size_t i = 0; i < out.size(); ++i)
    checks.operation(ok[i] != 0, "serve request " + round.lines[i]);
  const serve::ServiceStats after = st.service->stats();
  checks.operation(after.replays - before.replays == kNewPerRound,
                   "serve misses per round");
  checks.operation((after.memo_hits + after.batch_dedups) -
                           (before.memo_hits + before.batch_dedups) ==
                       kRound - kNewPerRound,
                   "serve memo_hits + batch_dedups per round");
  samples.insert(samples.end(), out.begin(), out.end());
}

/// Highest percentile with at least ten samples beyond it (p99, p90, p50).
std::pair<double, const char*> tail(const std::vector<double>& v) {
  const double n = static_cast<double>(v.size());
  if (n * 0.01 >= 10) return {quantile(v, 0.99), "p99"};
  if (n * 0.1 >= 10) return {quantile(v, 0.90), "p90"};
  return {quantile(v, 0.5), "p50"};
}

struct Split {
  std::vector<double> all, hit, miss, queue, solve;
  double miss_actions = 0.0, miss_solve_s = 0.0;
};

Split split(const std::vector<Sample>& samples) {
  Split s;
  for (const Sample& x : samples) {
    s.all.push_back(x.latency);
    s.queue.push_back(x.queue);
    (x.known ? s.hit : s.miss).push_back(x.latency);
    if (!x.known) {
      s.solve.push_back(x.solve);
      s.miss_actions += x.actions;
      s.miss_solve_s += x.solve;
    }
  }
  return s;
}

void print_latency(const Split& s) {
  const auto [hit_tail, hit_tag] = tail(s.hit);
  const auto [miss_tail, miss_tag] = tail(s.miss);
  std::printf("serve hit  n=%zu p50=%.4f ms %s=%.4f ms\n", s.hit.size(),
              median(s.hit) * 1e3, hit_tag, hit_tail * 1e3);
  std::printf("serve miss n=%zu p50=%.4f ms %s=%.4f ms\n", s.miss.size(),
              median(s.miss) * 1e3, miss_tag, miss_tail * 1e3);
}

RunResult run_serve(const RunOptions& o, Tracer& tracer) {
  Checks checks;
  Tracer off(false);
  RunResult out;
  RequestMix mix(o.seed);
  int round_no = 0;

  const auto loop = [&](ServeState& st, Tracer& t, double seconds,
                        std::vector<Sample>& samples) {
    const auto t0 = Clock::now();
    int rounds = 0;
    do {
      run_round(st, mix.next(round_no), std::uint64_t(round_no) * kRound, t,
                checks, samples);
      ++round_no;
      ++rounds;
    } while (seconds_since(t0) < seconds);
    return std::make_pair(seconds_since(t0), rounds);
  };

  if (!o.trace) {
    HostSpeed host;
    std::vector<double> setups, setup_walls;
    ServeState st;
    for (int i = 0; i < kSetups; ++i) {
      st = ServeState{};  // stops the previous service first
      st = setup_serve(o.workdir / ("setup" + std::to_string(i)), off, checks);
      setup_walls.push_back(st.setup_s);
      setups.push_back(host.rescale(st.setup_s));
    }
    // Rounds run in stretches of about three seconds with a probe after
    // each, so the probe takes a few percent of the run.
    std::vector<Sample> samples;
    double wall = 0.0, scaled = 0.0, wall_solve_s = 0.0;
    do {
      const std::size_t first = samples.size();
      const double stretch = loop(st, off, 3.0, samples).first;
      const double factor = host.rescale(stretch) / stretch;
      for (std::size_t i = first; i < samples.size(); ++i) {
        if (!samples[i].known) wall_solve_s += samples[i].solve;
        samples[i].solve *= factor;
      }
      wall += stretch;
      scaled += stretch * factor;
    } while (wall < o.seconds);
    const Split s = split(samples);
    print_latency(s);
    const double requests = static_cast<double>(samples.size());
    std::printf("wall-clock setup_s=%.6g actions_per_s=%.6g "
                "requests_per_s=%.6g host_slowdown=%.4f\n",
                median(setup_walls), ratio(s.miss_actions, wall_solve_s),
                requests / wall, host.slowdown());
    add(out.metrics, "setup_s", median(setups), "s");
    add(out.metrics, "actions_per_s", ratio(s.miss_actions, s.miss_solve_s),
        "1/s");
    add(out.metrics, "requests_per_s", requests / scaled, "1/s");
    add(out.metrics, "peak_rss_mib", workload_peak_rss_mib(), "MiB");
    out.attempted = checks.attempted;
    out.failed = checks.failed;
    return out;
  }

  ServeState st;
  std::vector<Sample> traced, untraced;
  serve::ServiceStats before, after;
  int root = -1, rounds = 0;
  {
    const auto root_span = tracer.span("bench.workload");
    root = root_span.index();
    st = setup_serve(o.workdir / "setup", tracer, checks);
    before = st.service->stats();
    rounds = loop(st, tracer, o.seconds, traced).second;
    after = st.service->stats();
    run_micro(out.metrics, tracer, o.seed, checks);
  }
  loop(st, off, 0.0, untraced);

  const Split s = split(traced);
  print_latency(s);
  const double per_round = 1.0 / rounds;
  const auto delta = [&](std::uint64_t b, std::uint64_t a) {
    return static_cast<double>(a - b);
  };
  add(out.metrics, "serve.hit_p50_ms", median(s.hit) * 1e3, "ms");
  add(out.metrics, "serve.hit_p99_ms", quantile(s.hit, 0.99) * 1e3, "ms");
  add(out.metrics, "serve.hit_samples", static_cast<double>(s.hit.size()),
      "count");
  add(out.metrics, "serve.miss_p50_ms", median(s.miss) * 1e3, "ms");
  add(out.metrics, "serve.miss_p90_ms", quantile(s.miss, 0.9) * 1e3, "ms");
  add(out.metrics, "serve.miss_samples", static_cast<double>(s.miss.size()),
      "count");
  add(out.metrics, "serve.queue_wait_p50_ms", median(s.queue) * 1e3, "ms");
  add(out.metrics, "serve.queue_wait_p99_ms", quantile(s.queue, 0.99) * 1e3,
      "ms");
  add(out.metrics, "serve.solve_p50_ms", median(s.solve) * 1e3, "ms");
  add(out.metrics, "serve.decode_p50_ms", median(st.decodes) * 1e3, "ms");
  add(out.metrics, "serve.memo_hit_ratio",
      ratio(delta(before.memo_hits, after.memo_hits),
            delta(before.received, after.received)),
      "ratio");
  const auto& tc = after.trace_cache;
  add(out.metrics, "serve.trace_cache_hit_ratio",
      ratio(static_cast<double>(tc.hits),
            static_cast<double>(tc.hits + tc.misses)),
      "ratio");
  add(out.metrics, "serve.misses_per_round",
      delta(before.replays, after.replays) * per_round, "count");
  add(out.metrics, "serve.batches_per_round",
      delta(before.batches, after.batches) * per_round, "count");
  add(out.metrics, "serve.batch_dedups_per_round",
      delta(before.batch_dedups, after.batch_dedups) * per_round, "count");
  add(out.metrics, "serve.max_queue_depth",
      static_cast<double>(after.max_queue_depth), "count");
  finish_traced(out.metrics, tracer, root,
                ratio(median(s.all), median(split(untraced).all)) - 1.0,
                checks);
  out.attempted = checks.attempted;
  out.failed = checks.failed;
  return out;
}

}  // namespace

RunResult run_workload(const RunOptions& options, Tracer& tracer) {
  // serve-mixed keeps its kWorkers replay workers busy at once.
  g_probe_mib =
      host_probe_build(options.workload == "serve-mixed" ? kWorkers : 1);
  fs::remove_all(options.workdir);
  fs::create_directories(options.workdir);
  RunResult result;
  if (options.workload == "serve-mixed") {
    result = run_serve(options, tracer);
  } else {
    const auto all = replay_workloads();
    const auto it = std::find_if(all.begin(), all.end(), [&](const auto& w) {
      return w.name == options.workload;
    });
    if (it == all.end())
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "' (fig9-lu64, fig9-lu256, cg-text-stream, "
                                  "serve-mixed)");
    result = run_replay(*it, options, tracer);
  }
  fs::remove_all(options.workdir);
  return result;
}

}  // namespace perfbench
