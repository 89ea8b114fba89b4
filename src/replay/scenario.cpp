#include "replay/scenario.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "platform/deployment.hpp"
#include "platform/topology.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace tir::replay {

std::shared_ptr<const plat::Platform> share_platform(
    const plat::Platform& platform) {
  return std::shared_ptr<const plat::Platform>(
      std::shared_ptr<const plat::Platform>{}, &platform);
}

std::string_view to_string(ReplayStatus status) {
  switch (status) {
    case ReplayStatus::ok: return "ok";
    case ReplayStatus::deadlock: return "deadlock";
    case ReplayStatus::failed: return "failed";
  }
  return "unknown";
}

namespace {

/// A FaultSpec with its target resolved against the scenario's platform.
struct ResolvedFault {
  FaultSpec::Kind kind;
  double at_time;
  double until_time;
  int repeat;
  double period;
  int id;
  double compute_factor;
  double bandwidth_factor;
  double latency_factor;
};

std::vector<ResolvedFault> resolve_faults(const ScenarioSpec& spec) {
  // Error prefix: attribute the failure to the scenario when it is named
  // (sweeps report which list row is broken) and to the fault's target.
  const auto fail = [&spec](const std::string& message) -> SimError {
    const std::string where =
        spec.name.empty() ? "fault" : "scenario '" + spec.name + "': fault";
    return SimError(where + ": " + message);
  };
  std::vector<ResolvedFault> out;
  out.reserve(spec.faults.size());
  const plat::Platform& platform = *spec.platform;
  for (const FaultSpec& f : spec.faults) {
    ResolvedFault r;
    r.kind = f.kind;
    r.at_time = f.at_time;
    r.until_time = f.until_time;
    r.repeat = f.repeat;
    r.period = f.period;
    r.compute_factor = f.compute_factor;
    r.bandwidth_factor = f.bandwidth_factor;
    r.latency_factor = f.latency_factor;
    if (f.at_time < 0)
      throw fail("activation time must be non-negative");
    if (f.compute_factor <= 0 || f.bandwidth_factor <= 0 ||
        f.latency_factor < 0)
      throw fail("factors must be positive (latency factor non-negative)");
    if (f.repeat < 1) throw fail("repeat must be >= 1");
    if (f.repeat > 1) {
      if (!f.has_recovery())
        throw fail("a flap train (repeat > 1) needs a recovery "
                   "(until_time > at_time)");
      if (f.period < f.until_time - f.at_time)
        throw fail("flap period must cover the outage "
                   "(period >= until_time - at_time)");
    }
    if (f.kind == FaultSpec::Kind::host) {
      if (f.target.empty()) {
        r.id = f.id;
      } else {
        const auto host = platform.find_host(f.target);
        if (!host) throw fail("unknown host '" + f.target + "'");
        r.id = *host;
      }
      if (r.id < 0 || static_cast<std::size_t>(r.id) >= platform.host_count())
        throw fail("unknown host " +
                   (f.target.empty() ? std::to_string(f.id) : f.target));
    } else {
      if (f.target.empty()) {
        r.id = f.id;
      } else {
        const auto link = platform.find_link(f.target);
        if (!link) throw fail("unknown link '" + f.target + "'");
        r.id = *link;
      }
      if (r.id < 0 || static_cast<std::size_t>(r.id) >= platform.link_count())
        throw fail("unknown link " +
                   (f.target.empty() ? std::to_string(f.id) : f.target));
    }
    out.push_back(r);
  }
  return out;
}

/// The body of one fault injector: degrade at at_time, optionally recover
/// at until_time, repeating for a flap train. Recovery restores the factor
/// captured at activation (nominal unless an outer perturbation set one).
sim::Task fault_injector(sim::Engine& engine, ResolvedFault fault) {
  double cycle_start = fault.at_time;
  for (int cycle = 0; cycle < fault.repeat; ++cycle) {
    if (cycle_start > engine.now())
      co_await engine.wait_for(cycle_start - engine.now());
    if (fault.kind == FaultSpec::Kind::host) {
      const double before = engine.host_factor(fault.id);
      engine.set_host_factor(fault.id, fault.compute_factor);
      if (fault.until_time > fault.at_time) {
        co_await engine.wait_for(cycle_start - fault.at_time +
                                 fault.until_time - engine.now());
        engine.set_host_factor(fault.id, before);
      }
    } else {
      const double before_bw = engine.link_bandwidth_factor(fault.id);
      const double before_lat = engine.link_latency_factor(fault.id);
      engine.set_link_factors(fault.id, fault.bandwidth_factor,
                              fault.latency_factor);
      if (fault.until_time > fault.at_time) {
        co_await engine.wait_for(cycle_start - fault.at_time +
                                 fault.until_time - engine.now());
        engine.set_link_factors(fault.id, before_bw, before_lat);
      }
    }
    cycle_start += fault.period;
  }
}

// Body of a replay; writes into `result` as it goes so a caller catching a
// SimError (deadlock, mismatch) still sees the partial progress — how many
// actions replayed, which processes finished — at the instant it stopped.
void run_scenario_into(const ScenarioSpec& spec, ReplayResult& result) {
  if (!spec.platform) throw SimError("scenario: no platform");
  const int nprocs = spec.traces.nprocs();
  if (nprocs == 0) throw SimError("scenario: empty trace set");
  if (static_cast<int>(spec.process_hosts.size()) != nprocs)
    throw SimError("scenario: deployment has " +
                   std::to_string(spec.process_hosts.size()) +
                   " processes but the trace set has " +
                   std::to_string(nprocs));
  const std::vector<ResolvedFault> faults = resolve_faults(spec);
  ActionRegistry registry = ActionRegistry::with_defaults();
  if (spec.customize_registry) spec.customize_registry(registry);

  // The recorder is constructed (and stored into the result) before the
  // engine and world: deadlocked rank frames close their open spans from
  // OpScope destructors during World teardown, so it must outlive both.
  std::shared_ptr<obs::Recorder> owned_recorder;
  obs::Recorder* recorder = spec.config.recorder;
  if (recorder == nullptr && spec.config.record_spans) {
    owned_recorder =
        std::make_shared<obs::Recorder>(spec.config.span_activity_detail);
    recorder = owned_recorder.get();
    result.spans = owned_recorder;
  }

  // Every mutable piece of the simulation lives below this line, scoped to
  // this call: the engine (event heaps, route cache, fluid state), the MPI
  // world (matching queues) and the per-process replay contexts.
  sim::Engine engine(*spec.platform,
                     sim::EngineConfig{.full_solve = spec.config.full_solve,
                                       .recorder = recorder});
  mpi::Config mpi_config = spec.config.mpi;
  if (recorder != nullptr) mpi_config.recorder = recorder;
  mpi::World world(engine, spec.process_hosts, mpi_config);

  result.process_finish_times.assign(static_cast<std::size_t>(nprocs), 0.0);

  std::vector<std::unique_ptr<ReplayCtx>> contexts;
  contexts.reserve(static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p)
    contexts.push_back(std::make_unique<ReplayCtx>(
        world.rank(p), spec.config.compute_efficiency));

  for (int p = 0; p < nprocs; ++p) {
    ReplayCtx* ctx = contexts[static_cast<std::size_t>(p)].get();
    world.launch_rank(p, [&spec, &registry, ctx, p, &engine,
                          &result](mpi::Rank&) -> sim::Co<void> {
      auto source = spec.traces.open(p);
      while (auto action = source->next()) {
        if (action->pid != p)
          throw SimError("replay: process " + std::to_string(p) +
                         " read an action belonging to process " +
                         std::to_string(action->pid));
        const ActionHandler& handler = registry.handler(action->type);
        const double start = engine.now();
        co_await handler(*ctx, *action);
        ++result.actions_replayed;
        if (spec.config.record_timed_trace)
          result.timed_trace.push_back(
              TimedAction{p, *action, start, engine.now()});
      }
      if (ctx->pending_requests() > 0)
        log::warn("replay: process ", p, " finished with ",
                  ctx->pending_requests(), " pending request(s)");
      result.process_finish_times[static_cast<std::size_t>(p)] = engine.now();
    });
  }

  // One injector process per fault: sleep until the activation time, set
  // the factors, and (for faults with recovery / flap trains) keep cycling
  // between outage and healing. Injectors run on the first replay host but
  // consume no compute — only timers.
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const ResolvedFault& fault = faults[i];
    engine.spawn("fault-" + std::to_string(i), spec.process_hosts[0],
                 [fault, &engine](sim::Process&) -> sim::Task {
                   return fault_injector(engine, fault);
                 });
  }

  try {
    engine.run();
  } catch (...) {
    // Suspended rank bodies hold guards into `world` and `contexts`, both
    // of which unwind before `engine`. Drop the frames while they live.
    engine.drop_frames();
    throw;
  }
  // A fault timer set past the end of the replay legitimately extends
  // engine.now() beyond the last rank's finish; the makespan is the ranks'.
  if (faults.empty()) {
    result.simulated_time = engine.now();
  } else {
    double makespan = 0.0;
    for (const double t : result.process_finish_times)
      makespan = std::max(makespan, t);
    result.simulated_time = makespan;
  }
  result.engine_stats = engine.stats();
}

}  // namespace

void validate_faults(const ScenarioSpec& spec) {
  if (!spec.platform) throw SimError("scenario: no platform");
  (void)resolve_faults(spec);
}

ReplayResult run_scenario(const ScenarioSpec& spec) {
  ReplayResult result;
  run_scenario_into(spec, result);
  return result;
}

ReplayResult replay_files(const std::filesystem::path& platform,
                          const std::filesystem::path& deployment,
                          const std::vector<std::filesystem::path>& traces,
                          ReplayConfig config) {
  ScenarioSpec spec;
  spec.name = platform.stem().string();
  spec.platform_label = platform.string();
  spec.platform = std::make_shared<const plat::Platform>(
      plat::load_platform_spec(platform.string()));
  spec.traces =
      trace::TraceSet::per_process_files(trace::process_trace_files(traces));
  spec.process_hosts = plat::resolve_deployment_spec(
      deployment.string(), *spec.platform, spec.traces.nprocs());
  spec.config = config;
  return run_scenario(spec);
}

ReplayReport run_scenario_report(const ScenarioSpec& spec) {
  ReplayReport report;
  // Trace decoding happens before simulation state exists, so a parse error
  // here is a clean "failed" report with zero coverage.
  std::uint64_t total_actions = 0;
  try {
    total_actions = spec.traces.stats().actions;
  } catch (const std::exception& e) {
    report.error = e.what();
    return report;
  }
  const auto coverage = [&](std::uint64_t replayed) {
    return total_actions == 0
               ? 0.0
               : static_cast<double>(replayed) /
                     static_cast<double>(total_actions);
  };

  try {
    run_scenario_into(spec, report.result);
    report.status = ReplayStatus::ok;
    report.sim_time = report.result.simulated_time;
    report.coverage = 1.0;
  } catch (const DeadlockError& e) {
    report.status = ReplayStatus::deadlock;
    report.sim_time = e.sim_time();
    report.coverage = coverage(report.result.actions_replayed);
    report.error = e.what();
    report.diagnostics = e.blocked();
  } catch (const std::exception& e) {
    report.status = ReplayStatus::failed;
    report.coverage = coverage(report.result.actions_replayed);
    report.error = e.what();
  }
  return report;
}

}  // namespace tir::replay
