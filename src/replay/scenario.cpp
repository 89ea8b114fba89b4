#include "replay/scenario.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "platform/deployment.hpp"
#include "platform/topology.hpp"
#include "support/error.hpp"
#include "support/fifo.hpp"
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

std::uint64_t as_bytes(double volume) {
  return volume < 0 ? 0 : static_cast<std::uint64_t>(volume);
}

/// The oldest pending Isend/Irecv: the trace's `wait` action carries no
/// parameters, so it completes requests in the order they were posted.
mpi::Request pop_request(Fifo<mpi::Request>& pending, int pid) {
  if (pending.empty())
    throw SimError("replay: process " + std::to_string(pid) +
                   " executes `wait` with no pending request");
  mpi::Request request = std::move(pending.front());
  pending.pop_front();
  return request;
}

/// The replay actor of process p (paper §5): reads p's actions in order and
/// performs each on its rank. Collectives are rooted on process 0 (§3).
sim::Co<void> replay_process(const ScenarioSpec& spec, int p, mpi::Rank& rank,
                             ReplayResult& result) {
  using trace::ActionType;
  const sim::Engine& engine = rank.engine();
  const double efficiency = spec.config.compute_efficiency;
  Fifo<mpi::Request> pending;
  auto source = spec.traces.open(p);
  while (auto action = source->next()) {
    const trace::Action& a = *action;
    if (a.pid != p)
      throw SimError("replay: process " + std::to_string(p) +
                     " read an action belonging to process " +
                     std::to_string(a.pid));
    const double start = engine.now();
    switch (a.type) {
      case ActionType::compute:
        co_await rank.compute(a.volume, efficiency);
        break;
      case ActionType::send:
        co_await rank.send(a.partner, as_bytes(a.volume), 0);
        break;
      case ActionType::isend:
        pending.push_back(rank.isend(a.partner, as_bytes(a.volume), 0));
        break;
      case ActionType::recv:
        co_await rank.recv(a.partner, as_bytes(a.volume), 0);
        break;
      case ActionType::irecv:
        pending.push_back(rank.irecv(a.partner, as_bytes(a.volume), 0));
        break;
      case ActionType::wait:
        co_await rank.wait(pop_request(pending, p));
        break;
      case ActionType::waitall:
        while (!pending.empty()) co_await rank.wait(pop_request(pending, p));
        break;
      case ActionType::barrier:
        co_await rank.barrier();
        break;
      case ActionType::bcast:
        co_await rank.bcast(as_bytes(a.volume), 0);
        break;
      case ActionType::reduce:
        co_await rank.reduce(as_bytes(a.volume), a.volume2, 0);
        break;
      case ActionType::allreduce:
        co_await rank.allreduce(as_bytes(a.volume), a.volume2);
        break;
      case ActionType::gather:
        co_await rank.gather(as_bytes(a.volume), 0);
        break;
      case ActionType::allgather:
        co_await rank.allgather(as_bytes(a.volume));
        break;
      case ActionType::alltoall:
        co_await rank.alltoall(as_bytes(a.volume));
        break;
      case ActionType::comm_size:
        if (a.comm_size != rank.size())
          throw SimError("replay: trace declares comm_size " +
                         std::to_string(a.comm_size) +
                         " but the deployment has " +
                         std::to_string(rank.size()) + " processes");
        break;
    }
    ++result.actions_replayed;
    if (spec.config.record_timed_trace)
      result.timed_trace.push_back(TimedAction{p, a, start, engine.now()});
  }
  if (!pending.empty())
    log::warn("replay: process ", p, " finished with ", pending.size(),
              " pending request(s)");
  result.process_finish_times[static_cast<std::size_t>(p)] = engine.now();
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

  // The recorder is constructed (and stored into the result) before the
  // engine and world: deadlocked rank frames close their open spans from
  // OpScope destructors during World teardown, so it must outlive both.
  std::shared_ptr<obs::Recorder> owned_recorder;
  if (spec.config.record_spans) {
    owned_recorder =
        std::make_shared<obs::Recorder>(spec.config.span_activity_detail);
    result.spans = owned_recorder;
  }

  // Every mutable piece of the simulation lives below this line, scoped to
  // this call: the engine (event heaps, route cache, fluid state) and the
  // MPI world (matching queues); each replay actor's pending requests live
  // in its own frame.
  sim::Engine engine(*spec.platform,
                     sim::EngineConfig{.full_solve = spec.config.full_solve,
                                       .recorder = owned_recorder.get()});
  mpi::World world(engine, spec.process_hosts, spec.config.mpi);

  result.process_finish_times.assign(static_cast<std::size_t>(nprocs), 0.0);

  for (int p = 0; p < nprocs; ++p)
    world.launch_rank(p, [&spec, p, &result](mpi::Rank& rank) {
      return replay_process(spec, p, rank, result);
    });

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
    // Suspended rank bodies hold guards into `world`, which unwinds before
    // `engine`. Drop the frames while it lives.
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
  // here is a clean "failed" report with zero coverage. The count is only a
  // failed replay's coverage divisor: action_count forces the decode, or
  // reads the streaming index, without walking the actions.
  std::uint64_t total_actions = 0;
  try {
    for (int pid = 0; pid < spec.traces.nprocs(); ++pid)
      total_actions += spec.traces.action_count(pid);
  } catch (const std::exception& e) {
    report.error = e.what();
    return report;
  }

  try {
    run_scenario_into(spec, report.result);
    report.status = ReplayStatus::ok;
    report.sim_time = report.result.simulated_time;
    report.coverage = 1.0;
    return report;
  } catch (const DeadlockError& e) {
    report.status = ReplayStatus::deadlock;
    report.sim_time = e.sim_time();
    report.error = e.what();
    report.diagnostics = e.blocked();
  } catch (const std::exception& e) {
    report.error = e.what();
  } catch (...) {
    report.error = "unknown exception";
  }
  if (total_actions > 0)
    report.coverage = static_cast<double>(report.result.actions_replayed) /
                      static_cast<double>(total_actions);
  return report;
}

}  // namespace tir::replay
