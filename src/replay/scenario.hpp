// The scenario layer: one replay = one immutable ScenarioSpec.
//
// The paper's workflow acquires a time-independent trace once and replays
// it many times against different platforms, deployments and MPI configs
// (§5's "wide range of what-if scenarios ... without any modification of
// the simulator"). A ScenarioSpec names exactly the inputs of one such
// replay; everything it references is shared and immutable (Platform via
// shared_ptr, TraceSet handles shared decoded storage), while every piece
// of mutable simulation state — engine heaps, route cache, MPI matching
// queues, each process's pending requests — lives inside run_scenario's
// frame. That is what makes scenarios embarrassingly parallel: see
// sweep.hpp.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "mpisim/mpi.hpp"
#include "obs/recorder.hpp"
#include "platform/platform.hpp"
#include "trace/trace_set.hpp"

namespace tir::replay {

struct ReplayConfig {
  mpi::Config mpi;                    ///< eager threshold, collective algo
  double compute_efficiency = 1.0;    ///< hosts run at calibrated speed
  bool record_timed_trace = false;
  /// Disable the incremental network solver (full re-solve on every change)
  /// — the reference path for differential testing; results must match.
  bool full_solve = false;
  /// Record the span timeline (src/obs/): one span per outermost MPI
  /// operation per rank, message edges, fault events. The run allocates a
  /// Recorder and returns it through ReplayResult::spans. Recording must
  /// not change simulated results — the determinism tests assert it.
  bool record_spans = false;
  /// With record_spans: also record kernel activity detail (every Exec and
  /// Transfer) on per-host tracks. Voluminous; off by default.
  bool span_activity_detail = false;
};

/// One row of the optional timed trace.
struct TimedAction {
  int pid;
  trace::Action action;
  double start;
  double end;
};

struct ReplayResult {
  double simulated_time = 0.0;              ///< makespan
  std::vector<double> process_finish_times; ///< per process
  std::uint64_t actions_replayed = 0;
  sim::EngineStats engine_stats;
  std::vector<TimedAction> timed_trace;     ///< when requested
  /// Span timeline when ReplayConfig::record_spans was set; null otherwise.
  /// Populated even on deadlock/failure — a partial timeline up to the stop
  /// point.
  std::shared_ptr<const obs::Recorder> spans;
};

/// One injected fault event: a host or link degrading at a simulated time,
/// optionally recovering later, optionally repeating (a flap train). The
/// "what does LU look like when one gdx link drops to 100 Mb/s for thirty
/// seconds" workload.
///
/// Semantics — pinned, and regression-tested by the variability suite:
///
///   * Factors are ABSOLUTE RELATIVE TO NOMINAL (1.0 = healthy, 0.1 = a
///     link at a tenth of its pristine bandwidth). Two fault events on the
///     same resource never compound: the later event overwrites the
///     earlier one's factor, so `0.5@0` followed by `0.5@t` is exactly one
///     `0.5@0` fault, not `0.25` from `t` on.
///   * Recovery (`until_time`) restores the factor that was in force when
///     this event activated — nominal in the common case, or the
///     surrounding perturbation's factor when a transient outage fires on
///     an already-perturbed resource.
///   * Activities already running are re-rated on every transition
///     (degradation and healing alike); latency changes apply to transfers
///     started after the transition.
struct FaultSpec {
  enum class Kind { host, link };
  Kind kind = Kind::host;
  double at_time = 0.0;          ///< simulated seconds at which it activates

  /// Simulated time at which the resource recovers (the factor captured at
  /// activation is re-applied). <= at_time (the default 0) means the
  /// degradation is permanent.
  double until_time = 0.0;

  /// Flap train: the degrade/recover cycle fires `repeat` times, cycle i
  /// starting at `at_time + i * period`. repeat > 1 requires a recovery
  /// (`until_time > at_time`) and `period >= until_time - at_time`.
  int repeat = 1;
  double period = 0.0;

  /// Target by platform name (host name or link name); when empty, `id` is
  /// used directly.
  std::string target;
  int id = -1;

  double compute_factor = 1.0;   ///< host faults: power factor (> 0)
  double bandwidth_factor = 1.0; ///< link faults: bandwidth factor (> 0)
  double latency_factor = 1.0;   ///< link faults: latency factor (>= 0)

  bool has_recovery() const { return until_time > at_time; }
};

/// The immutable description of one replay run.
struct ScenarioSpec {
  /// Label carried through sweep rows and CLI tables.
  std::string name;

  /// Where the platform came from — a file path or a topology spec string
  /// ("dragonfly:groups=9,..."). Purely informational: sweep rows and CLI
  /// tables print it so cross-topology rows stay attributable.
  std::string platform_label;

  /// Target platform, shared across scenarios. Use share_platform() to wrap
  /// a stack-owned Platform the caller keeps alive.
  std::shared_ptr<const plat::Platform> platform;

  /// process_hosts[i] hosts process i (Deployment::resolve or any mapping).
  std::vector<int> process_hosts;

  /// Shared handle onto decoded trace storage (copying shares the decode).
  trace::TraceSet traces;

  ReplayConfig config;

  /// Faults injected into this scenario's platform during replay.
  std::vector<FaultSpec> faults;
};

/// Non-owning shared_ptr view of a caller-owned platform (aliasing
/// constructor). The caller must keep `platform` alive past the run.
std::shared_ptr<const plat::Platform> share_platform(
    const plat::Platform& platform);

/// Validates spec.faults against spec.platform without running anything:
/// unknown host/link targets, non-positive factors, inconsistent
/// recovery/flap parameters. Throws SimError naming the scenario (when it
/// has a name) and the offending fault. run_scenario performs the same
/// checks; tools call this at list-parse time so a typo fails fast with a
/// line-attributable message instead of mid-sweep inside a worker.
void validate_faults(const ScenarioSpec& spec);

/// Replays one scenario. Stateless: builds a fresh engine and MPI world per
/// call, so concurrent calls over shared specs are safe. Throws
/// tir::SimError on inconsistent inputs.
ReplayResult run_scenario(const ScenarioSpec& spec);

/// The Figure 4 workflow from files: loads the platform (a platform file or
/// a topology-registry spec), the deployment (a deployment file, "block" or
/// "roundrobin") and the traces (files, or directories standing for their
/// SG_process<i>.trace files), then replays them once.
ReplayResult replay_files(const std::filesystem::path& platform,
                          const std::filesystem::path& deployment,
                          const std::vector<std::filesystem::path>& traces,
                          ReplayConfig config = {});

// -- structured outcome reporting -------------------------------------------

enum class ReplayStatus {
  ok,        ///< every action replayed; sim_time is the makespan
  deadlock,  ///< engine quiesced with blocked ranks; diagnostics name them
  failed,    ///< setup or replay error (bad spec, parse failure, ...)
};

std::string_view to_string(ReplayStatus status);

/// Structured outcome of one replay: status + partial results instead of
/// throw-or-double. A deadlocked replay still reports how far it got
/// (`coverage` = actions replayed / actions in the trace set) and carries
/// one diagnostic line per blocked rank.
struct ReplayReport {
  ReplayStatus status = ReplayStatus::failed;
  double sim_time = 0.0;   ///< makespan (ok) or time progress stopped
  double coverage = 0.0;   ///< fraction of trace actions replayed (1.0 = all)
  std::string error;       ///< exception text when status != ok
  std::vector<std::string> diagnostics;  ///< per-blocked-rank (deadlock)
  ReplayResult result;     ///< full result (partial unless status == ok)

  bool ok() const { return status == ReplayStatus::ok; }
};

/// Replays one scenario and never throws: deadlocks and errors come back as
/// a report, and so does any exception escaping the replay, std or not (a
/// non-std one reads "unknown exception"). This is the isolation every
/// sweep row and every service replay gets.
ReplayReport run_scenario_report(const ScenarioSpec& spec);

}  // namespace tir::replay
