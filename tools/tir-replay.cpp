// tir-replay — the Figure 4 workflow as a command-line tool.
//
// Usage:
//   tir-replay --platform platform.xml --deployment deployment.xml ...
//              trace0 trace1 ... [options]
//
// --platform also accepts a topology-registry spec instead of a file, e.g.
// "dragonfly:groups=9,routers=4,hosts=2" or "fattree:k=8" (see
// src/platform/topology.hpp); --deployment accepts "block" / "roundrobin"
// to derive the process->host mapping instead of reading a file. A trace
// directory stands for its SG_process<i>.trace files in pid order.
//
// Options:
//   --eager-threshold BYTES   eager/rendezvous switch (default 64KiB)
//   --collectives flat|binomial
//   --timed-trace FILE        also write the timed trace
//   --profile                 print a per-action profile
//   --efficiency X            compute-rate scale (default 1.0)
//   --stats                   print engine counters (solver work, events)
//                             and the solver's shape: vars per solve,
//                             re-rates per action, the largest coupled
//                             component and the hub-group counters; warns
//                             on stderr when re-rates per action pass 16
//   --full-solve              disable the incremental network solver
//                             (reference path for differential testing)
//   --timeline                record the span timeline and print its report:
//                             per-rank compute/p2p/wait/collective totals
//                             and the critical path through the span graph
//   --chrome FILE             also write the timeline as Chrome trace-event
//                             JSON (chrome://tracing, Perfetto)
//   --paje FILE               also write the timeline as a Paje trace (Vite,
//                             the format SimGrid's own replayer emits)
//   --detail                  also record kernel activity (per-host tracks:
//                             every Exec/Transfer; voluminous)
// Each of the last three implies --timeline.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/chrome_export.hpp"
#include "obs/paje_export.hpp"
#include "obs/report.hpp"
#include "replay/scenario.hpp"
#include "replay/timed_trace.hpp"
#include "support/error.hpp"
#include "support/units.hpp"

using namespace tir;

namespace {

/// Flow re-rates per replayed action above which --stats warns: the
/// network model is re-rating a large coupled component on every event, as
/// LU class B did at 256 ranks before share groups (373 per action; LU B at
/// 16 to 128 ranks reads 1.0 to 9.4, and at 256 ranks with share groups
/// 2.1).
constexpr double kRerateWarning = 16.0;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --platform FILE|TOPOSPEC "
               "--deployment FILE|block|roundrobin TRACE...|TRACEDIR \n"
               "  [--eager-threshold BYTES] [--collectives flat|binomial]\n"
               "  [--timed-trace FILE] [--profile] [--efficiency X]\n"
               "  [--stats] [--full-solve]\n"
               "  [--timeline] [--chrome FILE] [--paje FILE] [--detail]\n",
               argv0);
  std::exit(2);
}

double parse_double_flag(const std::string& flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing text");
    return value;
  } catch (const std::exception&) {
    throw ParseError("invalid value '" + text + "' for " + flag);
  }
}

int run(int argc, char** argv) {
  std::string platform_file, deployment_file, timed_file, chrome_file,
      paje_file;
  std::vector<std::filesystem::path> traces;
  replay::ReplayConfig config;
  bool want_profile = false;
  bool want_stats = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--platform") {
      platform_file = next();
    } else if (arg == "--deployment") {
      deployment_file = next();
    } else if (arg == "--eager-threshold") {
      config.mpi.eager_threshold = units::parse_bytes(next());
    } else if (arg == "--collectives") {
      const std::string algo = next();
      if (algo == "flat") {
        config.mpi.collectives = mpi::CollectiveAlgo::flat;
      } else if (algo == "binomial") {
        config.mpi.collectives = mpi::CollectiveAlgo::binomial;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--timed-trace") {
      timed_file = next();
      config.record_timed_trace = true;
    } else if (arg == "--profile") {
      want_profile = true;
      config.record_timed_trace = true;
    } else if (arg == "--efficiency") {
      config.compute_efficiency = parse_double_flag("--efficiency", next());
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg == "--full-solve") {
      config.full_solve = true;
    } else if (arg == "--timeline") {
      config.record_spans = true;
    } else if (arg == "--chrome") {
      chrome_file = next();
      config.record_spans = true;
    } else if (arg == "--paje") {
      paje_file = next();
      config.record_spans = true;
    } else if (arg == "--detail") {
      config.span_activity_detail = true;
      config.record_spans = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
    } else {
      traces.emplace_back(arg);
    }
  }
  if (platform_file.empty() || deployment_file.empty() || traces.empty())
    usage(argv[0]);

  const auto result =
      replay::replay_files(platform_file, deployment_file, traces, config);
  std::printf("processes:        %zu\n", result.process_finish_times.size());
  std::printf("actions replayed: %llu\n",
              static_cast<unsigned long long>(result.actions_replayed));
  std::printf("simulated time:   %.6f s\n", result.simulated_time);
  if (result.spans)
    std::printf("spans recorded:   %llu (%zu edges, %zu faults)\n",
                static_cast<unsigned long long>(result.spans->total_spans()),
                result.spans->edges().size(), result.spans->faults().size());
  if (!timed_file.empty()) {
    replay::write_timed_trace(result.timed_trace, timed_file);
    std::printf("timed trace:      %s (%zu rows)\n", timed_file.c_str(),
                result.timed_trace.size());
  }
  if (want_stats) {
    const auto& st = result.engine_stats;
    const auto u64 = [](std::uint64_t v) {
      return static_cast<unsigned long long>(v);
    };
    std::printf("\nengine stats:\n");
    std::printf("  coroutine resumes:      %llu\n", u64(st.resumes));
    std::printf("  activities created:     %llu\n", u64(st.activities));
    std::printf("  timed heap events:      %llu\n", u64(st.heap_events));
    std::printf("  network solver calls:   %llu\n", u64(st.solver_calls));
    std::printf("  solver vars touched:    %llu\n",
                u64(st.solver_vars_touched));
    std::printf("  max component size:     %llu\n",
                u64(st.solver_component_size_max));
    std::printf("  flows re-rated:         %llu\n", u64(st.flows_rerated));
    std::printf("  hub solves:             %llu\n", u64(st.solver_hub_solves));
    std::printf("  large fills:            %llu\n",
                u64(st.solver_large_fills));
    std::printf("  group re-rates:         %llu\n", u64(st.groups_rerated));
    std::printf("  hub entries / exits:    %llu / %llu\n", u64(st.hub_entries),
                u64(st.hub_exits));

    // The solver's shape, with the max component size above: what exposed
    // the 256-rank cliff. A group re-rate counts as one re-rate, and the hub
    // share is over the solves that met a large coupled component (answered
    // by a group or filled).
    const auto per = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    const double rerates =
        per(static_cast<double>(st.flows_rerated + st.groups_rerated),
            static_cast<double>(result.actions_replayed));
    std::printf("\nsolver shape:\n");
    std::printf("  vars per solve:         %.2f\n",
                per(static_cast<double>(st.solver_vars_touched),
                    static_cast<double>(st.solver_calls)));
    std::printf("  re-rates per action:    %.3f\n", rerates);
    std::printf("  hub share of coupled:   %.1f%%\n",
                100.0 * per(static_cast<double>(st.solver_hub_solves),
                            static_cast<double>(st.solver_hub_solves +
                                                st.solver_large_fills)));
    if (rerates > kRerateWarning)
      std::fprintf(stderr,
                   "warning: %.1f flow re-rates per action (threshold %.0f): "
                   "a large coupled component is re-solved on every event\n",
                   rerates, kRerateWarning);
  }
  if (result.spans) {
    const obs::TimelineReport report = obs::analyze(*result.spans);
    std::printf("\n%s", report.render().c_str());
    if (!chrome_file.empty()) {
      obs::write_chrome_trace_file(*result.spans, chrome_file);
      std::printf("\nchrome trace:     %s\n", chrome_file.c_str());
    }
    if (!paje_file.empty()) {
      obs::write_paje_trace_file(*result.spans, paje_file);
      std::printf("%spaje trace:       %s\n", chrome_file.empty() ? "\n" : "",
                  paje_file.c_str());
    }
  }
  if (want_profile) {
    const auto profile = replay::Profile::from_timed_trace(result.timed_trace);
    std::printf("\n%s", profile.render().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Input problems (unreadable files, malformed traces, bad flag values)
  // exit 2; simulation failures (deadlock, bad deployment) exit 1. Either
  // way: one `error:` line on stderr, never an uncaught exception.
  try {
    return run(argc, argv);
  } catch (const IoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const ParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
