// tir-timeline — replay once, render the per-rank simulated timeline.
//
// Runs the Figure 4 replay workflow with the observability recorder on and
// prints the in-memory report (per-rank compute/p2p/wait/collective totals
// and the critical path through the recorded span graph). Optionally dumps
// the timeline as Chrome trace-event JSON (chrome://tracing, Perfetto) or
// as a Paje trace (Vite — the format SimGrid's own replayer emits).
//
// Usage:
//   tir-timeline --platform platform.xml --deployment deployment.xml
//                trace0 trace1 ... [options]
//
// --platform also accepts a topology-registry spec ("torus:dims=4x4x4") and
// --deployment the derived mappings "block" / "roundrobin", exactly like
// tir-replay — handy for comparing critical paths across topologies.
//
// Options:
//   --chrome FILE             write a Chrome trace-event JSON file
//   --paje FILE               write a Paje trace file
//   --detail                  also record kernel activity (per-host tracks:
//                             every Exec/Transfer; voluminous)
//   --path-rows N             critical-path rows to print (default 20)
//   --eager-threshold BYTES   eager/rendezvous switch (default 64KiB)
//   --collectives flat|binomial
//   --efficiency X            compute-rate scale (default 1.0)
#include <cstdio>
#include <string>
#include <vector>

#include "obs/chrome_export.hpp"
#include "obs/paje_export.hpp"
#include "obs/report.hpp"
#include "replay/replayer.hpp"
#include "support/error.hpp"
#include "support/units.hpp"

using namespace tir;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --platform FILE|TOPOSPEC "
               "--deployment FILE|block|roundrobin TRACE...|TRACEDIR \n"
               "  [--chrome FILE] [--paje FILE] [--detail] [--path-rows N]\n"
               "  [--eager-threshold BYTES] [--collectives flat|binomial]\n"
               "  [--efficiency X]\n",
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
  std::string platform_file, deployment_file, chrome_file, paje_file;
  std::vector<std::filesystem::path> traces;
  replay::ReplayConfig config;
  config.record_spans = true;
  std::size_t path_rows = 20;

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
    } else if (arg == "--chrome") {
      chrome_file = next();
    } else if (arg == "--paje") {
      paje_file = next();
    } else if (arg == "--detail") {
      config.span_activity_detail = true;
    } else if (arg == "--path-rows") {
      path_rows = static_cast<std::size_t>(
          parse_double_flag("--path-rows", next()));
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
    } else if (arg == "--efficiency") {
      config.compute_efficiency = parse_double_flag("--efficiency", next());
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
  if (!result.spans) throw SimError("replay returned no span timeline");
  const obs::Recorder& recorder = *result.spans;

  std::printf("processes:        %zu\n", result.process_finish_times.size());
  std::printf("actions replayed: %llu\n",
              static_cast<unsigned long long>(result.actions_replayed));
  std::printf("simulated time:   %.6f s\n", result.simulated_time);
  std::printf("spans recorded:   %llu (%zu edges, %zu faults)\n",
              static_cast<unsigned long long>(recorder.total_spans()),
              recorder.edges().size(), recorder.faults().size());

  const obs::TimelineReport report = obs::analyze(recorder);
  std::printf("\n%s", report.render(path_rows).c_str());

  if (!chrome_file.empty()) {
    obs::write_chrome_trace_file(recorder, chrome_file);
    std::printf("\nchrome trace:     %s\n", chrome_file.c_str());
  }
  if (!paje_file.empty()) {
    obs::write_paje_trace_file(recorder, paje_file);
    std::printf("%spaje trace:       %s\n", chrome_file.empty() ? "\n" : "",
                paje_file.c_str());
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
