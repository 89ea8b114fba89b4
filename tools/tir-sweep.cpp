// tir-sweep — replay many scenarios from one list file (the Table 2 /
// what-if workload as a single command).
//
// Usage:
//   tir-sweep [--workers N] [--format csv|json] [--output FILE] [--obs] LIST
//
// --obs records the span timeline for every scenario and appends per-rank
// average compute / p2p / wait / collective seconds to each result row.
//
// The list format (key=value pairs, `default` lines, path caching) is
// documented in tools/sweep_list.hpp. Beyond the deterministic keys, a row
// may carry a stochastic envelope:
//
//   perturb=hostnoise:0.05,bwnoise:0.02   platform variability model
//   mc=100                                Monte-Carlo replica count
//   seed=42                               sweep seed (default 1)
//
// A row with mc=N expands into N replica rows (name#r0 .. name#rN-1), each
// replaying a concrete fault timeline derived deterministically from
// (seed, replica) — plus the unperturbed name#baseline row. A row with
// perturb= but no mc= replays replica 0 only (one deterministic perturbed
// row). For aggregated mean/CI/sensitivity over the replicas, use tir-mc
// over the same list.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "replay/perturb.hpp"
#include "replay/sweep.hpp"
#include "serve/scenario_build.hpp"
#include "serve/trace_cache.hpp"
#include "support/strings.hpp"
#include "sweep_list.hpp"

using namespace tir;
using str::json_escape;
namespace fs = std::filesystem;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workers N] [--format csv|json] [--output FILE] "
               "[--obs] SCENARIOS.list\n"
               "see the header of tools/sweep_list.hpp for the list format\n",
               argv0);
  std::exit(2);
}

/// Expands the parsed entries into the flat scenario vector the runner
/// consumes: deterministic rows pass through; perturbed rows bake their
/// replica fault timelines through the same serve::bake_replica the daemon
/// uses for replica= requests.
std::vector<replay::ScenarioSpec> expand_entries(
    const std::vector<tools::SweepEntry>& entries) {
  std::vector<replay::ScenarioSpec> scenarios;
  for (const tools::SweepEntry& entry : entries) {
    if (!entry.has_perturb || entry.perturb.empty()) {
      scenarios.push_back(entry.spec);
      continue;
    }
    const int replicas = entry.mc > 0 ? entry.mc : 1;
    for (int r = 0; r < replicas; ++r)
      scenarios.push_back(serve::bake_replica(entry, r));
    if (entry.mc > 0) {
      replay::ScenarioSpec spec = entry.spec;
      spec.name = entry.spec.name + "#baseline";
      scenarios.push_back(std::move(spec));
    }
  }
  return scenarios;
}

/// Per-rank averages over the recorded span totals (the --obs columns).
struct ObsAverages {
  double compute = 0.0, p2p = 0.0, wait = 0.0, collective = 0.0;
};

ObsAverages obs_averages(const obs::Recorder& recorder) {
  const obs::TimelineReport report = obs::analyze(recorder);
  ObsAverages avg;
  if (report.ranks.empty()) return avg;
  for (const auto& r : report.ranks) {
    avg.compute += r.compute;
    avg.p2p += r.p2p;
    avg.wait += r.wait;
    avg.collective += r.collective;
  }
  const double n = static_cast<double>(report.ranks.size());
  avg.compute /= n;
  avg.p2p /= n;
  avg.wait /= n;
  avg.collective /= n;
  return avg;
}

/// One CSV cell: deadlock messages carry commas and newlines, so flatten
/// them rather than quoting (keeps the output trivially line-parseable).
std::string csv_cell(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '\n')
      out += "; ";
    else if (c == ',')
      out += ';';
    else
      out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string list_arg, format = "csv", output;
  bool want_obs = false;
  replay::SweepOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workers") {
      const std::string n = next();
      try {
        options.workers = tools::parse_int("--workers", n);
      } catch (const Error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage(argv[0]);
      }
    } else if (arg == "--format") {
      format = next();
      if (format != "csv" && format != "json") usage(argv[0]);
    } else if (arg == "--output") {
      output = next();
    } else if (arg == "--obs") {
      want_obs = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
    } else if (list_arg.empty()) {
      list_arg = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (list_arg.empty()) usage(argv[0]);

  try {
    const fs::path list_file(list_arg);
    serve::TraceCache trace_cache;
    std::vector<replay::ScenarioSpec> scenarios =
        expand_entries(tools::load_sweep_list(list_file, trace_cache));
    if (want_obs)
      for (auto& spec : scenarios) spec.config.record_spans = true;

    const replay::SweepRunner runner(options);
    const serve::TraceCacheStats tstats = trace_cache.stats();
    std::fprintf(stderr,
                 "tir-sweep: %zu scenario(s) on %d worker(s); traces: "
                 "%llu decode(s), %llu cache hit(s), %llu content dedup(s)\n",
                 scenarios.size(), runner.effective_workers(scenarios.size()),
                 static_cast<unsigned long long>(tstats.misses),
                 static_cast<unsigned long long>(tstats.hits),
                 static_cast<unsigned long long>(tstats.dedups));
    const auto results = runner.run(scenarios);

    std::ostringstream os;
    if (format == "csv") {
      os << "name,platform,status,processes,actions_replayed,simulated_time,"
            "coverage,error";
      if (want_obs) os << ",avg_compute,avg_p2p,avg_wait,avg_collective";
      os << '\n';
      for (const auto& r : results) {
        os << r.name << ',' << csv_cell(r.platform) << ','
           << replay::to_string(r.status) << ','
           << r.replay.process_finish_times.size() << ','
           << r.replay.actions_replayed << ',';
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.9f", r.replay.simulated_time);
        os << (r.ok ? buf : "") << ',';
        std::snprintf(buf, sizeof buf, "%.6f", r.coverage);
        os << buf << ',' << (r.ok ? "" : csv_cell(r.error));
        if (want_obs) {
          if (r.replay.spans) {
            const ObsAverages avg = obs_averages(*r.replay.spans);
            for (const double v :
                 {avg.compute, avg.p2p, avg.wait, avg.collective}) {
              std::snprintf(buf, sizeof buf, "%.9f", v);
              os << ',' << buf;
            }
          } else {
            os << ",,,,";
          }
        }
        os << '\n';
      }
    } else {
      os << "[\n";
      for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6f", r.coverage);
        os << "  {\"name\": \"" << json_escape(r.name) << "\", \"platform\": \""
           << json_escape(r.platform) << "\", \"ok\": "
           << (r.ok ? "true" : "false") << ", \"status\": \""
           << replay::to_string(r.status) << "\", \"coverage\": " << buf;
        if (r.ok) {
          std::snprintf(buf, sizeof buf, "%.9f", r.replay.simulated_time);
          os << ", \"processes\": " << r.replay.process_finish_times.size()
             << ", \"actions_replayed\": " << r.replay.actions_replayed
             << ", \"simulated_time\": " << buf;
          if (want_obs && r.replay.spans) {
            const ObsAverages avg = obs_averages(*r.replay.spans);
            const auto field = [&](const char* key, double v) {
              std::snprintf(buf, sizeof buf, "%.9f", v);
              os << ", \"" << key << "\": " << buf;
            };
            field("avg_compute", avg.compute);
            field("avg_p2p", avg.p2p);
            field("avg_wait", avg.wait);
            field("avg_collective", avg.collective);
          }
        } else {
          os << ", \"error\": \"" << json_escape(r.error) << "\"";
          if (!r.diagnostics.empty()) {
            os << ", \"diagnostics\": [";
            for (std::size_t d = 0; d < r.diagnostics.size(); ++d)
              os << (d ? ", " : "") << "\"" << json_escape(r.diagnostics[d])
                 << "\"";
            os << "]";
          }
        }
        os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
      }
      os << "]\n";
    }

    if (output.empty()) {
      std::fputs(os.str().c_str(), stdout);
    } else {
      std::ofstream out(output);
      if (!out) throw IoError("cannot write '" + output + "'");
      out << os.str();
    }

    // Any failed scenario fails the sweep — a mid-list deadlock must not
    // exit 0 just because the remaining rows came out fine.
    std::size_t failed = 0;
    for (const auto& r : results)
      if (!r.ok) ++failed;
    if (failed > 0) {
      std::fprintf(stderr, "error: %zu of %zu scenario(s) failed\n", failed,
                   results.size());
      return 1;
    }
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
  return 0;
}
