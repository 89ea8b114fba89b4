// tir-mc — Monte-Carlo summary mode over a scenario list: replica fan-out,
// mean / stddev / 95% CI per scenario, and a per-resource sensitivity
// ranking (which host or link perturbation moves the makespan most).
//
// Usage:
//   tir-mc [--workers N] [--replicas N] [--seed S] [--format table|csv]
//          [--output FILE] [--top K] SCENARIOS.list
//
// Reads the same list format as tir-sweep (tools/sweep_list.hpp). Every
// row needs a perturb= model (its own or inherited from a `default` line);
// mc= / seed= on a row override --replicas / --seed. Where tir-sweep
// prints one row per replica, tir-mc aggregates: the deterministic
// baseline point next to the Monte-Carlo distribution — the Fig 8 error
// bar the paper's single-calibration replay cannot produce — plus the
// sensitivity table cross-checkable against the critical path that
// tir-replay --timeline prints.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "replay/montecarlo.hpp"
#include "sweep_list.hpp"

using namespace tir;
namespace fs = std::filesystem;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workers N] [--replicas N] [--seed S] "
               "[--format table|csv] [--output FILE] [--top K] "
               "SCENARIOS.list\n"
               "see the header of tools/sweep_list.hpp for the list format\n",
               argv0);
  std::exit(2);
}

std::string csv_cell(const std::string& s) {
  std::string out;
  for (const char c : s) out += (c == ',' || c == '\n') ? ';' : c;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string list_arg, format = "table", output;
  int replicas = 32;
  std::uint64_t seed = 1;
  bool seed_given = false;
  int workers = 0;
  std::size_t top = 5;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    try {
      if (arg == "--workers") {
        workers = tools::parse_int("--workers", next());
      } else if (arg == "--replicas") {
        replicas = tools::parse_int("--replicas", next());
        if (replicas < 1) usage(argv[0]);
      } else if (arg == "--seed") {
        seed = tools::parse_u64("--seed", next());
        seed_given = true;
      } else if (arg == "--top") {
        top = static_cast<std::size_t>(tools::parse_int("--top", next()));
      } else if (arg == "--format") {
        format = next();
        if (format != "table" && format != "csv") usage(argv[0]);
      } else if (arg == "--output") {
        output = next();
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
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      usage(argv[0]);
    }
  }
  if (list_arg.empty()) usage(argv[0]);

  try {
    const auto entries = tools::load_sweep_list(fs::path(list_arg));

    std::ostringstream os;
    if (format == "csv")
      os << "name,replicas,failures,baseline,mean,stddev,ci95,min,max,"
            "top_sensitivity,top_impact\n";

    bool any_failure = false;
    for (const tools::SweepEntry& entry : entries) {
      if (!entry.has_perturb || entry.perturb.empty())
        throw Error("scenario '" + entry.spec.name +
                    "': tir-mc needs a perturb= model on every row");
      replay::McOptions opts;
      opts.replicas = entry.mc > 0 ? entry.mc : replicas;
      opts.seed = seed_given ? seed : entry.seed;
      opts.workers = workers;
      std::fprintf(stderr, "tir-mc: %s — %d replica(s), seed %llu\n",
                   entry.spec.name.c_str(), opts.replicas,
                   static_cast<unsigned long long>(opts.seed));
      const replay::McSummary summary =
          replay::run_monte_carlo(entry.spec, entry.perturb, opts);
      if (summary.failures > 0) any_failure = true;

      if (format == "table") {
        os << summary.render(top) << '\n';
      } else {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%.9f,%.9f,%.9f,%.9f,%.9f,%.9f", summary.baseline,
                      summary.mean, summary.stddev, summary.ci95, summary.min,
                      summary.max);
        os << csv_cell(summary.name) << ',' << summary.replicas << ','
           << summary.failures << ',' << buf << ',';
        if (!summary.sensitivity.empty()) {
          const auto& e = summary.sensitivity.front();
          std::snprintf(buf, sizeof buf, "%.9f", e.impact);
          os << (e.kind == replay::FaultSpec::Kind::host ? "host:" : "link:")
             << csv_cell(e.name) << ',' << buf;
        } else {
          os << ',';
        }
        os << '\n';
      }
    }

    if (output.empty()) {
      std::fputs(os.str().c_str(), stdout);
    } else {
      std::ofstream out(output);
      if (!out) throw IoError("cannot write '" + output + "'");
      out << os.str();
    }
    if (any_failure) {
      std::fprintf(stderr, "error: some replicas failed\n");
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
