// tir-validate — check time-independent traces before replaying them.
//
// Usage:
//   tir-validate TRACE...                 one file per process
//   tir-validate --merged N TRACE         one merged file, N processes
//   tir-validate --lenient TRACE...       salvage corrupt files (keep each
//                                         file's clean prefix) and report
//                                         the globally consistent cut
//   tir-validate --json ...               machine-readable report
//
// Exit status: 0 = trace is well-formed (warnings allowed), 1 = validation
// errors found, 2 = usage or I/O problem.
#include <cstdio>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "trace/trace_set.hpp"
#include "trace/validate.hpp"

using namespace tir;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--lenient] [--merged N] TRACE...\n",
               argv0);
  std::exit(2);
}

int parse_int_flag(const char* argv0, const std::string& text) {
  try {
    std::size_t pos = 0;
    const int value = std::stoi(text, &pos);
    if (pos != text.size() || value <= 0) throw std::invalid_argument("bad");
    return value;
  } catch (const std::exception&) {
    std::fprintf(stderr, "error: invalid process count '%s'\n", text.c_str());
    usage(argv0);
  }
}

int run(int argc, char** argv) {
  bool json = false;
  bool lenient = false;
  int merged_nprocs = 0;
  std::vector<std::filesystem::path> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--lenient") {
      lenient = true;
    } else if (arg == "--merged") {
      if (i + 1 >= argc) usage(argv[0]);
      merged_nprocs = parse_int_flag(argv[0], argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
    } else {
      files.emplace_back(arg);
    }
  }
  if (files.empty()) usage(argv[0]);
  if (merged_nprocs > 0 && files.size() != 1) {
    std::fprintf(stderr, "error: --merged takes exactly one trace file\n");
    return 2;
  }

  const auto mode =
      lenient ? trace::DecodeMode::lenient : trace::DecodeMode::strict;
  const trace::TraceSet traces =
      merged_nprocs > 0
          ? trace::TraceSet::merged_file(files.front(), merged_nprocs, mode)
          : trace::TraceSet::per_process_files(files, mode);

  const trace::ValidateReport report = trace::validate(traces);
  const double decode_coverage = traces.coverage();

  if (lenient) {
    const trace::ConsistentCut cut = trace::truncate_consistent(traces);
    if (json) {
      std::printf("{\"validate\": %s, \"decode_coverage\": %.6f, "
                  "\"cut\": {\"kept\": [",
                  report.to_json().c_str(), decode_coverage);
      for (std::size_t p = 0; p < cut.kept.size(); ++p)
        std::printf("%s%llu", p ? ", " : "",
                    static_cast<unsigned long long>(cut.kept[p]));
      std::printf("], \"dropped\": %llu, \"coverage\": %.6f}}\n",
                  static_cast<unsigned long long>(cut.dropped),
                  cut.coverage);
    } else {
      std::printf("%s", report.render().c_str());
      std::printf("decode coverage:  %.1f%% of trace bytes\n",
                  100.0 * decode_coverage);
      std::printf("consistent cut:   kept %llu of %llu action(s) (%.1f%%)\n",
                  static_cast<unsigned long long>(cut.total - cut.dropped),
                  static_cast<unsigned long long>(cut.total),
                  100.0 * cut.coverage);
      for (const auto& s : traces.salvage_report())
        if (!s.complete)
          std::printf("salvaged:         %s\n", s.error.c_str());
    }
  } else if (json) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::printf("%s", report.render().c_str());
  }
  return report.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
