// tir-traceinfo — inspect / convert time-independent traces.
//
// Usage:
//   tir-traceinfo TRACE...                  print aggregate statistics (a
//                                           directory stands for its
//                                           SG_process<i>.trace files)
//   tir-traceinfo --to-text IN OUT          convert IN to text
//   tir-traceinfo --to-binary IN OUT        convert IN to binary
//   tir-traceinfo --to-compact IN OUT       convert IN to loop-compressed
//                                           compact
// IN may be in any of the three formats (sniffed from its first bytes).
#include <cstdio>
#include <cstring>
#include <vector>

#include "support/error.hpp"
#include "support/units.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_set.hpp"

using namespace tir;

namespace {

struct Conversion {
  const char* flag;
  trace::TraceFormat format;
};

constexpr Conversion kConversions[] = {
    {"--to-text", trace::TraceFormat::text},
    {"--to-binary", trace::TraceFormat::binary},
    {"--to-compact", trace::TraceFormat::compact},
};

int run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s TRACE... | --to-binary IN OUT | --to-text IN "
                 "OUT | --to-compact IN OUT\n",
                 argv[0]);
    return 2;
  }
  {
    for (const Conversion& c : kConversions) {
      if (std::strcmp(argv[1], c.flag) != 0 || argc != 4) continue;
      // IN goes through the trace pass like every tool's input; text and
      // binary output stream from its cursor.
      const auto in = trace::TraceSet::per_process_files(
          {argv[2]}, trace::DecodeMode::strict, trace::DecodePolicy::stream);
      const auto bytes = trace::convert_trace(in, 0, argv[3], c.format);
      std::printf("wrote %s (%s)\n", argv[3],
                  units::format_bytes(static_cast<double>(bytes)).c_str());
      return 0;
    }
    std::vector<std::filesystem::path> files;
    for (int i = 1; i < argc; ++i) {
      if (argv[i][0] == '-') {
        std::fprintf(stderr, "error: unknown option '%s'\n", argv[i]);
        return 2;
      }
      files.emplace_back(argv[i]);
    }
    const auto set =
        trace::TraceSet::per_process_files(trace::process_trace_files(files));
    const auto stats = set.stats();
    std::printf("processes:      %d\n", set.nprocs());
    std::printf("on disk:        %s\n",
                units::format_bytes(static_cast<double>(set.disk_bytes()))
                    .c_str());
    std::printf("actions:        %llu\n",
                static_cast<unsigned long long>(stats.actions));
    std::printf("  computes:     %llu (%.3g flops total)\n",
                static_cast<unsigned long long>(stats.computes),
                stats.total_flops);
    std::printf("  p2p messages: %llu (%s total)\n",
                static_cast<unsigned long long>(stats.p2p_messages),
                units::format_bytes(stats.total_bytes_sent).c_str());
    std::printf("  collectives:  %llu\n",
                static_cast<unsigned long long>(stats.collectives));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Unreadable or malformed inputs exit 2 with one `error:` line; nothing
  // escapes as an uncaught tir::Error.
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
