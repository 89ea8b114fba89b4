// Ablation: the three on-disk trace formats — text (the paper's), binary
// (its §7 future work: "reduce the size of the traces, e.g., using a binary
// format") and the compact loop program — on one LU-like action mix.
//
// Each format is written with write_trace and read back through the trace
// pass replay runs: a materialising TraceSet (DecodePolicy::materialise,
// one pass per fresh set) and a streamed cursor drain over an already
// indexed DecodePolicy::stream set; both best of 5.
//
// Asserted (EXPERIMENTS.md): binary takes under half of text's bytes, and
// every format decodes to the same actions under both policies. The rates
// are printed, never asserted. TIR_SCALE scales the sample: 2,000,000
// actions x scale (200,000 by default).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_set.hpp"

using namespace tir;
using trace::Action;
using trace::ActionType;
using trace::TraceFormat;
namespace fs = std::filesystem;

namespace {

constexpr int kRuns = 5;

// A realistic LU-like action mix.
std::vector<Action> sample_actions(int n) {
  std::vector<Action> actions;
  actions.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    switch (i % 5) {
      case 0:
        actions.push_back({7, ActionType::compute, -1, 81920.0 + i % 97, 0, 0});
        break;
      case 1:
        actions.push_back({7, ActionType::recv, 3, 0, 0, 0});
        break;
      case 2:
        actions.push_back({7, ActionType::send, 11, 520, 0, 0});
        break;
      case 3:
        actions.push_back({7, ActionType::irecv, 15, 106080, 0, 0});
        break;
      default:
        actions.push_back({7, ActionType::wait, -1, 0, 0, 0});
        break;
    }
  }
  return actions;
}

std::vector<Action> drain(const trace::TraceSet& set) {
  std::vector<Action> out;
  const auto source = set.open(0);
  while (const auto a = source->next()) out.push_back(*a);
  return out;
}

}  // namespace

int main() {
  const int n = static_cast<int>(2'000'000 * bench::scale());
  bench::banner("Ablation — text vs binary vs compact: size and decode rate",
                std::to_string(n) +
                    " LU-like actions, one file per format; decode through "
                    "the trace pass, best of " +
                    std::to_string(kRuns));
  const auto workdir = bench::fresh_workdir("formats");
  bench::WorkdirGuard guard(workdir);
  const std::vector<Action> actions = sample_actions(n);

  std::printf("%-8s | %11s | %7s | %22s | %18s\n", "format", "bytes",
              "vs text", "materialise ns/action", "cursor ns/action");
  std::uint64_t text_bytes = 0, binary_bytes = 0;
  bool same_actions = true;
  for (const TraceFormat format :
       {TraceFormat::text, TraceFormat::binary, TraceFormat::compact}) {
    const fs::path file =
        workdir / ("sample." + std::string(trace::format_name(format)));
    const std::uint64_t bytes = trace::write_trace(file, actions, 7, format);
    if (format == TraceFormat::text) text_bytes = bytes;
    if (format == TraceFormat::binary) binary_bytes = bytes;

    trace::TraceSet materialised;
    const double materialise_s = bench::best_of(kRuns, [&] {
      materialised = trace::TraceSet::per_process_files(
          {file}, trace::DecodeMode::strict,
          trace::DecodePolicy::materialise);
      (void)materialised.actions(0);
    });
    const auto streamed_set = trace::TraceSet::per_process_files(
        {file}, trace::DecodeMode::strict, trace::DecodePolicy::stream);
    (void)streamed_set.streaming();  // build the index outside the timing
    std::vector<Action> streamed;
    const double cursor_s =
        bench::best_of(kRuns, [&] { streamed = drain(streamed_set); });
    same_actions = same_actions && materialised.actions(0) == actions &&
                   streamed == actions;

    std::printf("%-8s | %11llu | %6.2fx | %22.1f | %18.1f\n",
                std::string(trace::format_name(format)).c_str(),
                static_cast<unsigned long long>(bytes),
                static_cast<double>(text_bytes) / static_cast<double>(bytes),
                materialise_s * 1e9 / n, cursor_s * 1e9 / n);
  }

  bool ok = true;
  if (binary_bytes * 2 >= text_bytes) {
    std::printf("FAIL: binary is %llu bytes, not under half of text's %llu\n",
                static_cast<unsigned long long>(binary_bytes),
                static_cast<unsigned long long>(text_bytes));
    ok = false;
  }
  if (!same_actions) {
    std::printf("FAIL: a format decoded to different actions\n");
    ok = false;
  }
  if (ok)
    std::printf("\nshape: binary < text / 2, all formats decode alike: OK\n");
  return ok ? 0 : 1;
}
