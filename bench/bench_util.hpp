// Shared plumbing for the benchmark binaries.
//
// Every bench reproduces one table or figure of the paper. By default the
// LU instances run a documented fraction of their iterations so the whole
// suite finishes in minutes on a laptop:
//   TIR_SCALE=<0..1>  iteration fraction (default 0.1)
//   TIR_FULL=1        paper-scale instances (TIR_SCALE=1)
// Simulated times scale accordingly; the *shapes* the paper reports
// (ratios, trends, crossovers) are scale-invariant, which is what
// EXPERIMENTS.md compares.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>

namespace tir::bench {

inline double scale() {
  if (const char* full = std::getenv("TIR_FULL");
      full != nullptr && std::string(full) == "1")
    return 1.0;
  if (const char* s = std::getenv("TIR_SCALE"); s != nullptr) {
    const double v = std::atof(s);
    if (v > 0.0 && v <= 1.0) return v;
  }
  return 0.1;
}

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The shortest wall time, in seconds, of `runs` calls of `fn`.
template <typename F>
double best_of(int runs, F&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < runs; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

inline std::filesystem::path fresh_workdir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tir_bench_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

inline void banner(const char* title, const std::string& notes) {
  std::printf("\n============================================================"
              "====================\n%s\n", title);
  if (!notes.empty()) std::printf("%s\n", notes.c_str());
  std::printf("=============================================================="
              "==================\n");
}

struct WorkdirGuard {
  std::filesystem::path dir;
  explicit WorkdirGuard(std::filesystem::path d) : dir(std::move(d)) {}
  ~WorkdirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

}  // namespace tir::bench
