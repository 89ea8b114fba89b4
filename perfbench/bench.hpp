// Shared pieces of the repository benchmark: wall-clock spans recorded
// around calls into each layer, metric collection, and small statistics.
//
// Spans are the benchmark's own: it wraps each call it makes into a layer
// (acquisition, trace, platform, replay, simkern, serve) in a span named
// "<layer>.<call>". Nothing inside the program is instrumented, so an
// untraced run executes exactly the code users run.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One wall-clock interval, in seconds since the tracer's epoch.
struct Span {
  std::string name;            ///< "<layer>.<call>"; layer "bench" = harness
  double start = 0.0;
  double end = 0.0;
  int parent = -1;             ///< index of the enclosing span; -1 = none
  std::uint64_t trace_id = 0;  ///< one per serve request; 0 = none
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per scope. Thread-safe; each thread tracks its own open spans, and
/// a span opened on a fresh thread names its parent explicitly.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t trace_id,
          int parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int index() const { return index_; }

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Opens a span whose parent is the innermost span open on this thread,
  /// or `parent` when given (>= 0).
  Scope span(std::string name, std::uint64_t trace_id = 0, int parent = -1) {
    return Scope(*this, std::move(name), trace_id, parent);
  }

  std::vector<Span> spans() const;

  /// Self time per layer: each span's duration minus the part of it that
  /// its child spans cover, summed by the name's layer prefix.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Share of span `root`'s interval covered by layer spans (every span
  /// whose layer is not "bench").
  double layer_coverage(int root) const;

  void write_json(const std::filesystem::path& path) const;

 private:
  int open(std::string name, std::uint64_t trace_id, int parent);
  void close(int index);

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics in insertion order (the order they print in).
using Metrics = std::vector<std::pair<std::string, Metric>>;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path workdir;   ///< scratch space, removed afterwards
  std::filesystem::path spans_out; ///< traced runs write their spans here
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

/// Runs one named workload; throws std::invalid_argument on unknown names.
RunResult run_workload(const RunOptions& options, Tracer& tracer);

struct ChurnResult {
  double ns_per_op = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t changed = 0;  ///< variables solve_changed() reported
};

/// Solver churn micro benchmark (sim::MaxMin public API). One op removes a
/// variable, adds one on the same resource and calls solve_changed().
/// `shared`: 1024 variables on one saturated resource; otherwise 128
/// disjoint components of 8 variables. Every op moves at least the added
/// variable's rate, so `changed < ops` means the solver skipped work.
ChurnResult maxmin_churn(bool shared, std::uint64_t seed, double seconds);

/// Builds the host speed probe's data (host_probe.cpp) for `threads`
/// threads probing at once; returns the resident MiB it added, which the
/// reported peak_rss_mib leaves out.
double host_probe_build(int threads);

/// Seconds one pass of the probe takes on this host now: the mean of a
/// dozen passes on each probe thread, averaged over the threads.
double host_probe_seconds();

// -- statistics ---------------------------------------------------------------

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set (VmHWM) of this process, MiB; 0 when unavailable.
double peak_rss_mib();

/// Resident set (VmRSS) of this process now, MiB; 0 when unavailable.
double resident_mib();

}  // namespace perfbench
