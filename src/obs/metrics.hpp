// Wall-clock service metrics: counters and log-bucketed duration histograms.
//
// The span recorder in this layer explains *simulated* time; the serving
// layer (src/serve/) also needs cheap wall-clock telemetry — queue waits,
// decode and solve latencies, hit/miss counts — aggregated over millions of
// requests without keeping them all. A Histogram is a fixed array of
// buckets: octaves from 1 µs, each split into 8 linear sub-buckets, so
// record() is a couple of arithmetic ops and percentile() answers "p99
// latency" to within 12.5% above the true value. Plain data, externally
// synchronised: the service mutates its metrics under the same lock that
// guards its queues.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace tir::obs {

class Histogram {
 public:
  /// Folds one duration (seconds) into the distribution.
  void record(double seconds);

  std::uint64_t count() const { return count_; }
  double total() const { return total_; }
  double max() const { return max_; }
  double mean() const { return count_ == 0 ? 0.0 : total_ / count_; }

  /// Upper bound of the bucket holding the p-quantile (p in [0, 1]), at
  /// most 12.5% above it from 1 µs up; exact max for p >= 1 - 1/count.
  /// 0 when empty.
  double percentile(double p) const;

  /// "n=1000 mean=1.2ms p50=900us p90=2.1ms p99=4.3ms max=8.7ms"
  std::string summary() const;

 private:
  // Bucket 0 is < 1us. Octave j >= 1 covers [1us * 2^(j-1), 1us * 2^j) in
  // kSubBuckets equal parts; bucket 1 + (j-1) * kSubBuckets + k is part k.
  static constexpr std::size_t kOctaves = 47;
  static constexpr std::size_t kSubBuckets = 8;
  static constexpr std::size_t kBuckets = 1 + kOctaves * kSubBuckets;
  static std::size_t bucket_for(double seconds);
  static double bucket_upper(std::size_t i);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double total_ = 0.0;
  double max_ = 0.0;
};

/// Human-readable seconds with an adaptive unit ("1.2ms", "3.4s").
std::string format_duration(double seconds);

}  // namespace tir::obs
