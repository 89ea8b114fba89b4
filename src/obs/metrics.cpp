#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tir::obs {

namespace {

constexpr double kBase = 1e-6;  // 1 us

}  // namespace

std::size_t Histogram::bucket_for(double seconds) {
  if (seconds < kBase) return 0;
  // seconds / kBase = m * 2^e with m in [0.5, 1): octave e, part
  // floor((2m - 1) * kSubBuckets).
  int e = 0;
  const double m = std::frexp(seconds / kBase, &e);
  if (static_cast<std::size_t>(e) > kOctaves) return kBuckets - 1;
  const auto part = std::min(
      static_cast<std::size_t>((2.0 * m - 1.0) * kSubBuckets),
      kSubBuckets - 1);
  return 1 + static_cast<std::size_t>(e - 1) * kSubBuckets + part;
}

double Histogram::bucket_upper(std::size_t i) {
  if (i == 0) return kBase;
  const std::size_t octave = (i - 1) / kSubBuckets;  // j - 1
  const std::size_t part = (i - 1) % kSubBuckets;
  return std::ldexp(kBase, static_cast<int>(octave)) *
         (1.0 + static_cast<double>(part + 1) / kSubBuckets);
}

void Histogram::record(double seconds) {
  if (seconds < 0.0 || !std::isfinite(seconds)) seconds = 0.0;
  ++buckets_[bucket_for(seconds)];
  ++count_;
  total_ += seconds;
  if (seconds > max_) max_ = seconds;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target && buckets_[i] > 0)
      return std::min(bucket_upper(i), max_);
  }
  return max_;
}

std::string Histogram::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "n=%llu mean=%s p50=%s p90=%s p99=%s max=%s",
                static_cast<unsigned long long>(count_),
                format_duration(mean()).c_str(),
                format_duration(percentile(0.50)).c_str(),
                format_duration(percentile(0.90)).c_str(),
                format_duration(percentile(0.99)).c_str(),
                format_duration(max_).c_str());
  return buf;
}

std::string format_duration(double seconds) {
  char buf[32];
  if (seconds < 1e-6)
    std::snprintf(buf, sizeof buf, "%.0fns", seconds * 1e9);
  else if (seconds < 1e-3)
    std::snprintf(buf, sizeof buf, "%.1fus", seconds * 1e6);
  else if (seconds < 1.0)
    std::snprintf(buf, sizeof buf, "%.1fms", seconds * 1e3);
  else
    std::snprintf(buf, sizeof buf, "%.2fs", seconds);
  return buf;
}

}  // namespace tir::obs
