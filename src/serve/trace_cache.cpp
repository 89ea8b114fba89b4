#include "serve/trace_cache.hpp"

#include <chrono>
#include <utility>

namespace tir::serve {

TraceCache::TraceCache(TraceCacheOptions options)
    : entries_(options.byte_budget) {}

CachedTrace TraceCache::get(const std::string& key, const Loader& load) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const CachedTrace* held = entries_.find(key)) {
      ++hits_;
      CachedTrace out = *held;
      out.hit = true;
      out.decode_seconds = 0.0;
      return out;
    }
  }

  CachedTrace out;
  const auto t0 = std::chrono::steady_clock::now();
  out.traces = load();
  // One full pass: materialising sets decode here; streaming sets are
  // index-scanned and hashed without ever holding the actions.
  out.digest = trace::digest(out.traces);
  out.bytes = out.traces.resident_bytes();
  out.decode_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  entries_.put(key, out, out.bytes);
  return out;
}

void TraceCache::forget(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(key);
}

TraceCacheStats TraceCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  TraceCacheStats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = entries_.evictions();
  out.resident_bytes = entries_.weight();
  out.entries = entries_.size();
  return out;
}

}  // namespace tir::serve
