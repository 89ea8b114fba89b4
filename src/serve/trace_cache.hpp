// TraceSet cache: decode a hot trace once per file identity.
//
// The replay-as-a-service workload hits the same handful of traces with
// thousands of scenario requests. Decoded TraceSets are immutable and
// cheaply shareable (trace/trace_set.hpp), so the only thing standing
// between "N requests" and "one decode" is a cache. Its key is the
// InputResolver's identity key (device, inode, size, mtime of every file),
// so every spelling of the same files shares one entry, and a rewritten or
// touched file is a new key: the resolver forgets the old entry and the
// files decode again. A streamed set therefore only ever serves the files
// it indexed.
//
// Decodes are keyed by identity; results are addressed by content. Each
// entry carries the digest of its actions, and the ResultMemo keys reports
// by that digest (serve/memo.hpp), so a compact copy, a touched file or a
// same-content rewrite decodes again but still hits the stored report.
// Decoded storage is not shared between distinct files of equal content.
//
// Eviction is LRU over a byte budget of resident footprints — the decoded
// actions for a materialised set, the stream index for an index-backed one
// (which is why a daemon can keep a 10^8-action trace "cached" in a few
// kilobytes).
//
// In the service only the dispatcher thread calls get(); tir-sweep and
// tir-mc resolve their lists serially. The mutex is there because stats()
// is read from other threads. A loader runs outside the lock, so two
// callers racing on one cold key would both decode; the later one replaces
// the earlier entry, and both answers are correct.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "serve/lru_map.hpp"
#include "trace/digest.hpp"
#include "trace/trace_set.hpp"

namespace tir::serve {

struct TraceCacheOptions {
  /// Decoded-bytes budget; eviction keeps resident_bytes at or under it.
  /// 0 = unlimited. A single entry larger than the budget is still admitted
  /// (the alternative is never serving it) and evicted as soon as anything
  /// newer lands.
  std::uint64_t byte_budget = 1ull << 30;
};

/// One cache answer. `traces` shares the resident decoded storage.
struct CachedTrace {
  trace::TraceSet traces;
  trace::Digest digest;
  std::uint64_t bytes = 0;       ///< resident footprint of the entry
  bool hit = false;              ///< served without running the loader
  double decode_seconds = 0.0;   ///< loader + digest wall time (miss only)
};

struct TraceCacheStats {
  std::uint64_t hits = 0;            ///< served resident
  std::uint64_t misses = 0;          ///< loader invocations
  std::uint64_t evictions = 0;
  std::uint64_t resident_bytes = 0;
  std::size_t entries = 0;
};

class TraceCache {
 public:
  using Loader = std::function<trace::TraceSet()>;

  explicit TraceCache(TraceCacheOptions options = {});

  /// Returns the TraceSet for `key`, running `load` (then digesting,
  /// outside the lock) only when the key is not resident. Loader exceptions
  /// propagate, and the key stays uncached so a later request retries.
  /// Thread-safe.
  CachedTrace get(const std::string& key, const Loader& load);

  /// Drops the entry under `key` (its source changed): the next get()
  /// under it runs the loader. Thread-safe.
  void forget(const std::string& key);

  TraceCacheStats stats() const;

 private:
  mutable std::mutex mu_;
  LruMap<CachedTrace> entries_;  ///< weighed in resident bytes
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace tir::serve
