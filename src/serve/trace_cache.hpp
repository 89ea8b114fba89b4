// Content-addressed TraceSet cache: decode a hot trace once, ever.
//
// The replay-as-a-service workload hits the same handful of traces with
// thousands of scenario requests. Decoded TraceSets are immutable and
// cheaply shareable (trace/trace_set.hpp), so the only thing standing
// between "N requests" and "one decode" is a cache. This one is keyed two
// ways:
//
//   source key  ->  Digest      (alias map: "where the bytes came from")
//   Digest      ->  TraceSet    (content map: "what the bytes mean")
//
// The InputResolver's source keys are file identities (device, inode, size,
// mtime), so every spelling of the same files shares one alias, and a
// rewritten file is a new key: the resolver forgets the old alias and the
// new bytes decode under a new digest.
//
// The digest indirection is what makes the cache *content*-addressed: a
// trace served as text in one request and as its compact re-encoding in
// another decodes twice at most (each encoding once) but is stored once —
// the second decode discovers the same digest and is thrown away in favour
// of the resident entry, so downstream result memoisation keys unify too.
// A resident *streamed* set is the exception: it re-reads its files on
// every replay, so the fresher load replaces it (after a touch its index
// would name identities the files no longer have), and an alias only ever
// points at a streamed set that reads that alias's own files.
//
// Eviction is LRU over a byte budget of resident footprints — the decoded
// actions for a materialised set, the stream index for an index-backed one
// (which is why a daemon can keep a 10^8-action trace "cached" in a few
// kilobytes).
//
// In the service only the dispatcher thread calls get(); tir-sweep and
// tir-mc resolve their lists serially. The mutex is there because stats()
// is read from other threads. A loader runs outside the lock, so two
// callers racing on one cold key would both decode; the digest-twin dedup
// above keeps one copy and both answers correct.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <string>

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
  bool deduplicated = false;     ///< loader ran, content matched a resident
                                 ///< entry (one copy kept; see get())
  double decode_seconds = 0.0;   ///< loader + digest wall time (miss only)
};

struct TraceCacheStats {
  std::uint64_t hits = 0;            ///< alias or content served resident
  std::uint64_t misses = 0;          ///< loader invocations
  std::uint64_t dedups = 0;          ///< loads that matched a resident twin
  std::uint64_t evictions = 0;
  std::uint64_t resident_bytes = 0;
  std::size_t entries = 0;
  std::size_t aliases = 0;
};

class TraceCache {
 public:
  using Loader = std::function<trace::TraceSet()>;

  explicit TraceCache(TraceCacheOptions options = {});

  /// Returns the TraceSet for `source_key`, running `load` (then digesting,
  /// outside the lock) only when the key is unknown. A load whose digest is
  /// resident shares the resident set, unless that set streams: then the
  /// loaded set replaces it. Loader exceptions propagate, and the key stays
  /// uncached so a later request retries. Thread-safe.
  CachedTrace get(const std::string& source_key, const Loader& load);

  /// Drops the alias `source_key` (its source changed): the next get()
  /// under it runs the loader. The content entry stays until evicted.
  /// Thread-safe.
  void forget(const std::string& source_key);

  TraceCacheStats stats() const;

 private:
  struct Entry {
    trace::TraceSet traces;
    trace::Digest digest;
    std::uint64_t bytes = 0;
    std::list<trace::Digest>::iterator lru;  ///< position in lru_
  };

  void touch_locked(Entry& entry);
  void evict_locked();

  TraceCacheOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, trace::Digest> aliases_;
  std::map<trace::Digest, Entry> entries_;
  std::list<trace::Digest> lru_;  ///< front = most recent
  TraceCacheStats stats_;
};

}  // namespace tir::serve
