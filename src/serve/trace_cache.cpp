#include "serve/trace_cache.hpp"

#include <chrono>
#include <utility>

namespace tir::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

TraceCache::TraceCache(TraceCacheOptions options) : options_(options) {}

void TraceCache::touch_locked(Entry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru);
}

void TraceCache::evict_locked() {
  if (options_.byte_budget == 0) return;
  // Keep at least one entry resident: the newest one may alone exceed the
  // budget, and evicting what we are about to hand out helps nobody.
  while (stats_.resident_bytes > options_.byte_budget && entries_.size() > 1) {
    const trace::Digest victim = lru_.back();
    lru_.pop_back();
    const auto it = entries_.find(victim);
    stats_.resident_bytes -= it->second.bytes;
    entries_.erase(it);
    ++stats_.evictions;
    // Aliases for an evicted digest turn back into misses lazily.
    for (auto a = aliases_.begin(); a != aliases_.end();)
      a = a->second == victim ? aliases_.erase(a) : std::next(a);
  }
  stats_.entries = entries_.size();
  stats_.aliases = aliases_.size();
}

CachedTrace TraceCache::get(const std::string& source_key,
                            const Loader& load) {
  std::unique_lock<std::mutex> lock(mu_);
  if (const auto alias = aliases_.find(source_key); alias != aliases_.end()) {
    Entry& entry = entries_.at(alias->second);
    touch_locked(entry);
    ++stats_.hits;
    CachedTrace out;
    out.traces = entry.traces;
    out.digest = entry.digest;
    out.bytes = entry.bytes;
    out.hit = true;
    return out;
  }
  lock.unlock();

  CachedTrace out;
  const auto t0 = std::chrono::steady_clock::now();
  trace::TraceSet loaded = load();
  // One full pass: materialising sets decode here; streaming sets are
  // index-scanned and hashed without ever holding the actions.
  out.digest = trace::digest(loaded);
  out.bytes = loaded.resident_bytes();
  out.traces = std::move(loaded);
  out.decode_seconds = seconds_since(t0);

  lock.lock();
  ++stats_.misses;
  if (const auto twin = entries_.find(out.digest); twin != entries_.end()) {
    // Same logical content already resident (a different encoding, or
    // these files before a touch or a same-content rewrite).
    Entry& entry = twin->second;
    touch_locked(entry);
    out.deduplicated = true;
    ++stats_.dedups;
    if (!entry.traces.streaming()) {
      // Decoded actions serve any source: drop our copy, share theirs.
      out.traces = entry.traces;
      out.bytes = entry.bytes;
    } else {
      // A streamed set re-reads its files on every replay and fails once
      // they differ from what it indexed, so ours, loaded just now,
      // replaces it (replays in flight keep the old one alive). If ours
      // streams too, it reads files only our alias validates: the other
      // aliases go and load their own sources again.
      if (out.traces.streaming())
        for (auto a = aliases_.begin(); a != aliases_.end();)
          a = a->second == out.digest && a->first != source_key
                  ? aliases_.erase(a)
                  : std::next(a);
      stats_.resident_bytes = stats_.resident_bytes - entry.bytes + out.bytes;
      entry.traces = out.traces;
      entry.bytes = out.bytes;
      evict_locked();
    }
  } else {
    Entry entry;
    entry.traces = out.traces;
    entry.digest = out.digest;
    entry.bytes = out.bytes;
    lru_.push_front(out.digest);
    entry.lru = lru_.begin();
    entries_.emplace(out.digest, std::move(entry));
    stats_.resident_bytes += out.bytes;
    evict_locked();
  }
  aliases_[source_key] = out.digest;
  stats_.entries = entries_.size();
  stats_.aliases = aliases_.size();
  return out;
}

void TraceCache::forget(const std::string& source_key) {
  std::lock_guard<std::mutex> lock(mu_);
  aliases_.erase(source_key);
  stats_.aliases = aliases_.size();
}

TraceCacheStats TraceCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace tir::serve
