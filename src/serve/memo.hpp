// Scenario result memoisation: never simulate the same question twice.
//
// A replay is a pure function of its scenario — the engine is deterministic
// and every input (trace content, platform, deployment, MPI/engine knobs,
// fault timeline) is named by the spec. The memo exploits that: results are
// keyed by a canonical fingerprint built over the *content digest* of the
// trace plus every semantically relevant knob (scenario_memo_key), so a
// repeat request returns the stored ReplayReport bit-for-bit — the
// differential tests compare the doubles with memcmp.
//
// Entry-count LRU (reports are small: a few vectors of doubles/strings).
// Concurrent identical misses are the caller's to collapse: ReplayService
// keeps one replay in flight per key and stores its report here.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "replay/scenario.hpp"
#include "trace/digest.hpp"

namespace tir::serve {

struct MemoOptions {
  /// Retained reports; 0 = unlimited.
  std::size_t capacity = 4096;
};

struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< lookups that found nothing
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
};

/// Canonical memo fingerprint of one scenario. Everything that can change
/// the report goes in: trace content digest, platform identity (canonical
/// file path or topology spec — `platform_key`), the resolved process ->
/// host mapping, MPI and engine knobs, recording flags, and the full fault
/// timeline. Scenario *names* stay out: renaming a row must still hit.
/// The trace decode path stays out too — streamed and materialised decode
/// of the same bytes are bit-identical by construction.
/// Specs carrying a customize_registry hook are not fingerprintable —
/// callers must bypass the memo for those (the service does).
std::string scenario_memo_key(const replay::ScenarioSpec& spec,
                              const std::string& platform_key,
                              const trace::Digest& digest);

class ResultMemo {
 public:
  explicit ResultMemo(MemoOptions options = {});

  /// Probe and insert. Thread-safe.
  std::optional<replay::ReplayReport> lookup(const std::string& key);
  void store(const std::string& key, replay::ReplayReport report);

  MemoStats stats() const;

 private:
  struct Entry {
    replay::ReplayReport report;
    std::list<std::string>::iterator lru;
  };
  MemoOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< front = most recent
  MemoStats stats_;
};

}  // namespace tir::serve
