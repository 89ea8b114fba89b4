// Scenario result memoisation: never simulate the same question twice.
//
// A replay is a pure function of its scenario — the engine is deterministic
// and every input (trace content, platform, deployment, MPI/engine knobs,
// fault timeline) is named by the spec. The memo exploits that: results are
// keyed by a canonical fingerprint built over the *content digest* of the
// trace plus every semantically relevant knob (scenario_memo_key), so a
// repeat request returns the stored answer bit-for-bit — the differential
// tests compare the doubles with memcmp.
//
// Entry-count LRU. An entry keeps only the answer a service response reads
// (MemoAnswer), not the whole ReplayReport with its per-process finish
// times, engine counters and timelines: a long-running service adds one
// entry per new scenario. Concurrent identical misses are the caller's to
// collapse: ReplayService keeps one replay in flight per key and stores its
// answer here.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "replay/scenario.hpp"
#include "serve/lru_map.hpp"
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
/// the answer goes in: trace content digest, platform identity (file
/// identity or topology spec — `platform_key`), the resolved process ->
/// host mapping, MPI and engine knobs (`full_solve` included), and the full
/// fault timeline. Scenario *names* stay out: renaming a row must still
/// hit. The recording flags (timed trace, spans, activity detail) stay
/// out: recording is bit-identical by contract and a MemoAnswer keeps
/// nothing they select. The trace decode path stays out too — streamed and
/// materialised decode of the same bytes are bit-identical by
/// construction.
std::string scenario_memo_key(const replay::ScenarioSpec& spec,
                              const std::string& platform_key,
                              const trace::Digest& digest);

/// The part of a ReplayReport a service response reads.
struct MemoAnswer {
  replay::ReplayStatus status = replay::ReplayStatus::failed;
  double sim_time = 0.0;
  double coverage = 0.0;
  std::string error;
  std::vector<std::string> diagnostics;
  std::uint64_t actions_replayed = 0;
  int processes = 0;  ///< the replay's process count

  MemoAnswer() = default;
  /// Implicit, so a report can be stored as it is.
  MemoAnswer(const replay::ReplayReport& report);
};

class ResultMemo {
 public:
  explicit ResultMemo(MemoOptions options = {});

  /// Probe and insert. Thread-safe.
  std::optional<MemoAnswer> lookup(const std::string& key);
  void store(const std::string& key, MemoAnswer answer);

  MemoStats stats() const;

 private:
  mutable std::mutex mu_;
  LruMap<MemoAnswer> entries_;
  MemoStats stats_;
};

}  // namespace tir::serve
