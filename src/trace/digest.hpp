// Content-addressed trace identity.
//
// A Digest names the *logical* content of a TraceSet: the per-process
// action streams after decoding, independent of how they sit on disk. The
// same trace encoded as text, binary or compact — or split per process vs
// merged into one file — hashes to the same 128 bits, which is what lets
// the serving layer memoise replay results across encodings
// (src/serve/memo.hpp). The codec fuzz
// suite already guarantees the three formats round-trip actions exactly;
// the digest rides on that invariant and the service tests lock it down.
#pragma once

#include <cstdint>
#include <string>

#include "trace/trace_set.hpp"

namespace tir::trace {

/// 128-bit content hash. Not cryptographic — it keys caches, it does not
/// defend against adversarial collisions.
struct Digest {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Digest&) const = default;
  bool operator<(const Digest& other) const {
    return hi != other.hi ? hi < other.hi : lo < other.lo;
  }

  /// 32 lowercase hex characters.
  std::string hex() const;
};

/// Hashes every action stream in one pass over open() cursors.
/// Deterministic across encodings, layouts, processes, runs — and decode
/// policies: a streaming set digests bit-identically to a materialised one
/// without the actions ever being held in memory at once.
Digest digest(const TraceSet& traces);

}  // namespace tir::trace
