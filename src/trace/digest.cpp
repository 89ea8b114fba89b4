#include "trace/digest.hpp"

#include <bit>
#include <cstdio>

namespace tir::trace {

namespace {

/// splitmix64 finalizer: full-avalanche mixing of one 64-bit word.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Two independently-seeded 64-bit lanes folded word by word. The lanes see
/// the same words through different mixing chains, so a collision must fool
/// both simultaneously.
struct Hash128 {
  std::uint64_t hi = 0x6a09e667f3bcc908ull;
  std::uint64_t lo = 0xbb67ae8584caa73bull;

  void mix(std::uint64_t word) {
    hi = mix64(hi ^ word);
    lo = mix64(lo + word * 0x100000001b3ull + 1);
  }

  void mix_double(double v) {
    // Canonicalise the one value with two bit patterns so a codec emitting
    // -0.0 cannot split the digest.
    if (v == 0.0) v = 0.0;
    mix(std::bit_cast<std::uint64_t>(v));
  }
};

}  // namespace

std::string Digest::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf, 32);
}

Digest digest(const TraceSet& traces) {
  // One pass over open() cursors: a streaming set is hashed without ever
  // materialising a stream, and a materialised set walks its decoded
  // vectors — the word sequence (and so the digest) is identical because
  // action_count(pid) equals the stream length in both modes.
  Hash128 h;
  const int nprocs = traces.nprocs();
  h.mix(static_cast<std::uint64_t>(nprocs));
  for (int pid = 0; pid < nprocs; ++pid) {
    h.mix(static_cast<std::uint64_t>(pid));
    h.mix(traces.action_count(pid));
    const auto source = traces.open(pid);
    while (const auto a = source->next()) {
      // a.pid is omitted on purpose: the stream index is the identity. A
      // merged file stores explicit pids and a split compact file factors
      // them out — same logical trace, and the decoder already routed each
      // action to its stream.
      h.mix(static_cast<std::uint64_t>(a->type));
      h.mix(
          static_cast<std::uint64_t>(static_cast<std::int64_t>(a->partner)));
      h.mix_double(a->volume);
      h.mix_double(a->volume2);
      h.mix(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(a->comm_size)));
    }
  }
  return Digest{h.hi, h.lo};
}

}  // namespace tir::trace
