// Recorder: the collection point between the simulation and the exporters.
//
// A Recorder is attached to one replay through EngineConfig::recorder; the
// MPI ranks take it from their engine. Call sites hold a plain pointer and
// do nothing when it is null — the disabled path costs one branch per
// outermost MPI operation, which is what keeps the "recorder off" replay
// time within noise of a build without the subsystem (see
// bench_obs_overhead).
//
// Emission contract:
//   - op_begin/op_end bracket one *outermost* MPI operation on a rank
//     track; nesting is the caller's concern (mpisim only emits at depth
//     0), so every track ends up with disjoint, time-sorted spans.
//   - edge() records a satisfied message dependency (recv completion).
//   - activity_span() records kernel activity detail on host tracks; only
//     emitted when activity_detail() is set (it is voluminous).
//   - fault() records a degradation activating.
//
// Determinism: the engine is deterministic, every mutation happens on the
// single simulation thread, and spans land in per-track vectors in
// completion order — so two replays of the same scenario produce
// bit-identical recorders (the determinism test battery asserts this).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/span.hpp"

namespace tir::obs {

class Recorder {
 public:
  Recorder() = default;
  explicit Recorder(bool activity_detail)
      : activity_detail_(activity_detail) {}

  /// When set, the engine also records per-activity spans on host tracks.
  bool activity_detail() const { return activity_detail_; }

  // -- emission (simulation thread only) -----------------------------------

  /// Opens a span on rank `track` at simulated time `now`. Tracks are
  /// created on first use.
  void op_begin(int track, double now, SpanKind kind, int peer = -1,
                double volume = 0.0);

  /// Closes the open span on `track`. No-op when none is open (a replay
  /// torn down outside any MPI call).
  void op_end(int track, double now);

  void edge(int src, double src_time, int dst, double dst_time);

  void fault(double time, FaultEvent::Kind kind, int id, double factor,
             double factor2 = 1.0);

  void activity_span(int host, int peer, SpanKind kind, double start,
                     double end, double volume);

  // -- views ---------------------------------------------------------------

  int tracks() const { return static_cast<int>(rank_spans_.size()); }
  const std::vector<Span>& track_spans(int track) const {
    return rank_spans_[static_cast<std::size_t>(track)];
  }

  int host_tracks() const { return static_cast<int>(host_spans_.size()); }
  const std::vector<Span>& host_track_spans(int host) const {
    return host_spans_[static_cast<std::size_t>(host)];
  }

  const std::vector<Edge>& edges() const { return edges_; }
  const std::vector<FaultEvent>& faults() const { return faults_; }

  std::uint64_t total_spans() const;

  /// Latest span end across all tracks (0 when empty).
  double last_time() const;

  /// Deep equality over every recorded stream — the determinism tests'
  /// "identical span streams" predicate.
  bool same_streams(const Recorder& other) const;

 private:
  struct OpenSpan {
    bool active = false;
    SpanKind kind = SpanKind::compute;
    std::int32_t peer = -1;
    double start = 0.0;
    double volume = 0.0;
  };

  bool activity_detail_ = false;
  std::vector<std::vector<Span>> rank_spans_;
  std::vector<OpenSpan> open_;
  std::vector<std::vector<Span>> host_spans_;
  std::vector<Edge> edges_;
  std::vector<FaultEvent> faults_;
};

}  // namespace tir::obs
