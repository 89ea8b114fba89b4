#include "obs/recorder.hpp"

#include <algorithm>

namespace tir::obs {

std::string_view to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::compute: return "compute";
    case SpanKind::send: return "send";
    case SpanKind::recv: return "recv";
    case SpanKind::wait: return "wait";
    case SpanKind::waitall: return "waitAll";
    case SpanKind::barrier: return "barrier";
    case SpanKind::bcast: return "bcast";
    case SpanKind::reduce: return "reduce";
    case SpanKind::allreduce: return "allReduce";
    case SpanKind::gather: return "gather";
    case SpanKind::allgather: return "allGather";
    case SpanKind::alltoall: return "allToAll";
    case SpanKind::exec: return "exec";
    case SpanKind::transfer: return "transfer";
  }
  return "span";
}

std::string_view to_string(SpanCategory category) {
  switch (category) {
    case SpanCategory::compute: return "compute";
    case SpanCategory::p2p: return "p2p";
    case SpanCategory::wait: return "wait";
    case SpanCategory::collective: return "collective";
    case SpanCategory::activity: return "activity";
  }
  return "category";
}

SpanCategory category(SpanKind kind) {
  switch (kind) {
    case SpanKind::compute:
      return SpanCategory::compute;
    case SpanKind::send:
    case SpanKind::recv:
      return SpanCategory::p2p;
    case SpanKind::wait:
    case SpanKind::waitall:
      return SpanCategory::wait;
    case SpanKind::barrier:
    case SpanKind::bcast:
    case SpanKind::reduce:
    case SpanKind::allreduce:
    case SpanKind::gather:
    case SpanKind::allgather:
    case SpanKind::alltoall:
      return SpanCategory::collective;
    case SpanKind::exec:
    case SpanKind::transfer:
      return SpanCategory::activity;
  }
  return SpanCategory::compute;
}

void Recorder::op_begin(int track, double now, SpanKind kind, int peer,
                        double volume) {
  if (track < 0) return;
  const auto t = static_cast<std::size_t>(track);
  if (t >= rank_spans_.size()) {
    rank_spans_.resize(t + 1);
    open_.resize(t + 1);
  }
  OpenSpan& open = open_[t];
  open.active = true;
  open.kind = kind;
  open.peer = peer;
  open.start = now;
  open.volume = volume;
}

void Recorder::op_end(int track, double now) {
  if (track < 0 || static_cast<std::size_t>(track) >= open_.size()) return;
  OpenSpan& open = open_[static_cast<std::size_t>(track)];
  if (!open.active) return;
  open.active = false;
  rank_spans_[static_cast<std::size_t>(track)].push_back(
      Span{open.kind, open.peer, open.start, now, open.volume});
}

void Recorder::edge(int src, double src_time, int dst, double dst_time) {
  if (src < 0 || dst < 0 || src == dst) return;
  edges_.push_back(Edge{src, dst, src_time, dst_time});
}

void Recorder::fault(double time, FaultEvent::Kind kind, int id,
                     double factor, double factor2) {
  faults_.push_back(FaultEvent{kind, id, time, factor, factor2});
}

void Recorder::activity_span(int host, int peer, SpanKind kind, double start,
                             double end, double volume) {
  if (host < 0) return;
  const auto h = static_cast<std::size_t>(host);
  if (h >= host_spans_.size()) host_spans_.resize(h + 1);
  host_spans_[h].push_back(Span{kind, peer, start, end, volume});
}

std::uint64_t Recorder::total_spans() const {
  std::uint64_t n = 0;
  for (const auto& spans : rank_spans_) n += spans.size();
  for (const auto& spans : host_spans_) n += spans.size();
  return n;
}

double Recorder::last_time() const {
  double last = 0.0;
  for (const auto& spans : rank_spans_)
    if (!spans.empty()) last = std::max(last, spans.back().end);
  for (const auto& spans : host_spans_)
    for (const Span& s : spans) last = std::max(last, s.end);
  return last;
}

bool Recorder::same_streams(const Recorder& other) const {
  return rank_spans_ == other.rank_spans_ &&
         host_spans_ == other.host_spans_ && edges_ == other.edges_ &&
         faults_ == other.faults_;
}

}  // namespace tir::obs
