#include <algorithm>

#include "mpisim/mpi.hpp"
#include "obs/recorder.hpp"
#include "support/error.hpp"

namespace tir::mpi {

using detail::RequestState;

int Rank::size() const { return world_->size(); }

sim::Engine& Rank::engine() const { return world_->engine(); }

Rank::OpScope::OpScope(Rank& r, const char* label, obs::SpanKind kind,
                       int peer, double volume)
    : rank(r) {
  if (rank.op_depth_++ == 0) {
    rank.op_label_ = label;
    if (rank.recorder_)
      rank.recorder_->op_begin(rank.rank_, rank.engine().now(), kind, peer,
                               volume);
  }
}

Rank::OpScope::~OpScope() {
  if (--rank.op_depth_ == 0) {
    rank.op_label_ = nullptr;
    rank.op_phase_ = OpPhase::none;
    rank.op_request_.reset();
    // Also runs when a deadlocked frame is destroyed mid-await: the span
    // then closes at the time progress stopped, which is exactly what the
    // timeline should show for a blocked rank.
    if (rank.recorder_)
      rank.recorder_->op_end(rank.rank_, rank.engine().now());
  }
}

sim::Co<void> Rank::compute(double flops, double efficiency) {
  OpScope scope(*this, "compute", obs::SpanKind::compute, -1, flops);
  auto exec = engine().exec_async(host_, flops, efficiency);
  co_await engine().wait(exec);
}

namespace {

bool matches(const RequestState& recv, int src, int tag) {
  return (recv.src == kAnySource || recv.src == src) &&
         (recv.tag == kAnyTag || recv.tag == tag);
}

std::string rank_str(int rank) {
  return rank == kAnySource ? std::string("any") : std::to_string(rank);
}

std::string tag_str(int tag) {
  if (tag == kAnyTag) return "any";
  if (tag >= kCollectiveTagBase)
    return "coll#" + std::to_string(tag - kCollectiveTagBase);
  return std::to_string(tag);
}

std::string describe_request(const RequestState& state) {
  switch (state.kind) {
    case RequestState::Kind::send_eager:
      return "eager send(dst=" + rank_str(state.peer) +
             ", tag=" + tag_str(state.tag) + ", " +
             std::to_string(state.bytes) + "B) buffer copy";
    case RequestState::Kind::send_rendezvous:
      return "rendezvous send(dst=" + rank_str(state.peer) +
             ", tag=" + tag_str(state.tag) + ", " +
             std::to_string(state.bytes) + "B) handshake";
    case RequestState::Kind::recv:
      return "recv(src=" + rank_str(state.src) +
             ", tag=" + tag_str(state.tag) + ") match";
  }
  return "request";
}

}  // namespace

std::string Rank::describe_state() const {
  std::string s = op_label_ == nullptr ? std::string("outside any MPI call")
                                       : "in " + std::string(op_label_);
  switch (op_phase_) {
    case OpPhase::none:
      break;
    case OpPhase::request:
      if (op_request_) s += " awaiting " + describe_request(*op_request_);
      break;
    case OpPhase::eager_payload:
      s += " awaiting eager payload from rank " +
           std::to_string(op_request_ ? op_request_->matched_src : -1);
      break;
    case OpPhase::rendezvous_payload:
      s += " awaiting rendezvous payload from rank " +
           std::to_string(op_request_ ? op_request_->matched_src : -1);
      break;
  }
  s += "; queues: " + std::to_string(unexpected_.size()) + " unexpected, " +
       std::to_string(posted_.size()) + " posted";
  std::size_t listed = 0;
  for (const auto& req : posted_) {
    if (listed == 3) {
      s += ", ...";
      break;
    }
    s += (listed == 0 ? " [" : "; ");
    s += "recv src=" + rank_str(req->src) + " tag=" + tag_str(req->tag);
    ++listed;
  }
  if (listed > 0) s += "]";
  return s;
}

void Rank::fill_match(RequestState& recv_state, const InMsg& message) {
  recv_state.bytes = message.bytes;
  recv_state.matched_src = message.src;
  recv_state.sent_at = message.sent_at;
  if (message.rendezvous) {
    recv_state.rendezvous = true;
    recv_state.peer_host = world_->rank(message.src).host();
    recv_state.my_host = host_;
    recv_state.control_latency =
        engine().route_latency(recv_state.peer_host, host_);
    recv_state.peer_gate = message.sender_gate;
  } else {
    recv_state.transfer = message.transfer;
  }
}

void Rank::deliver(InMsg message) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    RequestState& state = **it;
    if (matches(state, message.src, message.tag)) {
      fill_match(state, message);
      auto gate = state.gate;
      posted_.erase(it);
      gate->open();
      return;
    }
  }
  unexpected_.push_back(std::move(message));
}

Request Rank::isend(int dst, std::uint64_t bytes, int tag) {
  if (dst < 0 || dst >= size())
    throw SimError("isend: invalid destination rank " + std::to_string(dst));
  auto state = sim::make_ref<RequestState>();
  state->bytes = bytes;
  state->tag = tag;
  state->peer = dst;

  InMsg message;
  message.src = rank_;
  message.tag = tag;
  message.bytes = bytes;
  message.sent_at = engine().now();

  if (bytes <= world_->config().eager_threshold) {
    state->kind = RequestState::Kind::send_eager;
    state->transfer = engine().transfer_async(
        host_, world_->rank(dst).host(), static_cast<double>(bytes));
    state->sender_copy =
        engine().injection_async(host_, static_cast<double>(bytes));
    message.transfer = state->transfer;
  } else {
    state->kind = RequestState::Kind::send_rendezvous;
    state->gate = engine().make_gate();
    message.rendezvous = true;
    message.sender_gate = state->gate;
  }
  world_->rank(dst).deliver(std::move(message));
  return state;
}

Request Rank::irecv(int src, std::uint64_t bytes, int tag) {
  if (src != kAnySource && (src < 0 || src >= size()))
    throw SimError("irecv: invalid source rank " + std::to_string(src));
  auto state = sim::make_ref<RequestState>();
  state->kind = RequestState::Kind::recv;
  state->bytes = bytes;
  state->src = src;
  state->tag = tag;
  state->my_host = host_;
  state->gate = engine().make_gate();

  const auto it = std::find_if(
      unexpected_.begin(), unexpected_.end(), [&](const InMsg& m) {
        return (src == kAnySource || src == m.src) &&
               (tag == kAnyTag || tag == m.tag);
      });
  if (it != unexpected_.end()) {
    fill_match(*state, *it);
    unexpected_.erase(it);
    state->gate->open();
  } else {
    posted_.push_back(state);
  }
  return state;
}

sim::Co<void> Rank::wait(Request request) {
  if (!request) co_return;
  RequestState& state = *request;
  if (state.completed) co_return;
  OpScope scope(*this, "wait", obs::SpanKind::wait,
                state.kind == RequestState::Kind::recv ? state.src
                                                       : state.peer,
                static_cast<double>(state.bytes));
  op_request_ = request;
  op_phase_ = OpPhase::request;
  switch (state.kind) {
    case RequestState::Kind::send_eager:
      // The sender only waits for its local buffer copy; the payload
      // streams to the receiver in the background.
      co_await engine().wait(state.sender_copy);
      break;
    case RequestState::Kind::send_rendezvous:
      co_await engine().wait(state.gate);
      break;
    case RequestState::Kind::recv: {
      co_await engine().wait(state.gate);  // match
      if (state.rendezvous) {
        // Receiver drives the handshake: one control latency, then the
        // payload, then release the sender.
        op_phase_ = OpPhase::rendezvous_payload;
        if (state.control_latency > 0)
          co_await engine().wait(
              engine().timer_async(state.control_latency));
        auto transfer = engine().transfer_async(
            state.peer_host, state.my_host,
            static_cast<double>(state.bytes));
        co_await engine().wait(transfer);
        state.peer_gate->open();
      } else if (state.transfer) {
        op_phase_ = OpPhase::eager_payload;
        co_await engine().wait(state.transfer);
      }
      break;
    }
  }
  op_phase_ = OpPhase::none;
  state.completed = true;
  // The message dependency is satisfied here — record src issue time ->
  // recv completion so the critical-path walk can hop across ranks.
  if (recorder_ && state.kind == RequestState::Kind::recv &&
      state.matched_src >= 0)
    recorder_->edge(state.matched_src, state.sent_at, rank_, engine().now());
}

sim::Co<void> Rank::waitall(std::vector<Request> requests) {
  OpScope scope(*this, "waitAll", obs::SpanKind::waitall);
  for (auto& request : requests) {
    // Null or already-waited requests need no nested coroutine at all:
    // wait() would co_return before doing anything observable.
    if (!request || request->completed) continue;
    co_await wait(std::move(request));
  }
}

sim::Co<void> Rank::send(int dst, std::uint64_t bytes, int tag) {
  OpScope scope(*this, "send", obs::SpanKind::send, dst,
                static_cast<double>(bytes));
  co_await wait(isend(dst, bytes, tag));
}

sim::Co<void> Rank::recv(int src, std::uint64_t bytes, int tag) {
  OpScope scope(*this, "recv", obs::SpanKind::recv, src,
                static_cast<double>(bytes));
  co_await wait(irecv(src, bytes, tag));
}

int Rank::next_coll_tag() {
  // All ranks execute the same sequence of collectives (an MPI correctness
  // requirement), so per-rank counters stay aligned across the job.
  const int tag = kCollectiveTagBase + (coll_tag_ & 0xFFFFF);
  ++coll_tag_;
  return tag;
}

}  // namespace tir::mpi
