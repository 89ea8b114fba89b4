#include "acquisition/tau2ti.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <set>
#include <unordered_map>

#include "support/error.hpp"
#include "tau/tau_reader.hpp"
#include "tau/tau_writer.hpp"
#include "trace/trace_format.hpp"

namespace tir::acq {

namespace {

using trace::Action;
using trace::ActionType;

/// Compute bursts below this many flops are dropped.
constexpr double kMinComputeFlops = 0.5;

enum class MpiFn {
  none,
  send,
  recv,
  isend,
  irecv,
  wait,
  barrier,
  bcast,
  reduce,
  allreduce,
  gather,
  allgather,
  alltoall,
  comm_size,
  app_exit,
  other,
};

MpiFn classify(const std::string& name) {
  if (name.rfind("MPI_Send", 0) == 0) return MpiFn::send;
  if (name.rfind("MPI_Recv", 0) == 0) return MpiFn::recv;
  if (name.rfind("MPI_Isend", 0) == 0) return MpiFn::isend;
  if (name.rfind("MPI_Irecv", 0) == 0) return MpiFn::irecv;
  if (name.rfind("MPI_Wait", 0) == 0) return MpiFn::wait;
  if (name.rfind("MPI_Barrier", 0) == 0) return MpiFn::barrier;
  if (name.rfind("MPI_Bcast", 0) == 0 ||
      name.rfind("MPI_Broadcast", 0) == 0)
    return MpiFn::bcast;
  if (name.rfind("MPI_Allreduce", 0) == 0) return MpiFn::allreduce;
  if (name.rfind("MPI_Reduce", 0) == 0) return MpiFn::reduce;
  if (name.rfind("MPI_Allgather", 0) == 0) return MpiFn::allgather;
  if (name.rfind("MPI_Gather", 0) == 0) return MpiFn::gather;
  if (name.rfind("MPI_Alltoall", 0) == 0) return MpiFn::alltoall;
  if (name.rfind("MPI_Comm_size", 0) == 0) return MpiFn::comm_size;
  if (name == "APPLICATION_EXIT") return MpiFn::app_exit;
  return MpiFn::other;
}

// The per-process extraction state machine.
class Extractor {
 public:
  Extractor(int pid, int nprocs, const ExtractOptions& options)
      : pid_(pid), options_(options) {
    // §3: comm_size must precede any collective in each process's trace.
    actions_.push_back(
        Action{pid_, ActionType::comm_size, -1, 0, 0, nprocs});
  }

  tau::Callbacks callbacks() {
    tau::Callbacks cb;
    cb.def_state = [this](const tau::EventDef& def) {
      if (def.kind == tau::EventKind::entry_exit)
        fns_[def.id] = classify(def.name);
      else if (def.name == "PAPI_FP_OPS")
        fp_ops_event_ = def.id;
      else if (def.kind == tau::EventKind::trigger_value)
        size_events_.insert(def.id);
    };
    cb.enter_state = [this](int, int, std::uint64_t, int event) {
      const auto it = fns_.find(event);
      const MpiFn fn = it == fns_.end() ? MpiFn::other : it->second;
      // Application (non-MPI) states are transparent: their inner flops
      // belong to the CPU burst that the *next* MPI call's entry counter
      // closes. Skipping them here keeps the burst accounting intact.
      if (fn == MpiFn::other) {
        in_call_ = MpiFn::none;
        return;
      }
      in_call_ = fn;
      entry_seen_ = false;
      call_size_ = 0;
    };
    cb.leave_state = [this](int, int, std::uint64_t, int) { on_leave(); };
    cb.event_trigger = [this](int, int, std::uint64_t, int event,
                              std::int64_t value) {
      if (event == fp_ops_event_) {
        on_counter(static_cast<double>(value));
      } else if (size_events_.count(event)) {
        call_size_ = static_cast<std::uint64_t>(value);
      }
    };
    cb.send_message = [this](int, int, std::uint64_t, int dst,
                             std::uint64_t bytes, int) {
      actions_.push_back(Action{
          pid_,
          in_call_ == MpiFn::isend ? ActionType::isend : ActionType::send,
          dst, static_cast<double>(bytes), 0, 0});
    };
    cb.recv_message = [this](int, int, std::uint64_t, int src,
                             std::uint64_t bytes, int) {
      if (in_call_ == MpiFn::wait) {
        // The paper's lookup: resolve the oldest pending Irecv (which
        // already carries the size declared at MPI_Irecv time).
        if (pending_irecvs_.empty())
          throw SimError("tau2ti: RecvMessage in MPI_Wait with no pending "
                         "MPI_Irecv (process " +
                         std::to_string(pid_) + ")");
        const std::size_t index = pending_irecvs_.front();
        pending_irecvs_.pop_front();
        actions_[index].partner = src;
        if (options_.recv_volumes)
          actions_[index].volume = static_cast<double>(bytes);
      } else {
        // Figure 1 writes blocking receives without a volume ("p0 recv
        // p3"); the matched send carries it.
        actions_.push_back(Action{
            pid_, ActionType::recv, src,
            options_.recv_volumes ? static_cast<double>(bytes) : 0.0, 0, 0});
      }
    };
    return cb;
  }

  std::vector<Action> finish() {
    if (!pending_irecvs_.empty())
      throw SimError("tau2ti: process " + std::to_string(pid_) + " ends with " +
                     std::to_string(pending_irecvs_.size()) +
                     " unresolved MPI_Irecv");
    return std::move(actions_);
  }

 private:
  void on_counter(double value) {
    if (in_call_ == MpiFn::none) return;  // stray trigger
    if (!entry_seen_) {
      entry_seen_ = true;
      entry_counter_ = value;
      const double burst = value - last_exit_counter_;
      // The entry FP_OPS trigger is written immediately after EnterState,
      // before any message record, so the burst that preceded this MPI call
      // can simply be appended here.
      if (burst >= kMinComputeFlops)
        actions_.push_back(
            Action{pid_, ActionType::compute, -1, burst, 0, 0});
    } else {
      exit_counter_ = value;
      last_exit_counter_ = value;
    }
  }

  void on_leave() {
    switch (in_call_) {
      case MpiFn::irecv: {
        actions_.push_back(Action{pid_, ActionType::irecv, -1,
                                  static_cast<double>(call_size_), 0, 0});
        pending_irecvs_.push_back(actions_.size() - 1);
        break;
      }
      case MpiFn::wait:
        actions_.push_back(Action{pid_, ActionType::wait, -1, 0, 0, 0});
        break;
      case MpiFn::barrier:
        actions_.push_back(Action{pid_, ActionType::barrier, -1, 0, 0, 0});
        break;
      case MpiFn::bcast:
        actions_.push_back(Action{pid_, ActionType::bcast, -1,
                                  static_cast<double>(call_size_), 0, 0});
        break;
      case MpiFn::gather:
        actions_.push_back(Action{pid_, ActionType::gather, -1,
                                  static_cast<double>(call_size_), 0, 0});
        break;
      case MpiFn::allgather:
        actions_.push_back(Action{pid_, ActionType::allgather, -1,
                                  static_cast<double>(call_size_), 0, 0});
        break;
      case MpiFn::alltoall:
        actions_.push_back(Action{pid_, ActionType::alltoall, -1,
                                  static_cast<double>(call_size_), 0, 0});
        break;
      case MpiFn::reduce:
      case MpiFn::allreduce: {
        // vcomp = flops burned inside the call (entry->exit counter delta).
        const double vcomp = std::max(0.0, exit_counter_ - entry_counter_);
        actions_.push_back(Action{
            pid_,
            in_call_ == MpiFn::reduce ? ActionType::reduce
                                      : ActionType::allreduce,
            -1, static_cast<double>(call_size_), vcomp, 0});
        break;
      }
      default:
        break;  // send/recv/isend handled by their message records
    }
    in_call_ = MpiFn::none;
  }

  int pid_;
  ExtractOptions options_;
  std::vector<Action> actions_;
  std::unordered_map<int, MpiFn> fns_;
  std::set<int> size_events_;
  int fp_ops_event_ = -1;
  MpiFn in_call_ = MpiFn::none;
  bool entry_seen_ = false;
  double entry_counter_ = 0;
  double exit_counter_ = 0;
  double last_exit_counter_ = 0;
  std::uint64_t call_size_ = 0;
  std::deque<std::size_t> pending_irecvs_;
};

std::uint64_t file_size_or_zero(const std::filesystem::path& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

}  // namespace

std::vector<trace::Action> extract_process(const std::filesystem::path& trc,
                                           const std::filesystem::path& edf,
                                           int pid, int nprocs,
                                           const ExtractOptions& options) {
  Extractor extractor(pid, nprocs, options);
  tau::process_trace(trc, edf, extractor.callbacks());
  return extractor.finish();
}

ExtractResult tau2ti(const std::filesystem::path& tau_dir, int nprocs,
                     const std::filesystem::path& out_dir,
                     const ExtractOptions& options) {
  std::filesystem::create_directories(out_dir);
  ExtractResult result;
  const auto start = std::chrono::steady_clock::now();
  for (int p = 0; p < nprocs; ++p) {
    const auto trc = tau_dir / tau::trc_file_name(p);
    const auto edf = tau_dir / tau::edf_file_name(p);
    result.tau_bytes += file_size_or_zero(trc) + file_size_or_zero(edf);

    Extractor extractor(p, nprocs, options);
    result.tau_records += tau::process_trace(trc, edf, extractor.callbacks());
    const auto actions = extractor.finish();
    result.actions += actions.size();

    result.ti_files.push_back(out_dir /
                              ("SG_process" + std::to_string(p) + ".trace"));
    result.ti_bytes += trace::write_trace(
        result.ti_files.back(), actions, p,
        options.binary_output ? trace::TraceFormat::binary
                              : trace::TraceFormat::text);
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace tir::acq
