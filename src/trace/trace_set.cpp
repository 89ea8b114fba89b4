#include "trace/trace_set.hpp"

#include <atomic>
#include <mutex>

#include "support/error.hpp"
#include "trace/stream.hpp"

namespace tir::trace {

void TraceStats::account(const Action& a) {
  ++actions;
  switch (a.type) {
    case ActionType::compute:
      ++computes;
      total_flops += a.volume;
      break;
    case ActionType::send:
    case ActionType::isend:
      ++p2p_messages;
      total_bytes_sent += a.volume;
      break;
    case ActionType::bcast:
    case ActionType::reduce:
    case ActionType::allreduce:
    case ActionType::barrier:
    case ActionType::gather:
    case ActionType::allgather:
    case ActionType::alltoall:
      ++collectives;
      if (a.type == ActionType::reduce || a.type == ActionType::allreduce)
        total_flops += a.volume2;
      break;
    default:
      break;
  }
}

TraceStats& TraceStats::operator+=(const TraceStats& other) {
  actions += other.actions;
  computes += other.computes;
  p2p_messages += other.p2p_messages;
  collectives += other.collectives;
  total_flops += other.total_flops;
  total_bytes_sent += other.total_bytes_sent;
  return *this;
}

namespace {

/// Runs a callable once to completion: concurrent callers block until it
/// finishes, and a call that throws leaves the flag unset, so the next call
/// retries. (std::call_once promises that retry too, but under
/// ThreadSanitizer a throwing call never releases the flag and the retry
/// hangs.)
class Once {
 public:
  template <class F>
  void call(F&& f) {
    if (done_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (done_.load(std::memory_order_relaxed)) return;
    f();
    done_.store(true, std::memory_order_release);
  }

 private:
  std::mutex mu_;
  std::atomic<bool> done_{false};
};

}  // namespace

// Shared, write-once trace storage. Decoding is keyed per file behind a
// Once: concurrent sweep workers opening the same process block until the
// single decode pass finishes, then read the immutable packed records.
struct TraceSet::Storage {
  enum class Layout { split, merged, memory } layout = Layout::memory;
  int nprocs = 0;
  DecodeMode mode = DecodeMode::strict;
  DecodePolicy policy = DecodePolicy::automatic;
  std::vector<std::filesystem::path> files;
  std::vector<PackedActions> decoded;             // index = pid
  std::vector<SalvageInfo> salvage;               // index = file
  std::unique_ptr<Once[]> decode_once;  // one per file
  std::atomic<std::uint64_t> decodes{0};

  // Streaming state. The decision (and every index build) happens once, on
  // first consumption; strict-mode index errors propagate and the decision
  // is retried, matching materialised error timing.
  Once policy_once;
  bool effective_stream = false;
  std::vector<std::shared_ptr<const StreamIndex>> index;  // one per file
  std::atomic<std::uint64_t> index_builds{0};

  bool wants_stream() const {
    if (layout == Layout::memory) return false;
    if (policy == DecodePolicy::materialise) return false;
    if (policy == DecodePolicy::stream) return true;
    // Automatic: stream when the set is big — on disk, or after expanding
    // compact loop counts (a tiny TIRC file can hide 10^8 actions).
    std::uint64_t bytes = 0;
    std::uint64_t expanded = 0;
    for (const auto& f : files) {
      std::error_code ec;
      const auto size = std::filesystem::file_size(f, ec);
      if (!ec) bytes += size;
      expanded += compact_expanded_hint(f);
    }
    return bytes > kAutoStreamBytes || expanded > kAutoStreamActions;
  }

  /// Decides the effective decode path and, when streaming, builds every
  /// file's index up front. Any unstreamable file (merged compact, overly
  /// interleaved pids) makes the whole set fall back to materialising so
  /// the two paths never mix within one storage.
  void ensure_policy() {
    policy_once.call([&] {
      if (!wants_stream()) return;
      const int merged_nprocs = layout == Layout::merged ? nprocs : -1;
      std::vector<std::shared_ptr<const StreamIndex>> built;
      built.reserve(files.size());
      for (const auto& f : files) {
        auto idx = std::make_shared<StreamIndex>(
            build_stream_index(f, mode, merged_nprocs));
        index_builds.fetch_add(1, std::memory_order_relaxed);
        if (idx->fallback) return;
        built.push_back(std::move(idx));
      }
      index = std::move(built);
      effective_stream = true;
    });
  }

  /// Ensures process `pid`'s actions are decoded; returns them. A file is
  /// materialised by the stream index pass packing its actions: strict
  /// mode throws on corrupt input, lenient keeps the clean prefix and
  /// records the outcome in `salvage`.
  const PackedActions& process_actions(int pid) {
    if (layout == Layout::memory) return decoded[static_cast<std::size_t>(pid)];
    const bool merged = layout == Layout::merged;
    const std::size_t file = merged ? 0 : static_cast<std::size_t>(pid);
    decode_once[file].call([&] {
      std::vector<PackedActions> actions;
      if (merged) {
        for (int p = 0; p < nprocs; ++p) actions.emplace_back(p);
      } else {
        actions.emplace_back(pid);
      }
      StreamIndex idx = build_stream_index(files[file], mode,
                                           merged ? nprocs : -1, &actions);
      for (PackedActions& stream : actions) stream.shrink_to_fit();
      salvage[file] = std::move(idx.salvage);
      if (merged)
        decoded = std::move(actions);
      else
        decoded[file] = std::move(actions.front());
      decodes.fetch_add(1, std::memory_order_relaxed);
    });
    return decoded[static_cast<std::size_t>(pid)];
  }

  /// Forces every file's decode (coverage/salvage reporting).
  void decode_all() {
    if (layout == Layout::split) {
      for (int p = 0; p < nprocs; ++p) process_actions(p);
    } else if (layout == Layout::merged) {
      process_actions(0);
    }
  }
};

namespace {

/// Cursor over decoded actions, unpacking one record per call; pins the
/// storage (via a type-erased owner handle) so the records outlive any
/// TraceSet handle the caller may drop.
class DecodedSource final : public ActionSource {
 public:
  DecodedSource(std::shared_ptr<void> storage, const PackedActions& actions)
      : storage_(std::move(storage)),
        actions_(actions),
        next_(actions.data()),
        end_(actions.data() + actions.size()) {}
  std::optional<Action> next() override {
    if (next_ == end_) return std::nullopt;
    return actions_.unpack(*next_++);
  }

 private:
  std::shared_ptr<void> storage_;
  const PackedActions& actions_;
  const PackedAction* next_;
  const PackedAction* end_;
};

}  // namespace

TraceSet::TraceSet() : storage_(std::make_shared<Storage>()) {}

TraceSet::~TraceSet() = default;

TraceSet TraceSet::per_process_files(std::vector<std::filesystem::path> files,
                                     DecodeMode mode, DecodePolicy policy) {
  if (files.empty()) throw Error("TraceSet: no trace files");
  TraceSet set;
  set.storage_ = std::make_shared<Storage>();
  set.storage_->layout = Storage::Layout::split;
  set.storage_->nprocs = static_cast<int>(files.size());
  set.storage_->mode = mode;
  set.storage_->policy = policy;
  set.storage_->files = std::move(files);
  set.storage_->decoded.resize(set.storage_->files.size());
  set.storage_->salvage.resize(set.storage_->files.size());
  set.storage_->decode_once =
      std::make_unique<Once[]>(set.storage_->files.size());
  return set;
}

TraceSet TraceSet::merged_file(std::filesystem::path file, int nprocs,
                               DecodeMode mode, DecodePolicy policy) {
  if (nprocs <= 0) throw Error("TraceSet: nprocs must be positive");
  TraceSet set;
  set.storage_ = std::make_shared<Storage>();
  set.storage_->layout = Storage::Layout::merged;
  set.storage_->nprocs = nprocs;
  set.storage_->mode = mode;
  set.storage_->policy = policy;
  set.storage_->files.push_back(std::move(file));
  set.storage_->decoded.resize(static_cast<std::size_t>(nprocs));
  set.storage_->salvage.resize(1);
  set.storage_->decode_once = std::make_unique<Once[]>(1);
  return set;
}

TraceSet TraceSet::in_memory(std::vector<std::vector<Action>> actions) {
  if (actions.empty()) throw Error("TraceSet: no processes");
  TraceSet set;
  set.storage_ = std::make_shared<Storage>();
  set.storage_->layout = Storage::Layout::memory;
  set.storage_->nprocs = static_cast<int>(actions.size());
  auto& decoded = set.storage_->decoded;
  decoded.reserve(actions.size());
  for (std::size_t p = 0; p < actions.size(); ++p) {
    PackedActions& stream = decoded.emplace_back(static_cast<int>(p));
    stream.reserve(actions[p].size());
    for (const Action& a : actions[p]) stream.push_back(a);
    stream.shrink_to_fit();
  }
  return set;
}

int TraceSet::nprocs() const { return storage_->nprocs; }

ActionView TraceSet::actions(int pid) const {
  if (pid < 0 || pid >= storage_->nprocs)
    throw Error("TraceSet: invalid process id " + std::to_string(pid));
  return ActionView(storage_->process_actions(pid));
}

std::unique_ptr<ActionSource> TraceSet::open(int pid) const {
  Storage& s = *storage_;
  if (pid < 0 || pid >= s.nprocs)
    throw Error("TraceSet: invalid process id " + std::to_string(pid));
  s.ensure_policy();
  if (s.effective_stream) {
    const std::size_t file =
        s.layout == Storage::Layout::split ? static_cast<std::size_t>(pid)
                                           : 0;
    const int filter = s.layout == Storage::Layout::merged ? pid : -1;
    return open_stream(s.index[file], filter, storage_);
  }
  return std::make_unique<DecodedSource>(storage_,
                                         s.process_actions(pid));
}

TraceStats TraceSet::stats() const {
  Storage& s = *storage_;
  s.ensure_policy();
  TraceStats total;
  if (s.effective_stream) {
    // The index builders already accounted every distributed action.
    for (const auto& idx : s.index) total += idx->stats;
    return total;
  }
  for (int p = 0; p < s.nprocs; ++p) {
    const auto source = open(p);
    while (const auto a = source->next()) total.account(*a);
  }
  return total;
}

std::uint64_t TraceSet::action_count(int pid) const {
  Storage& s = *storage_;
  if (pid < 0 || pid >= s.nprocs)
    throw Error("TraceSet: invalid process id " + std::to_string(pid));
  s.ensure_policy();
  if (s.effective_stream) {
    if (s.layout == Storage::Layout::split)
      return s.index[static_cast<std::size_t>(pid)]->total_actions;
    return s.index[0]->action_count(pid);
  }
  return actions(pid).size();
}

std::uint64_t TraceSet::disk_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& f : storage_->files) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(f, ec);
    if (!ec) bytes += size;
  }
  return bytes;
}

std::uint64_t TraceSet::decode_count() const {
  return storage_->decodes.load(std::memory_order_relaxed);
}

DecodePolicy TraceSet::decode_policy() const { return storage_->policy; }

bool TraceSet::streaming() const {
  storage_->ensure_policy();
  return storage_->effective_stream;
}

std::uint64_t TraceSet::index_count() const {
  return storage_->index_builds.load(std::memory_order_relaxed);
}

std::uint64_t TraceSet::resident_bytes() const {
  Storage& s = *storage_;
  s.ensure_policy();
  std::uint64_t bytes = 0;
  if (s.effective_stream) {
    for (const auto& idx : s.index) bytes += idx->resident_bytes();
    return bytes;
  }
  for (int p = 0; p < s.nprocs; ++p)
    bytes += s.process_actions(p).resident_bytes();
  return bytes;
}

double TraceSet::coverage() const {
  Storage& s = *storage_;
  s.ensure_policy();
  std::uint64_t consumed = 0;
  std::uint64_t total = 0;
  if (s.effective_stream) {
    for (const auto& idx : s.index) {
      consumed += idx->salvage.bytes_consumed;
      total += idx->salvage.bytes_total;
    }
  } else {
    s.decode_all();
    for (const SalvageInfo& info : s.salvage) {
      consumed += info.bytes_consumed;
      total += info.bytes_total;
    }
  }
  return total == 0 ? 1.0
                    : static_cast<double>(consumed) /
                          static_cast<double>(total);
}

std::vector<SalvageInfo> TraceSet::salvage_report() const {
  Storage& s = *storage_;
  s.ensure_policy();
  if (s.effective_stream) {
    std::vector<SalvageInfo> report;
    report.reserve(s.index.size());
    for (const auto& idx : s.index) report.push_back(idx->salvage);
    return report;
  }
  s.decode_all();
  return s.salvage;
}

std::vector<std::filesystem::path> process_trace_files(
    const std::vector<std::filesystem::path>& paths) {
  std::vector<std::filesystem::path> files;
  for (const auto& path : paths) {
    if (!std::filesystem::is_directory(path)) {
      files.push_back(path);
      continue;
    }
    for (int pid = 0;; ++pid) {
      auto file = path / ("SG_process" + std::to_string(pid) + ".trace");
      if (!std::filesystem::exists(file)) {
        if (pid == 0)
          throw IoError("no SG_process0.trace in trace directory '" +
                        path.string() + "'");
        break;
      }
      files.push_back(std::move(file));
    }
  }
  return files;
}

}  // namespace tir::trace
