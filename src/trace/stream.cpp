#include "trace/stream.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "trace/compact.hpp"
#include "trace/trace_format.hpp"

namespace tir::trace {

namespace {

StreamIndex fallback_index(const std::filesystem::path& path) {
  StreamIndex idx;
  idx.fallback = true;
  idx.path = path;
  return idx;
}

/// One open trace file: a descriptor read through a small buffer at a
/// tracked byte offset, and the identity fstat gave that descriptor at
/// open. The pass sniffs, indexes and decodes each file through one of
/// these, and every cursor opens its own. A file that cannot be opened
/// reads as empty with ok() false, and its identity comes from stat; a
/// read that fails (a directory opens but reads EISDIR) throws IoError.
class TraceFile {
 public:
  explicit TraceFile(const std::filesystem::path& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)), path_(path) {
    const auto id = fd_ >= 0 ? fd_identity(fd_) : stat_identity(path);
    if (id) identity_ = *id;
  }

  TraceFile(TraceFile&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)),
        path_(std::move(other.path_)),
        identity_(other.identity_),
        buf_(std::move(other.buf_)),
        buf_start_(other.buf_start_),
        pos_(other.pos_),
        len_(other.len_) {}

  TraceFile(const TraceFile&) = delete;
  TraceFile& operator=(const TraceFile&) = delete;
  TraceFile& operator=(TraceFile&&) = delete;

  ~TraceFile() { close(); }

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  const FileIdentity& identity() const { return identity_; }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Byte offset of the next byte get() returns.
  std::uint64_t offset() const { return buf_start_ + pos_; }

  /// Next byte, or EOF.
  int get() {
    if (pos_ == len_ && !fill()) return EOF;
    return static_cast<unsigned char>(buf_[pos_++]);
  }

  /// Copies up to `n` bytes into `out`; returns how many there were.
  std::uint64_t read(char* out, std::uint64_t n) {
    std::uint64_t done = 0;
    while (done < n && (pos_ < len_ || fill())) {
      const auto take = static_cast<std::size_t>(
          std::min<std::uint64_t>(n - done, len_ - pos_));
      std::memcpy(out + done, buf_.data() + pos_, take);
      pos_ += take;
      done += take;
    }
    return done;
  }

  /// Next line, newline stripped, into `out`; false at end of file.
  bool read_line(std::string& out) {
    out.clear();
    bool any = false;
    while (pos_ < len_ || fill()) {
      any = true;
      const char* start = buf_.data() + pos_;
      const auto* nl =
          static_cast<const char*>(std::memchr(start, '\n', len_ - pos_));
      const std::size_t n =
          nl ? static_cast<std::size_t>(nl - start) : len_ - pos_;
      out.append(start, n);
      pos_ += n;
      if (nl) {
        ++pos_;
        return true;
      }
    }
    return any;
  }

  /// Repositions at `offset`. A target inside the buffer moves no
  /// descriptor, so the pass re-reads a sniffed text file from byte 0 even
  /// when it cannot seek (a pipe).
  void seek(std::uint64_t offset) {
    if (offset >= buf_start_ && offset - buf_start_ <= len_) {
      pos_ = static_cast<std::size_t>(offset - buf_start_);
      return;
    }
    if (fd_ >= 0) ::lseek(fd_, static_cast<off_t>(offset), SEEK_SET);
    buf_start_ = offset;
    pos_ = len_ = 0;
  }

 private:
  static constexpr std::size_t kBufferBytes = 8192;

  bool fill() {
    buf_start_ += len_;
    pos_ = len_ = 0;
    if (fd_ < 0) return false;
    if (buf_.empty()) buf_.resize(kBufferBytes);
    ssize_t got = 0;
    do {
      got = ::read(fd_, buf_.data(), buf_.size());
    } while (got < 0 && errno == EINTR);
    if (got < 0)
      throw IoError("cannot read trace file '" + path_.string() +
                    "': " + std::strerror(errno));
    if (got == 0) return false;
    len_ = static_cast<std::size_t>(got);
    return true;
  }

  int fd_;
  std::filesystem::path path_;
  FileIdentity identity_;
  std::vector<char> buf_;
  std::uint64_t buf_start_ = 0;  ///< file offset of buf_[0]
  std::size_t pos_ = 0;          ///< next byte in buf_
  std::size_t len_ = 0;          ///< valid bytes in buf_
};

/// Reads a file's magic: binary and compact readers continue on `file`,
/// positioned after it. A file too short for a magic, or one that cannot
/// be opened, is text (the text pass reports it).
TraceFormat sniff(TraceFile& file) {
  char magic[sizeof(kBinaryMagic)];
  if (file.read(magic, sizeof(magic)) == sizeof(magic)) {
    if (std::memcmp(magic, kBinaryMagic, sizeof(magic)) == 0)
      return TraceFormat::binary;
    if (std::memcmp(magic, kCompactMagic, sizeof(magic)) == 0)
      return TraceFormat::compact;
  }
  return TraceFormat::text;
}

/// Records a lenient-mode decode error: the salvage keeps the clean prefix
/// that ends at `offset`.
void record_error(SalvageInfo& salvage, std::string what,
                  std::uint64_t offset) {
  salvage.complete = false;
  salvage.error = std::move(what);
  salvage.bytes_consumed = std::min(offset, salvage.bytes_total);
}

/// The distribution step every builder shares. In merged layout a pid
/// outside [0, nprocs) stops distribution: strict mode defers that error to
/// the end of a clean parse, so a parse error anywhere in the file outranks
/// an earlier wild pid; lenient mode keeps what came before it. Accepted
/// actions grow the index's per-pid segments or, when the pass
/// materialises, the per-pid packed stores.
class Distributor {
 public:
  Distributor(StreamIndex& idx, int merged_nprocs,
              std::vector<PackedActions>* actions)
      : idx_(idx), merged_nprocs_(merged_nprocs), actions_(actions) {}

  /// Range check and collection; false when `a` is not distributed (a wild
  /// pid, or anything after one). `offset` locates the record holding `a`.
  bool route(const Action& a, std::uint64_t offset) {
    if (!wild_error_.empty()) return false;
    const bool merged = merged_nprocs_ >= 0;
    if (merged && (a.pid < 0 || a.pid >= merged_nprocs_)) {
      wild_error_ = idx_.path.string() + ": action for process " +
                    std::to_string(a.pid) + " but nprocs is " +
                    std::to_string(merged_nprocs_);
      wild_offset_ = offset;
      return false;
    }
    if (actions_ != nullptr)
      (*actions_)[merged ? static_cast<std::size_t>(a.pid) : 0].push_back(a);
    return true;
  }

  /// route() plus the text/binary index bookkeeping: segments (indexing
  /// only), the action count and the statistics.
  void add(const Action& a, std::uint64_t offset) {
    if (!route(a, offset)) return;
    if (actions_ == nullptr) extend_segments(a.pid, offset);
    ++idx_.total_actions;
    idx_.stats.account(a);
  }

  /// True once indexing needed more than kMaxStreamSegments segments.
  bool overflow() const { return overflow_; }

  /// Ends the pass, at clean EOF or after a lenient decode error. A wild
  /// pid throws in strict mode; in lenient mode it marks the salvage
  /// incomplete (an earlier parse error keeps its text) and caps
  /// bytes_consumed at the wild pid's record.
  void finish(DecodeMode mode) {
    if (wild_error_.empty()) return;
    if (mode == DecodeMode::strict) throw ParseError(wild_error_);
    SalvageInfo& salvage = idx_.salvage;
    salvage.complete = false;
    if (salvage.error.empty()) salvage.error = wild_error_;
    salvage.bytes_consumed = std::min(salvage.bytes_consumed, wild_offset_);
  }

 private:
  /// Grows per-pid runs one action at a time. Split files collapse into a
  /// single run regardless of record pids — the whole file is one
  /// process's stream, kept verbatim.
  void extend_segments(int pid, std::uint64_t offset) {
    const int key = merged_nprocs_ >= 0 ? pid : -1;
    auto& segments = idx_.segments;
    if (!segments.empty() && segments.back().pid == key) {
      ++segments.back().count;
      return;
    }
    if (segments.size() >= kMaxStreamSegments) {
      overflow_ = true;
      return;
    }
    segments.push_back({key, offset, 1});
  }

  StreamIndex& idx_;
  int merged_nprocs_;
  std::vector<PackedActions>* actions_;
  std::string wild_error_;
  std::uint64_t wild_offset_ = 0;
  bool overflow_ = false;
};

/// Line reader over one text file: mmap + memchr where the file maps (no
/// per-line copy), degrading to buffered reads of the open file. Bounded
/// memory either way: the fallback keeps one line resident, and the mapping
/// keeps a window. Once kWindowBytes have been read past the last drop, the
/// mapped pages behind the current line's page are dropped
/// (MADV_DONTNEED); the mapping is read-only, so reading them again after a
/// backward seek re-faults them from the page cache. The index pass reads
/// it front to back; a cursor seeks it to each of its segments.
class LineReader {
 public:
  /// Reads `file` from its first byte, wherever it is positioned.
  explicit LineReader(TraceFile file) : file_(std::move(file)) {
    const std::uint64_t size = file_.identity().size;
    if (file_.ok() && size > 0) {
      void* p = ::mmap(nullptr, static_cast<std::size_t>(size), PROT_READ,
                       MAP_PRIVATE, file_.fd(), 0);
      if (p != MAP_FAILED) {
        data_ = static_cast<const char*>(p);
        size_ = size;
        file_.close();  // the mapping outlives the descriptor
        return;
      }
    }
    file_.seek(0);
  }

  ~LineReader() {
    if (data_ != nullptr)
      ::munmap(const_cast<char*>(data_), static_cast<std::size_t>(size_));
  }

  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  bool ok() const { return data_ != nullptr || file_.ok(); }

  /// Repositions at a line start recorded by offset().
  void seek(std::uint64_t offset) {
    if (data_ != nullptr) {
      pos_ = std::min(offset, size_);
      kept_ = std::min(kept_, page_floor(pos_));
    } else {
      file_.seek(offset);
    }
  }

  /// Next line (newline stripped), or nullopt at EOF.
  std::optional<std::string_view> next() {
    if (data_ != nullptr) {
      line_start_ = pos_;
      if (pos_ >= size_) return std::nullopt;
      if (pos_ - kept_ >= kWindowBytes) drop_behind(pos_);
      const char* start = data_ + pos_;
      const auto* nl = static_cast<const char*>(
          std::memchr(start, '\n', static_cast<std::size_t>(size_ - pos_)));
      const std::uint64_t len =
          nl ? static_cast<std::uint64_t>(nl - start) : size_ - pos_;
      pos_ += len + (nl ? 1 : 0);
      return std::string_view(start, static_cast<std::size_t>(len));
    }
    line_start_ = file_.offset();
    if (!file_.read_line(line_)) return std::nullopt;
    return std::string_view(line_);
  }

  /// Byte offset of the line next() just returned.
  std::uint64_t offset() const { return line_start_; }

 private:
  /// Mapped bytes read past the last drop before the pages behind the
  /// current line are dropped.
  static constexpr std::uint64_t kWindowBytes = 256 << 10;

  static std::uint64_t page_floor(std::uint64_t offset) {
    static const auto page =
        static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    return offset - offset % page;
  }

  /// Drops the mapped pages in [kept_, the page holding `offset`).
  void drop_behind(std::uint64_t offset) {
    const std::uint64_t end = page_floor(offset);
    if (end <= kept_) return;
    ::madvise(const_cast<char*>(data_) + kept_,
              static_cast<std::size_t>(end - kept_), MADV_DONTNEED);
    kept_ = end;
  }

  TraceFile file_;              ///< read when the file does not map
  const char* data_ = nullptr;  ///< the mapping; null when reading file_
  std::uint64_t size_ = 0;
  std::uint64_t pos_ = 0;  ///< byte offset of the next mapped line
  std::uint64_t kept_ = 0;  ///< page-aligned start of the resident window
  std::uint64_t line_start_ = 0;
  std::string line_;
};

/// Bytes of a binary or compact file, read from the file the sniff opened.
class ByteReader {
 protected:
  /// `in` is positioned after the magic.
  ByteReader(const std::filesystem::path& path, TraceFile in)
      : path_(path), in_(std::move(in)) {}

  std::uint64_t varint() {
    std::uint64_t value = 0;
    int shift = 0;
    for (;;) {
      const int byte = in_.get();
      if (byte == EOF) throw ParseError(path_.string() + ": truncated varint");
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
      if (shift > 63) throw ParseError(path_.string() + ": varint overflow");
    }
  }

  /// Reads `n` bytes into `out`; false when the file ends first.
  bool read(char* out, std::uint64_t n) { return in_.read(out, n) == n; }

  std::filesystem::path path_;
  TraceFile in_;
};

/// Reader over a binary trace (layout in trace_format.hpp): the index pass
/// and the binary cursor both decode through it.
class BinaryReader : ByteReader {
 public:
  BinaryReader(const std::filesystem::path& path, TraceFile in)
      : ByteReader(path, std::move(in)) {
    const int version = in_.get();
    if (version != kBinaryVersion)
      throw ParseError(path.string() + ": unsupported binary trace version " +
                       std::to_string(version));
    const std::uint64_t pid_plus_1 = varint();
    default_pid_ = pid_plus_1 == 0 ? -1 : static_cast<int>(pid_plus_1 - 1);
  }

  /// Offset of the next record (the pass snapshots it before each one to
  /// locate segments and the clean prefix).
  std::uint64_t offset() const { return in_.offset(); }

  /// Repositions at a record boundary offset() reported.
  void seek(std::uint64_t offset) { in_.seek(offset); }

  /// Next action, or nullopt at end of file.
  std::optional<Action> next() {
    const int tag_byte = in_.get();
    if (tag_byte == EOF) return std::nullopt;
    const auto tag = static_cast<std::uint8_t>(tag_byte);
    const auto type_raw = static_cast<int>(tag & 0x0F);
    if (type_raw > static_cast<int>(ActionType::waitall))
      throw ParseError(path_.string() + ": corrupt action tag");
    Action a;
    a.type = static_cast<ActionType>(type_raw);
    a.pid = default_pid_ >= 0 ? default_pid_ : static_cast<int>(varint());

    const auto volume = [&](bool as_double) {
      if (!as_double) return static_cast<double>(varint());
      char raw[sizeof(double)];
      if (!read(raw, sizeof(double)))
        throw ParseError(path_.string() + ": truncated double");
      double value;
      std::memcpy(&value, raw, sizeof(double));
      if (!std::isfinite(value))
        throw ParseError(path_.string() + ": non-finite volume");
      return value;
    };
    const bool v_double = (tag & kVolumeIsDouble) != 0;
    const bool v2_double = (tag & kVolume2IsDouble) != 0;

    switch (a.type) {
      case ActionType::compute:
      case ActionType::bcast:
      case ActionType::gather:
      case ActionType::allgather:
      case ActionType::alltoall:
        a.volume = volume(v_double);
        break;
      case ActionType::send:
      case ActionType::isend:
      case ActionType::recv:
      case ActionType::irecv:
        a.partner = static_cast<int>(varint());
        a.volume = volume(v_double);
        break;
      case ActionType::reduce:
      case ActionType::allreduce:
        a.volume = volume(v_double);
        a.volume2 = volume(v2_double);
        break;
      case ActionType::comm_size:
        a.comm_size = static_cast<int>(varint());
        break;
      case ActionType::barrier:
      case ActionType::wait:
      case ActionType::waitall:
        break;
    }
    return a;
  }

 private:
  int default_pid_ = -1;  ///< the header's factored-out pid, -1 per record
};

/// Reader over a TIRC container (layout in trace_format.hpp): the index
/// pass, the block cursor and the expansion hint all decode through it.
class TircReader : ByteReader {
 public:
  TircReader(const std::filesystem::path& path, TraceFile in)
      : ByteReader(path, std::move(in)), size_(in_.identity().size) {
    if (in_.get() != kCompactVersion)
      throw ParseError(path.string() + ": unsupported compact-trace version");
    varint();  // header pid (informational)
    blocks_ = varint();
  }

  /// Block count the header declares.
  std::uint64_t blocks() const { return blocks_; }

  /// Reads the block header at the current position.
  StreamIndex::Block block() {
    StreamIndex::Block block;
    block.offset = in_.offset();
    block.repeat = static_cast<std::uint32_t>(varint());  // LoopBlock::count
    block.body_actions = varint();
    return block;
  }

  /// Parses the next body entry.
  Action entry() { return parse_line(entry_bytes()); }

  /// Steps over the next body entry without parsing it.
  void skip_entry() { entry_bytes(); }

  /// Repositions at a block header recorded by block().
  void seek(std::uint64_t offset) { in_.seek(offset); }

 private:
  std::string_view entry_bytes() {
    const std::uint64_t len = varint();
    // A length past the end of the file is truncation; checking it first
    // keeps a corrupt length from sizing the buffer.
    if (len <= size_) {
      line_.resize(static_cast<std::size_t>(len));
      if (read(line_.data(), len)) return line_;
    }
    throw ParseError(path_.string() + ": truncated action");
  }

  std::uint64_t size_;
  std::uint64_t blocks_ = 0;
  std::string line_;
};

/// Saturating a + b: a corrupt header must not wrap an expansion count.
std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return a > std::numeric_limits<std::uint64_t>::max() - b
             ? std::numeric_limits<std::uint64_t>::max()
             : a + b;
}

/// Actions one block expands to, saturating.
std::uint64_t block_expansion(const StreamIndex::Block& block) {
  if (block.body_actions != 0 &&
      block.repeat >
          std::numeric_limits<std::uint64_t>::max() / block.body_actions)
    return std::numeric_limits<std::uint64_t>::max();
  return block.repeat * block.body_actions;
}

/// An empty index of `file`: its path and format, and the identity and
/// size its open descriptor reported.
StreamIndex new_index(const std::filesystem::path& path, TraceFormat format,
                      const TraceFile& file) {
  StreamIndex idx;
  idx.format = format;
  idx.path = path;
  idx.identity = file.identity();
  idx.salvage.bytes_total = file.identity().size;
  return idx;
}

StreamIndex build_text_index(const std::filesystem::path& path,
                             TraceFile file, DecodeMode mode,
                             int merged_nprocs,
                             std::vector<PackedActions>* actions) {
  StreamIndex idx = new_index(path, TraceFormat::text, file);
  LineReader lines(std::move(file));
  if (!lines.ok()) {
    std::string what = "cannot open trace file '" + path.string() + "'";
    if (mode == DecodeMode::strict) throw IoError(what);
    record_error(idx.salvage, std::move(what), 0);
    return idx;
  }

  Distributor dist(idx, merged_nprocs, actions);
  std::uint64_t line_no = 0;
  while (const auto line = lines.next()) {
    ++line_no;
    const auto trimmed = str::trim(*line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    Action a;
    try {
      a = parse_line(trimmed);
    } catch (const ParseError& e) {
      std::string what =
          path.string() + ":" + std::to_string(line_no) + ": " + e.what();
      if (mode == DecodeMode::strict) throw ParseError(what);
      record_error(idx.salvage, std::move(what), lines.offset());
      dist.finish(mode);
      return idx;
    }
    dist.add(a, lines.offset());
    if (dist.overflow()) return fallback_index(path);
  }
  idx.salvage.bytes_consumed = idx.salvage.bytes_total;  // clean to EOF
  dist.finish(mode);
  return idx;
}

StreamIndex build_binary_index(const std::filesystem::path& path,
                               TraceFile file, DecodeMode mode,
                               int merged_nprocs,
                               std::vector<PackedActions>* actions) {
  StreamIndex idx = new_index(path, TraceFormat::binary, file);
  std::optional<BinaryReader> reader;
  try {
    reader.emplace(path, std::move(file));
  } catch (const Error& e) {  // bad version / truncated header
    if (mode == DecodeMode::strict) throw;
    record_error(idx.salvage, e.what(), 0);
    return idx;
  }

  Distributor dist(idx, merged_nprocs, actions);
  for (;;) {
    // Snapshot the offset before each record so a mid-record truncation
    // salvages exactly the records before it.
    const std::uint64_t offset = reader->offset();
    std::optional<Action> a;
    try {
      a = reader->next();
    } catch (const Error& e) {
      if (mode == DecodeMode::strict) throw;
      record_error(idx.salvage, e.what(), offset);
      dist.finish(mode);
      return idx;
    }
    if (!a) break;
    dist.add(*a, offset);
    if (dist.overflow()) return fallback_index(path);
  }
  idx.salvage.bytes_consumed = idx.salvage.bytes_total;
  dist.finish(mode);
  return idx;
}

void add_scaled(TraceStats& total, const TraceStats& body,
                std::uint32_t count) {
  total.actions += body.actions * count;
  total.computes += body.computes * count;
  total.p2p_messages += body.p2p_messages * count;
  total.collectives += body.collectives * count;
  total.total_flops += body.total_flops * count;
  total.total_bytes_sent += body.total_bytes_sent * count;
}

StreamIndex build_compact_index(const std::filesystem::path& path,
                                TraceFile file, DecodeMode mode,
                                int merged_nprocs,
                                std::vector<PackedActions>* actions) {
  // A merged compact file interleaves pids inside loop bodies; per-pid
  // segments don't apply, so it can only materialise.
  if (merged_nprocs >= 0 && actions == nullptr) return fallback_index(path);

  StreamIndex idx = new_index(path, TraceFormat::compact, file);
  constexpr std::uint64_t kBudgetActions =
      kMaterialiseBudgetBytes / sizeof(Action);
  CompactProgram program;  // the loop bodies, kept when collecting
  bool over_budget = false;
  try {
    TircReader tirc(path, std::move(file));
    idx.blocks.reserve(std::min<std::uint64_t>(tirc.blocks(), 1 << 20));
    for (std::uint64_t b = 0; b < tirc.blocks(); ++b) {
      const StreamIndex::Block block = tirc.block();
      LoopBlock loop{block.repeat, {}};
      TraceStats body_stats;
      for (std::uint64_t k = 0; k < block.body_actions; ++k) {
        const Action a = tirc.entry();
        body_stats.account(a);
        if (actions != nullptr) loop.body.push_back(a);
      }
      const std::uint64_t expanded =
          saturating_add(idx.total_actions, block_expansion(block));
      if (actions != nullptr && expanded > kBudgetActions) {
        over_budget = true;
        throw Error(path.string() + ": compact expansion reaches " +
                    std::to_string(expanded) +
                    " actions, over the materialise budget of " +
                    std::to_string(kBudgetActions) + " actions (" +
                    std::to_string(kMaterialiseBudgetBytes) +
                    " bytes of decoded actions)");
      }
      idx.blocks.push_back(block);
      idx.total_actions = expanded;
      add_scaled(idx.stats, body_stats, block.repeat);
      if (actions != nullptr) program.push_back(std::move(loop));
    }
    idx.salvage.bytes_consumed = idx.salvage.bytes_total;
  } catch (const std::exception& e) {
    if (mode == DecodeMode::strict || over_budget) throw;
    // All-or-nothing: a length-prefixed container either decodes cleanly
    // or salvages nothing.
    idx.blocks.clear();
    idx.total_actions = 0;
    idx.stats = TraceStats{};
    record_error(idx.salvage, e.what(), 0);
    return idx;
  }

  if (actions == nullptr) return idx;
  // Expand only what parsed cleanly and fits the budget. A split file packs
  // each body once and repeats its records.
  if (merged_nprocs < 0) {
    PackedActions& stream = actions->front();
    stream.reserve(static_cast<std::size_t>(idx.total_actions));
    for (const LoopBlock& block : program) {
      if (block.count == 0) continue;
      for (const Action& a : block.body) stream.push_back(a);
      stream.repeat_tail(block.body.size(), block.count - 1);
    }
    return idx;
  }
  Distributor dist(idx, merged_nprocs, actions);
  for (std::size_t b = 0; b < program.size(); ++b)
    for (std::uint32_t r = 0; r < program[b].count; ++r)
      for (const Action& a : program[b].body)
        dist.route(a, idx.blocks[b].offset);
  dist.finish(mode);
  return idx;
}

// ---------------------------------------------------------------------------
// Cursors

/// Positions a freshly opened binary or compact file after its magic, where
/// the readers' headers start (cursors).
TraceFile after_magic(TraceFile file) {
  file.seek(sizeof(kBinaryMagic));
  return file;
}

/// Text cursor: a LineReader seeked to each of the pid's segments in turn.
class MmapTextSource final : public ActionSource {
 public:
  MmapTextSource(std::shared_ptr<const StreamIndex> index, int pid_filter,
                 std::shared_ptr<void> owner, TraceFile file)
      : owner_(std::move(owner)),
        index_(std::move(index)),
        pid_filter_(pid_filter),
        lines_(std::move(file)) {}

  std::optional<Action> next() override {
    for (;;) {
      while (remaining_ == 0) {
        if (!enter_next_segment()) return std::nullopt;
      }
      const auto line = lines_.next();
      if (!line) return std::nullopt;  // file shrank under us
      const auto trimmed = str::trim(*line);
      if (trimmed.empty() || trimmed[0] == '#') continue;
      --remaining_;
      return parse_line(trimmed);
    }
  }

 private:
  bool enter_next_segment() {
    const auto& segments = index_->segments;
    while (seg_ < segments.size() &&
           !(pid_filter_ < 0 || segments[seg_].pid == pid_filter_))
      ++seg_;
    if (seg_ >= segments.size()) return false;
    lines_.seek(segments[seg_].offset);
    remaining_ = segments[seg_].count;
    ++seg_;
    return true;
  }

  std::shared_ptr<void> owner_;
  std::shared_ptr<const StreamIndex> index_;
  int pid_filter_;
  std::size_t seg_ = 0;
  std::uint64_t remaining_ = 0;
  LineReader lines_;
};

/// Binary cursor: one BinaryReader (the reader the index pass ran), seeked
/// to each of the pid's segments in turn.
class BinarySegmentSource final : public ActionSource {
 public:
  BinarySegmentSource(std::shared_ptr<const StreamIndex> index,
                      int pid_filter, std::shared_ptr<void> owner,
                      TraceFile file)
      : owner_(std::move(owner)),
        index_(std::move(index)),
        pid_filter_(pid_filter),
        reader_(index_->path, after_magic(std::move(file))) {}

  std::optional<Action> next() override {
    while (remaining_ == 0) {
      const auto& segments = index_->segments;
      while (seg_ < segments.size() &&
             !(pid_filter_ < 0 || segments[seg_].pid == pid_filter_))
        ++seg_;
      if (seg_ >= segments.size()) return std::nullopt;
      reader_.seek(segments[seg_].offset);
      remaining_ = segments[seg_].count;
      ++seg_;
    }
    --remaining_;
    return reader_.next();
  }

 private:
  std::shared_ptr<void> owner_;
  std::shared_ptr<const StreamIndex> index_;
  int pid_filter_;
  BinaryReader reader_;
  std::size_t seg_ = 0;
  std::uint64_t remaining_ = 0;
};

/// Compact cursor: loads one loop body at a time (re-parsed from its block
/// offset), then replays it from memory `repeat` times. Peak memory is the
/// largest body, not the expansion — a 10^8-action loop costs its body.
class CompactBlockSource final : public ActionSource {
 public:
  CompactBlockSource(std::shared_ptr<const StreamIndex> index,
                     std::shared_ptr<void> owner, TraceFile file)
      : owner_(std::move(owner)),
        index_(std::move(index)),
        reader_(index_->path, after_magic(std::move(file))) {}

  std::optional<Action> next() override {
    for (;;) {
      if (repeats_left_ > 0) {
        if (offset_ < body_.size()) return body_[offset_++];
        offset_ = 0;
        --repeats_left_;
        if (repeats_left_ > 0) return body_[offset_++];
      }
      if (!load_next_block()) return std::nullopt;
    }
  }

 private:
  bool load_next_block() {
    const auto& blocks = index_->blocks;
    while (block_ < blocks.size()) {
      const StreamIndex::Block& blk = blocks[block_++];
      if (blk.repeat == 0 || blk.body_actions == 0) continue;
      reader_.seek(blk.offset);
      reader_.block();  // the index already holds the header
      body_.clear();
      for (std::uint64_t k = 0; k < blk.body_actions; ++k)
        body_.push_back(reader_.entry());
      repeats_left_ = blk.repeat;
      offset_ = 0;
      return true;
    }
    return false;
  }

  std::shared_ptr<void> owner_;
  std::shared_ptr<const StreamIndex> index_;
  TircReader reader_;
  std::size_t block_ = 0;
  std::vector<Action> body_;
  std::uint32_t repeats_left_ = 0;
  std::size_t offset_ = 0;
};

}  // namespace

std::uint64_t StreamIndex::action_count(int pid) const {
  if (format == TraceFormat::compact) return total_actions;
  std::uint64_t n = 0;
  for (const Segment& s : segments)
    if (s.pid < 0 || s.pid == pid) n += s.count;
  return n;
}

std::uint64_t StreamIndex::resident_bytes() const {
  return sizeof(StreamIndex) + segments.capacity() * sizeof(Segment) +
         blocks.capacity() * sizeof(Block) +
         path.native().capacity() + salvage.error.capacity();
}

StreamIndex build_stream_index(const std::filesystem::path& path,
                               DecodeMode mode, int merged_nprocs,
                               std::vector<PackedActions>* actions) {
  TraceFile file(path);
  TraceFormat format = TraceFormat::text;
  try {
    format = sniff(file);
  } catch (const IoError& e) {  // opened but unreadable, e.g. a directory
    if (mode == DecodeMode::strict) throw;
    StreamIndex idx = new_index(path, TraceFormat::text, file);
    record_error(idx.salvage, e.what(), 0);
    return idx;
  }
  switch (format) {
    case TraceFormat::binary:
      return build_binary_index(path, std::move(file), mode, merged_nprocs,
                                actions);
    case TraceFormat::compact:
      return build_compact_index(path, std::move(file), mode, merged_nprocs,
                                 actions);
    case TraceFormat::text:
      break;
  }
  return build_text_index(path, std::move(file), mode, merged_nprocs,
                          actions);
}

std::uint64_t compact_expanded_hint(
    const std::filesystem::path& path) noexcept {
  try {
    TraceFile file(path);
    if (sniff(file) != TraceFormat::compact) return 0;
    TircReader tirc(path, std::move(file));
    std::uint64_t total = 0;
    for (std::uint64_t b = 0; b < tirc.blocks(); ++b) {
      const StreamIndex::Block block = tirc.block();
      for (std::uint64_t k = 0; k < block.body_actions; ++k)
        tirc.skip_entry();
      total = saturating_add(total, block_expansion(block));
    }
    return total;
  } catch (...) {
    return 0;
  }
}

std::unique_ptr<ActionSource> open_stream(
    std::shared_ptr<const StreamIndex> index, int pid_filter,
    std::shared_ptr<void> owner) {
  if (index->fallback)
    throw Error("open_stream: file is not streamable: " +
                index->path.string());
  // The cursor reads the file through the index's offsets, so the file must
  // still be the one the pass indexed; a rewrite fails the replay instead
  // of feeding it the new bytes through the old offsets.
  TraceFile file(index->path);
  if (!file.ok())
    throw IoError("cannot open trace file '" + index->path.string() + "'");
  if (!(file.identity() == index->identity))
    throw IoError("trace file '" + index->path.string() +
                  "' changed since it was indexed");
  switch (index->format) {
    case TraceFormat::binary:
      return std::make_unique<BinarySegmentSource>(
          std::move(index), pid_filter, std::move(owner), std::move(file));
    case TraceFormat::compact:
      return std::make_unique<CompactBlockSource>(
          std::move(index), std::move(owner), std::move(file));
    case TraceFormat::text:
      break;
  }
  return std::make_unique<MmapTextSource>(std::move(index), pid_filter,
                                          std::move(owner), std::move(file));
}

}  // namespace tir::trace
