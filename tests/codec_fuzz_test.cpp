// Format round-trip fuzz: randomly generated *valid* multi-process action
// streams survive every on-disk format (text, binary, compact) exactly,
// re-encoding is a byte-level fixpoint, cross-format conversion chains
// preserve the stream, trace::validate reaches the same verdict whichever
// format carried the trace, and the bounded-memory streaming decoder yields
// element-identical sequences — including the salvage truncation points
// lenient decode picks on truncated files, checked against an independent
// salvage oracle below.
//
// Seeds are logged on every run; reproduce one case with
//   TIR_FUZZ_SEED=<seed> ./test_stream --gtest_filter='*CodecFuzz*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "trace/compact.hpp"
#include "trace/digest.hpp"
#include "trace/stream.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_set.hpp"
#include "trace/validate.hpp"
#include "trace_formats.hpp"

using namespace tir;
using trace::Action;
using trace::ActionType;
using test::kTraceFormats;
using test::read_bytes;
using test::read_trace;
using trace::TraceFormat;
using trace::write_trace;
namespace fs = std::filesystem;

namespace {

double random_volume(Rng& rng) {
  switch (rng.next_below(3)) {
    case 0: return static_cast<double>(rng.next_below(1u << 20));
    case 1: return static_cast<double>(rng.next_below(1ull << 40));
    default: return rng.uniform(0.0, 1e12);  // non-integral
  }
}

/// A random but *consistent* multi-process program: p2p sends and receives
/// pair up FIFO per (src, dst) with agreeing volumes, every rank runs the
/// same collective sequence, and waits never outnumber pending requests —
/// so trace::validate must accept it whatever the seed.
std::vector<std::vector<Action>> random_program(std::uint64_t seed,
                                                int nprocs, int rounds) {
  Rng rng(seed);
  std::vector<std::vector<Action>> per(static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p)
    per[static_cast<std::size_t>(p)].push_back(
        {p, ActionType::comm_size, -1, 0, 0, nprocs});
  for (int r = 0; r < rounds; ++r) {
    switch (rng.next_below(8)) {
      case 0:
        for (int p = 0; p < nprocs; ++p)
          per[static_cast<std::size_t>(p)].push_back(
              {p, ActionType::compute, -1, random_volume(rng), 0, 0});
        break;
      case 1: {  // ring exchange, matched volumes
        const double v = random_volume(rng);
        for (int p = 0; p < nprocs; ++p) {
          auto& mine = per[static_cast<std::size_t>(p)];
          mine.push_back({p, ActionType::send, (p + 1) % nprocs, v, 0, 0});
          mine.push_back(
              {p, ActionType::recv, (p + nprocs - 1) % nprocs, v, 0, 0});
        }
        break;
      }
      case 2: {  // nonblocking ring + waitall
        const double v = random_volume(rng);
        for (int p = 0; p < nprocs; ++p) {
          auto& mine = per[static_cast<std::size_t>(p)];
          mine.push_back({p, ActionType::isend, (p + 1) % nprocs, v, 0, 0});
          mine.push_back(
              {p, ActionType::irecv, (p + nprocs - 1) % nprocs, v, 0, 0});
          mine.push_back({p, ActionType::waitall, -1, 0, 0, 0});
        }
        break;
      }
      case 3: {
        const double v = random_volume(rng);
        for (int p = 0; p < nprocs; ++p)
          per[static_cast<std::size_t>(p)].push_back(
              {p, ActionType::bcast, -1, v, 0, 0});
        break;
      }
      case 4: {
        const double vcomm = random_volume(rng);
        const double vcomp = random_volume(rng);
        for (int p = 0; p < nprocs; ++p)
          per[static_cast<std::size_t>(p)].push_back(
              {p, ActionType::reduce, -1, vcomm, vcomp, 0});
        break;
      }
      case 5: {
        const double vcomm = random_volume(rng);
        const double vcomp = random_volume(rng);
        for (int p = 0; p < nprocs; ++p)
          per[static_cast<std::size_t>(p)].push_back(
              {p, ActionType::allreduce, -1, vcomm, vcomp, 0});
        break;
      }
      case 6:
        for (int p = 0; p < nprocs; ++p)
          per[static_cast<std::size_t>(p)].push_back(
              {p, ActionType::barrier, -1, 0, 0, 0});
        break;
      default: {
        const double v = random_volume(rng);
        const ActionType coll =
            rng.next_below(2) == 0 ? ActionType::allgather
                                   : ActionType::alltoall;
        for (int p = 0; p < nprocs; ++p)
          per[static_cast<std::size_t>(p)].push_back({p, coll, -1, v, 0, 0});
        break;
      }
    }
  }
  return per;
}

/// Seeds: the env override (TIR_FUZZ_SEED=<n>) reruns one failing case;
/// otherwise a fixed battery keeps the suite deterministic in CI.
std::vector<std::uint64_t> fuzz_seeds() {
  if (const char* env = std::getenv("TIR_FUZZ_SEED"))
    return {std::strtoull(env, nullptr, 0)};
  return {1, 7, 42, 99, 1234, 31337, 0xDEADBEEF};
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    RecordProperty("seed", std::to_string(GetParam()));
    std::printf("[ fuzz   ] seed=%llu (rerun: TIR_FUZZ_SEED=%llu)\n",
                static_cast<unsigned long long>(GetParam()),
                static_cast<unsigned long long>(GetParam()));
    dir_ = fs::temp_directory_path() /
           ("tir_codec_fuzz_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    fs::create_directories(dir_);
    program_ = random_program(GetParam(), 6, 40);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::vector<std::vector<Action>> program_;
};

}  // namespace

TEST_P(CodecFuzz, EveryCodecRoundTripsExactly) {
  for (const TraceFormat format : kTraceFormats) {
    for (int p = 0; p < static_cast<int>(program_.size()); ++p) {
      const auto& actions = program_[static_cast<std::size_t>(p)];
      const fs::path file =
          dir_ / (test::name(format) + std::to_string(p) + ".trace");
      write_trace(file, actions, p, format);
      EXPECT_EQ(read_trace(file), actions) << format << " pid " << p;
      // Sniffing must route the file back to the format that wrote it.
      EXPECT_EQ(
          trace::build_stream_index(file, trace::DecodeMode::strict, -1)
              .format,
          format);
    }
  }
}

TEST_P(CodecFuzz, ReEncodingDecodedOutputIsAByteFixpoint) {
  const auto& actions = program_[0];
  for (const TraceFormat format : kTraceFormats) {
    const fs::path first = dir_ / ("fix1." + test::name(format));
    const fs::path second = dir_ / ("fix2." + test::name(format));
    write_trace(first, actions, 0, format);
    write_trace(second, read_trace(first), 0, format);
    EXPECT_EQ(read_bytes(first), read_bytes(second)) << format;
  }
}

TEST_P(CodecFuzz, CrossCodecConversionChainPreservesTheStream) {
  const auto& actions = program_[1];
  // text -> binary -> compact -> text, re-decoding at every hop.
  const fs::path a = dir_ / "chain.trace";
  const fs::path b = dir_ / "chain.btrace";
  const fs::path c = dir_ / "chain.ctrace";
  const fs::path d = dir_ / "chain2.trace";
  write_trace(a, actions, 1, TraceFormat::text);
  write_trace(b, read_trace(a), 1, TraceFormat::binary);
  write_trace(c, read_trace(b), 1, TraceFormat::compact);
  write_trace(d, read_trace(c), 1, TraceFormat::text);
  EXPECT_EQ(read_trace(d), actions);
  EXPECT_EQ(read_bytes(a), read_bytes(d));
}

TEST_P(CodecFuzz, ValidateVerdictIsStableAcrossFormats) {
  const auto memory_report =
      trace::validate(trace::TraceSet::in_memory(program_));
  EXPECT_TRUE(memory_report.ok) << memory_report.render();
  EXPECT_EQ(memory_report.nprocs, 6);

  for (const TraceFormat format : kTraceFormats) {
    std::vector<fs::path> files;
    for (int p = 0; p < static_cast<int>(program_.size()); ++p) {
      files.push_back(dir_ /
                      ("val" + std::to_string(p) + "." + test::name(format)));
      write_trace(files.back(), program_[static_cast<std::size_t>(p)], p,
                  format);
    }
    const auto report =
        trace::validate(trace::TraceSet::per_process_files(files));
    EXPECT_EQ(report.ok, memory_report.ok) << format;
    EXPECT_EQ(report.actions, memory_report.actions) << format;
    EXPECT_EQ(report.issues.size(), memory_report.issues.size()) << format;
  }

  // A consistent program truncates to itself.
  const auto cut =
      trace::truncate_consistent(trace::TraceSet::in_memory(program_));
  EXPECT_EQ(cut.dropped, 0u);
  EXPECT_DOUBLE_EQ(cut.coverage, 1.0);
}

namespace {

std::vector<Action> drain(const trace::TraceSet& set, int pid) {
  std::vector<Action> out;
  const auto source = set.open(pid);
  while (const auto a = source->next()) out.push_back(*a);
  return out;
}

}  // namespace

TEST_P(CodecFuzz, StreamedDecodeIsElementIdenticalEveryCodec) {
  for (const TraceFormat format : kTraceFormats) {
    std::vector<fs::path> files;
    for (int p = 0; p < static_cast<int>(program_.size()); ++p) {
      files.push_back(dir_ / ("stream" + std::to_string(p) + "." +
                              test::name(format)));
      write_trace(files.back(), program_[static_cast<std::size_t>(p)], p,
                  format);
    }
    const auto mat = trace::TraceSet::per_process_files(
        files, trace::DecodeMode::strict, trace::DecodePolicy::materialise);
    const auto str = trace::TraceSet::per_process_files(
        files, trace::DecodeMode::strict, trace::DecodePolicy::stream);
    ASSERT_TRUE(str.streaming()) << format;
    for (int p = 0; p < static_cast<int>(program_.size()); ++p) {
      EXPECT_EQ(drain(mat, p), drain(str, p)) << format << " pid " << p;
      EXPECT_EQ(mat.action_count(p), str.action_count(p)) << format;
    }
    EXPECT_EQ(trace::digest(mat), trace::digest(str)) << format;
    EXPECT_EQ(mat.stats().actions, str.stats().actions) << format;
  }
}

namespace {

/// What a lenient decode of one split-layout file must report.
struct Salvaged {
  std::vector<Action> actions;
  bool complete = true;
  std::string error;  ///< text files only: see oracle_salvage
  bool text = false;  ///< the file sniffs as text
  std::uint64_t bytes_consumed = 0;
};

/// Independent salvage oracle: the lenient rules written out without the
/// stream index pass. Text keeps every line before the first bad one
/// (getline offsets). Binary keeps every record before the first bad one:
/// `whole` is the per-process stream (pid 0) the truncated file encodes,
/// and since the writer is deterministic, the kept records are the longest
/// prefix of it whose encoding fits in the file — measured by encoding the
/// header and each record alone, not by any reader's offsets. Compact has
/// no record framing, so a damaged container keeps nothing. Only the text
/// error text is the oracle's; binary and compact ones are the pass's.
Salvaged oracle_salvage(const fs::path& path,
                        const std::vector<Action>& whole) {
  Salvaged out;
  const std::string bytes = read_bytes(path);
  const std::uint64_t total = bytes.size();
  if (bytes.compare(0, 4, trace::kCompactMagic, 4) == 0) {
    out.complete = false;  // callers only hand it truncated containers
    return out;
  }
  if (bytes.compare(0, 4, trace::kBinaryMagic, 4) == 0) {
    const fs::path probe = path.string() + ".probe";
    const std::uint64_t header = write_trace(probe, std::vector<Action>{}, 0,
                                             TraceFormat::binary);
    std::uint64_t size = header;
    if (size <= total) out.bytes_consumed = size;
    for (const Action& a : whole) {
      size += write_trace(probe, std::vector<Action>{a}, 0,
                          TraceFormat::binary) -
              header;
      if (size > total) break;
      out.actions.push_back(a);
      out.bytes_consumed = size;
    }
    out.complete = out.bytes_consumed == total;
    return out;
  }
  out.text = true;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::uint64_t line_no = 0;
  std::uint64_t consumed = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto trimmed = str::trim(line);
    if (!trimmed.empty() && trimmed[0] != '#') {
      try {
        out.actions.push_back(trace::parse_line(trimmed));
      } catch (const ParseError& e) {
        out.complete = false;
        out.error = path.string() + ":" + std::to_string(line_no) + ": " +
                    e.what();
        out.bytes_consumed = std::min(consumed, total);
        return out;
      }
    }
    consumed += line.size() + 1;  // +1: the newline getline swallowed
  }
  out.bytes_consumed = total;  // clean to EOF
  return out;
}

}  // namespace

TEST_P(CodecFuzz, StreamedLenientSalvageMatchesMaterialised) {
  // Truncate each format's encoding of one stream at a random byte and
  // lenient-decode it both ways: each memory shape must pick the oracle's
  // salvage point — same kept prefix, same bytes_consumed, same error text
  // (compact is all-or-nothing; text and binary keep a clean prefix).
  Rng rng(GetParam() ^ 0x5a11a6e);
  for (const TraceFormat format : kTraceFormats) {
    const auto& actions = program_[0];
    const fs::path whole = dir_ / ("salvage_whole." + test::name(format));
    write_trace(whole, actions, 0, format);
    const std::string bytes = read_bytes(whole);
    ASSERT_GT(bytes.size(), 2u);
    const std::size_t cut =
        1 + static_cast<std::size_t>(rng.next_below(
                static_cast<std::uint64_t>(bytes.size() - 1)));
    const fs::path trunc = dir_ / ("salvage_cut." + test::name(format));
    {
      std::ofstream out(trunc, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    SCOPED_TRACE(test::name(format) + " cut at " + std::to_string(cut) +
                 "/" + std::to_string(bytes.size()));

    const Salvaged want = oracle_salvage(trunc, actions);
    const auto mat = trace::TraceSet::per_process_files(
        {trunc}, trace::DecodeMode::lenient,
        trace::DecodePolicy::materialise);
    const auto str = trace::TraceSet::per_process_files(
        {trunc}, trace::DecodeMode::lenient, trace::DecodePolicy::stream);
    for (const trace::TraceSet* set : {&mat, &str}) {
      SCOPED_TRACE(set->streaming() ? "streamed" : "materialised");
      EXPECT_EQ(drain(*set, 0), want.actions);
      const auto salvage = set->salvage_report();
      ASSERT_EQ(salvage.size(), 1u);
      EXPECT_EQ(salvage[0].complete, want.complete);
      EXPECT_EQ(salvage[0].bytes_consumed, want.bytes_consumed);
      if (want.text || want.complete)
        EXPECT_EQ(salvage[0].error, want.error);
      else  // binary and compact error texts are the pass's own
        EXPECT_EQ(salvage[0].error.rfind(trunc.string() + ": ", 0), 0u)
            << salvage[0].error;
    }
    EXPECT_EQ(mat.salvage_report()[0].error, str.salvage_report()[0].error);
    EXPECT_EQ(trace::digest(mat), trace::digest(str));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::ValuesIn(fuzz_seeds()));
