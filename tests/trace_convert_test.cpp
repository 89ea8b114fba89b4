// Conversion battery: convert_trace (tir-traceinfo --to-text|--to-binary|
// --to-compact) takes a file in any format to any format. Every (input,
// output) pair is read back through the trace pass and must equal the
// input's actions — per-process files, a merged file with mixed pids, and
// an empty file. The pairs older releases supported keep their bytes:
// text -> binary factors out a single pid, binary -> text writes one line
// per record, text -> compact loop-compresses with the first action's pid
// in the header. Text and binary output stream from a cursor, so a
// streaming set converts without ever materialising.
//
// Part of test_stream (ctest label "stream"), which both sanitizer jobs run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "trace/compact.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_set.hpp"
#include "trace_formats.hpp"

using namespace tir;
using test::kTraceFormats;
using test::read_bytes;
using test::read_trace;
using trace::Action;
using trace::ActionType;
using trace::DecodePolicy;
using trace::TraceFormat;
namespace fs = std::filesystem;

namespace {

/// One process's stream: loops for compact to find, volumes that need a
/// double in binary, and recv lines without a volume.
std::vector<Action> process_stream(int pid) {
  std::vector<Action> actions = {{pid, ActionType::comm_size, -1, 0, 0, 4}};
  for (int i = 0; i < 12; ++i) {
    actions.push_back({pid, ActionType::compute, -1, 1e6 + (i % 3), 0, 0});
    actions.push_back({pid, ActionType::isend, (pid + 1) % 4, 4096, 0, 0});
    actions.push_back({pid, ActionType::recv, (pid + 3) % 4, 0, 0, 0});
    actions.push_back({pid, ActionType::wait, -1, 0, 0, 0});
    actions.push_back({pid, ActionType::allreduce, -1, 8, 2.5, 0});
  }
  return actions;
}

struct Case {
  std::string name;
  std::vector<Action> actions;
  int pid;  ///< the input file's pid (-1: per-record pids)
};

std::vector<Case> corpus() {
  std::vector<Action> merged;
  for (int p = 0; p < 4; ++p) {
    const auto stream = process_stream(p);
    merged.insert(merged.end(), stream.begin(), stream.end());
  }
  return {{"process2", process_stream(2), 2},
          {"merged", merged, -1},
          {"empty", {}, -1}};
}

class TraceConvertTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tir_convert_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Converts `in` to `format` through a set with `policy`; returns the
  /// output file.
  fs::path convert(const fs::path& in, TraceFormat format,
                   DecodePolicy policy = DecodePolicy::stream) {
    const fs::path out =
        dir_ / (in.filename().string() + ".to_" + test::name(format));
    trace::convert_trace(
        trace::TraceSet::per_process_files({in}, trace::DecodeMode::strict,
                                           policy),
        0, out, format);
    return out;
  }

  fs::path dir_;
};

}  // namespace

TEST_F(TraceConvertTest, EveryFormatPairPreservesTheActions) {
  for (const Case& c : corpus()) {
    for (const TraceFormat from : kTraceFormats) {
      const fs::path in = dir_ / (c.name + "." + test::name(from));
      trace::write_trace(in, c.actions, c.pid, from);
      for (const TraceFormat to : kTraceFormats) {
        for (const DecodePolicy policy :
             {DecodePolicy::materialise, DecodePolicy::stream}) {
          SCOPED_TRACE(c.name + ": " + test::name(from) + " -> " +
                       test::name(to));
          EXPECT_EQ(read_trace(convert(in, to, policy)), c.actions);
        }
      }
    }
  }
}

TEST_F(TraceConvertTest, FormerlySupportedPairsKeepTheirBytes) {
  for (const Case& c : corpus()) {
    SCOPED_TRACE(c.name);
    // What the dedicated converters wrote: binary factors out the pid when
    // the file has a single one (-1 otherwise, and for an empty file);
    // compact stores the first action's pid (0 for an empty file).
    bool single = !c.actions.empty();
    for (const Action& a : c.actions)
      single = single && a.pid == c.actions.front().pid;
    const int binary_pid = single ? c.actions.front().pid : -1;
    const int compact_pid = c.actions.empty() ? 0 : c.actions.front().pid;

    const fs::path text = dir_ / (c.name + ".trace");
    const fs::path binary = dir_ / (c.name + ".btrace");
    trace::write_trace(text, c.actions, c.pid, TraceFormat::text);
    trace::write_trace(binary, c.actions, c.pid, TraceFormat::binary);

    const fs::path want_binary = dir_ / (c.name + ".want.btrace");
    const fs::path want_text = dir_ / (c.name + ".want.trace");
    const fs::path want_compact = dir_ / (c.name + ".want.ctrace");
    trace::write_trace(want_binary, c.actions, binary_pid,
                       TraceFormat::binary);
    trace::write_trace(want_text, c.actions, -1, TraceFormat::text);
    trace::write_trace(want_compact, trace::compact_actions(c.actions),
                       compact_pid, TraceFormat::compact);

    EXPECT_EQ(read_bytes(convert(text, TraceFormat::binary)),
              read_bytes(want_binary));
    EXPECT_EQ(read_bytes(convert(binary, TraceFormat::text)),
              read_bytes(want_text));
    EXPECT_EQ(read_bytes(convert(text, TraceFormat::compact)),
              read_bytes(want_compact));
  }
}

TEST_F(TraceConvertTest, StreamingSetConvertsToTextAndBinaryWithoutDecoding) {
  for (const TraceFormat from : kTraceFormats) {
    const fs::path in = dir_ / ("p2." + test::name(from));
    trace::write_trace(in, process_stream(2), 2, from);
    for (const TraceFormat to : {TraceFormat::text, TraceFormat::binary}) {
      SCOPED_TRACE(test::name(from) + " -> " + test::name(to));
      const auto set = trace::TraceSet::per_process_files(
          {in}, trace::DecodeMode::strict, DecodePolicy::stream);
      const fs::path out = dir_ / ("p2.out." + test::name(to));
      trace::convert_trace(set, 0, out, to);
      EXPECT_TRUE(set.streaming());
      EXPECT_EQ(set.decode_count(), 0u);
      EXPECT_EQ(read_trace(out), process_stream(2));
    }
  }
}

TEST_F(TraceConvertTest, InputErrorsSurfaceBeforeTheOutputExists) {
  const fs::path bad = dir_ / "bad.trace";
  std::ofstream(bad) << "p0 compute 5\np0 warp 9\n";
  for (const TraceFormat to : kTraceFormats) {
    SCOPED_TRACE(test::name(to));
    const fs::path out = dir_ / ("bad.out." + test::name(to));
    EXPECT_THROW(trace::convert_trace(trace::TraceSet::per_process_files(
                                          {bad}, trace::DecodeMode::strict,
                                          DecodePolicy::stream),
                                      0, out, to),
                 ParseError);
    EXPECT_FALSE(fs::exists(out));
  }
  EXPECT_THROW(convert(dir_ / "missing.trace", TraceFormat::binary), IoError);
}

TEST_F(TraceConvertTest, ToCompactRefusesAnExpansionPastTheBudget) {
  // 38 bytes declaring 2^25 actions: compact output must materialise, and
  // the pass refuses before expanding.
  const fs::path bomb = dir_ / "bomb.ctrace";
  const trace::CompactProgram program = {
      {1u << 24,
       {{0, ActionType::compute, -1, 1, 0, 0},
        {0, ActionType::compute, -1, 2, 0, 0}}}};
  trace::write_trace(bomb, program, 0, TraceFormat::compact);
  try {
    convert(bomb, TraceFormat::compact);
    FAIL() << "expected the materialise budget error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("materialise budget"),
              std::string::npos)
        << e.what();
  }
}
