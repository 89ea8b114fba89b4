#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "support/error.hpp"
#include "trace/stream.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_set.hpp"
#include "trace_formats.hpp"

using namespace tir::trace;
using tir::test::kTraceFormats;
using tir::test::read_trace;
namespace fs = std::filesystem;

namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tir_trace_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

std::vector<std::vector<Action>> ring_actions() {
  // The paper's Figure 1 trace for 4 processes.
  std::vector<std::vector<Action>> per(4);
  for (int p = 0; p < 4; ++p) {
    per[static_cast<std::size_t>(p)] = {
        {p, ActionType::compute, -1, 1e6, 0, 0},
        {p, ActionType::send, (p + 1) % 4, 1e6, 0, 0},
        {p, ActionType::recv, (p + 3) % 4, 0, 0, 0},
    };
  }
  return per;
}

}  // namespace

TEST_F(TraceIoTest, SplitWriteReadRoundTrip) {
  const auto actions = ring_actions();
  const auto paths = write_split_traces(dir_, actions);
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_EQ(paths[0].filename(), "SG_process0.trace");
  for (int p = 0; p < 4; ++p) {
    const auto back = read_trace(paths[static_cast<std::size_t>(p)]);
    EXPECT_EQ(back, actions[static_cast<std::size_t>(p)]);
  }
}

TEST_F(TraceIoTest, MergedWriteReadWithFilter) {
  const auto actions = ring_actions();
  const auto file = dir_ / "merged.trace";
  write_merged_trace(file, actions);
  const TraceSet set = TraceSet::merged_file(file, 4);
  for (int p = 0; p < 4; ++p) {
    const auto back = set.actions(p);
    EXPECT_EQ(back, actions[static_cast<std::size_t>(p)]);
  }
  EXPECT_EQ(read_trace(file).size(), 12u);
}

TEST_F(TraceIoTest, ReaderSkipsCommentsAndBlankLines) {
  const auto file = dir_ / "annotated.trace";
  std::ofstream(file) << "# header comment\n\n  \np0 compute 5\n"
                      << "# middle\np0 barrier\n";
  const auto actions = read_trace(file);
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[1].type, ActionType::barrier);
}

TEST_F(TraceIoTest, ParseErrorCarriesLineNumber) {
  const auto file = dir_ / "bad.trace";
  std::ofstream(file) << "p0 compute 5\np0 warp 9\n";
  try {
    read_trace(file);
    FAIL() << "expected ParseError";
  } catch (const tir::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos);
  }
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(read_trace(dir_ / "nope.trace"), tir::IoError);
}

TEST_F(TraceIoTest, BinaryRoundTripPerProcess) {
  const auto actions = ring_actions()[1];
  const auto file = dir_ / "p1.btrace";
  EXPECT_GT(write_trace(file, actions, 1, TraceFormat::binary), 0u);
  EXPECT_EQ(build_stream_index(file, DecodeMode::strict, -1).format,
            TraceFormat::binary);
  EXPECT_EQ(read_trace(file), actions);
}

TEST_F(TraceIoTest, BinaryRoundTripMixedPidsAndDoubles) {
  std::vector<Action> actions = {
      {0, ActionType::compute, -1, 1234.5678, 0, 0},
      {3, ActionType::reduce, -1, 4096, 99.5, 0},
      {200, ActionType::send, 199, 1e15, 0, 0},
      {1, ActionType::comm_size, -1, 0, 0, 64},
      {1, ActionType::wait, -1, 0, 0, 0},
  };
  const auto file = dir_ / "mixed.btrace";
  write_trace(file, actions, -1, TraceFormat::binary);
  EXPECT_EQ(read_trace(file), actions);
}

TEST_F(TraceIoTest, BinaryIsSmallerThanText) {
  // Paper future work: "reduce the size of the traces, e.g., using a binary
  // format". Verify the claimed benefit on a realistic action mix.
  std::vector<Action> actions;
  for (int i = 0; i < 2000; ++i) {
    actions.push_back({7, ActionType::compute, -1, 1e6 + i, 0, 0});
    actions.push_back({7, ActionType::send, (i % 63), 163840, 0, 0});
    actions.push_back({7, ActionType::recv, (i % 63), 163840, 0, 0});
  }
  const auto text_file = dir_ / "t.trace";
  const auto bin_file = dir_ / "t.btrace";
  write_trace(text_file, actions, 7, TraceFormat::text);
  write_trace(bin_file, actions, 7, TraceFormat::binary);
  const auto text_size = fs::file_size(text_file);
  const auto bin_size = fs::file_size(bin_file);
  EXPECT_LT(bin_size * 2, text_size);  // at least 2x smaller
}

TEST_F(TraceIoTest, TextBinaryConvertersAgree) {
  const auto actions = ring_actions();
  const auto text_file = dir_ / "orig.trace";
  write_merged_trace(text_file, actions);
  const auto bin_file = dir_ / "conv.btrace";
  const auto text_back = dir_ / "back.trace";
  convert_trace(TraceSet::per_process_files({text_file}), 0, bin_file,
                TraceFormat::binary);
  convert_trace(TraceSet::per_process_files({bin_file}), 0, text_back,
                TraceFormat::text);
  EXPECT_EQ(read_trace(text_back), read_trace(text_file));
}

TEST_F(TraceIoTest, CorruptBinaryThrows) {
  const auto file = dir_ / "corrupt.btrace";
  std::ofstream(file, std::ios::binary) << "TIRB" << '\x01' << '\x00'
                                        << '\x0F';  // bogus tag 15
  EXPECT_THROW(read_trace(file), tir::ParseError);
}

TEST_F(TraceIoTest, TraceSetSplitLayout) {
  const auto actions = ring_actions();
  const auto paths = write_split_traces(dir_, actions);
  const TraceSet set = TraceSet::per_process_files(paths);
  EXPECT_EQ(set.nprocs(), 4);
  auto src = set.open(2);
  const auto first = src->next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->pid, 2);
  EXPECT_GT(set.disk_bytes(), 0u);
}

TEST_F(TraceIoTest, TraceSetMergedLayout) {
  const auto actions = ring_actions();
  const auto file = dir_ / "merged.trace";
  write_merged_trace(file, actions);
  const TraceSet set = TraceSet::merged_file(file, 4);
  for (int p = 0; p < 4; ++p) {
    auto src = set.open(p);
    int count = 0;
    while (auto a = src->next()) {
      EXPECT_EQ(a->pid, p);
      ++count;
    }
    EXPECT_EQ(count, 3);
  }
}

TEST_F(TraceIoTest, TraceSetStats) {
  const TraceSet set = TraceSet::in_memory(ring_actions());
  const TraceStats stats = set.stats();
  EXPECT_EQ(stats.actions, 12u);
  EXPECT_EQ(stats.computes, 4u);
  EXPECT_EQ(stats.p2p_messages, 4u);
  EXPECT_DOUBLE_EQ(stats.total_flops, 4e6);
  EXPECT_DOUBLE_EQ(stats.total_bytes_sent, 4e6);
}

TEST_F(TraceIoTest, TraceSetValidatesArguments) {
  EXPECT_THROW(TraceSet::per_process_files({}), tir::Error);
  EXPECT_THROW(TraceSet::in_memory({}), tir::Error);
  EXPECT_THROW(TraceSet::merged_file("x", 0), tir::Error);
  const TraceSet set = TraceSet::in_memory(ring_actions());
  EXPECT_THROW(set.open(-1), tir::Error);
  EXPECT_THROW(set.open(4), tir::Error);
}

TEST_F(TraceIoTest, MergedFileRoundTripsThroughAllCodecs) {
  // A merged file written in any of the three formats must reconstruct the
  // same per-process streams. Note the recv lines carry no volume (the
  // paper's Figure 1 shape) — historically only exercised through text.
  const auto per_process = ring_actions();
  std::vector<Action> merged;
  for (const auto& actions : per_process)
    merged.insert(merged.end(), actions.begin(), actions.end());

  for (const TraceFormat format : kTraceFormats) {
    const auto file = dir_ / ("merged_" + tir::test::name(format));
    EXPECT_GT(write_trace(file, merged, /*pid=*/-1, format), 0u) << format;
    EXPECT_EQ(read_trace(file), merged) << format;

    const TraceSet set = TraceSet::merged_file(file, 4);
    for (int p = 0; p < 4; ++p) {
      auto source = set.open(p);
      std::vector<Action> back;
      while (auto a = source->next()) back.push_back(*a);
      EXPECT_EQ(back, per_process[static_cast<std::size_t>(p)])
          << format << " pid " << p;
    }
    // One merged file = exactly one decode pass, however many streams.
    EXPECT_EQ(set.decode_count(), 1u) << format;
  }
}

TEST_F(TraceIoTest, RecvWithoutVolumeRoundTripsThroughAllCodecs) {
  // Figure 1: "p3 recv p2" — the matched send carries the volume. Zero
  // volume must survive every codec (text omits the field entirely).
  const std::vector<Action> actions = {
      {5, ActionType::recv, 2, 0, 0, 0},
      {5, ActionType::irecv, 3, 0, 0, 0},
      {5, ActionType::send, 2, 4096, 0, 0},
      {5, ActionType::recv, 2, 8192, 0, 0},  // explicit volume still works
      {5, ActionType::wait, -1, 0, 0, 0},
  };
  for (const TraceFormat format : kTraceFormats) {
    const auto file = dir_ / ("recv_" + tir::test::name(format));
    write_trace(file, actions, /*pid=*/5, format);
    const auto back = read_trace(file);
    EXPECT_EQ(back, actions) << format;
    EXPECT_DOUBLE_EQ(back[0].volume, 0.0) << format;
  }
}

TEST_F(TraceIoTest, FormatsAreDetectedByMagic) {
  const auto actions = ring_actions()[0];
  for (const TraceFormat format : kTraceFormats) {
    const auto file = dir_ / ("f." + tir::test::name(format));
    write_trace(file, actions, 0, format);
    EXPECT_EQ(build_stream_index(file, DecodeMode::strict, -1).format, format);
  }
  // The one API left that names a format takes only the three.
  SyntheticSpec spec;
  spec.nprocs = 2;
  EXPECT_THROW(write_synthetic_traces(dir_ / "syn", spec, "tarot"),
               tir::Error);
}

TEST_F(TraceIoTest, TraceSetSharesDecodedStorageAcrossCopies) {
  const auto paths = write_split_traces(dir_, ring_actions());
  const TraceSet set = TraceSet::per_process_files(paths);
  const TraceSet copy = set;  // cheap handle, same storage
  EXPECT_EQ(copy.stats().actions, 12u);
  EXPECT_EQ(set.decode_count(), 4u);
  EXPECT_EQ(copy.decode_count(), 4u);
  // Re-opening decodes nothing new.
  for (int p = 0; p < 4; ++p) (void)set.open(p);
  EXPECT_EQ(set.decode_count(), 4u);
}

TEST_F(TraceIoTest, TraceSetAutoDetectsBinaryFiles) {
  const auto actions = ring_actions();
  std::vector<fs::path> paths;
  for (int p = 0; p < 4; ++p) {
    paths.push_back(dir_ / ("SG_process" + std::to_string(p) + ".btrace"));
    write_trace(paths.back(), actions[static_cast<std::size_t>(p)], p,
                TraceFormat::binary);
  }
  const TraceSet set = TraceSet::per_process_files(paths);
  EXPECT_EQ(set.stats().actions, 12u);
}

TEST_F(TraceIoTest, CompactFileWithBadMagicFailsStrictAndSalvagesLenient) {
  // A .ctrace whose magic bytes are wrong: strict decoding must refuse it,
  // lenient decoding must report it as unusable (coverage < 1) rather
  // than silently treating garbage as actions.
  const auto file = dir_ / "bad.ctrace";
  const auto good = dir_ / "good.trace";
  write_trace(file, ring_actions()[0], 0, TraceFormat::compact);
  write_trace(good, ring_actions()[1], 1, TraceFormat::text);
  {
    std::fstream patch(file, std::ios::in | std::ios::out | std::ios::binary);
    patch.write("XXXX", 4);  // clobber the magic
  }

  const auto strict = TraceSet::per_process_files({file, good});
  EXPECT_THROW(strict.stats(), tir::ParseError);

  const auto lenient =
      TraceSet::per_process_files({file, good}, DecodeMode::lenient);
  EXPECT_LT(lenient.coverage(), 1.0);
  EXPECT_TRUE(lenient.actions(0).empty());      // nothing salvageable
  EXPECT_EQ(lenient.actions(1).size(), 3u);     // the good file is intact
  const auto salvage = lenient.salvage_report();
  ASSERT_EQ(salvage.size(), 2u);
  EXPECT_FALSE(salvage[0].complete);
  EXPECT_TRUE(salvage[1].complete);
}

TEST_F(TraceIoTest, NegativeVolumeFailsStrictAndSalvagesLenient) {
  const auto file = dir_ / "neg.trace";
  std::ofstream(file) << "p0 compute 100\n"
                      << "p0 send 1 -64\n"
                      << "p0 barrier\n";

  const auto strict = TraceSet::per_process_files({file});
  EXPECT_THROW(strict.stats(), tir::ParseError);

  const auto lenient =
      TraceSet::per_process_files({file}, DecodeMode::lenient);
  EXPECT_EQ(lenient.actions(0).size(), 1u);  // clean prefix: the compute
  EXPECT_LT(lenient.coverage(), 1.0);
  EXPECT_GT(lenient.coverage(), 0.0);
  const auto salvage = lenient.salvage_report();
  ASSERT_EQ(salvage.size(), 1u);
  EXPECT_NE(salvage[0].error.find("negative volume"), std::string::npos);
}
