#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "support/error.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_set.hpp"
#include "trace/validate.hpp"

using namespace tir;
using trace::Action;
using trace::ActionType;

namespace {

std::vector<std::vector<Action>> clean_pair() {
  return {
      {{0, ActionType::compute, -1, 1e6, 0, 0},
       {0, ActionType::send, 1, 1024, 0, 0},
       {0, ActionType::barrier, -1, 0, 0, 0}},
      {{1, ActionType::recv, 0, 1024, 0, 0},
       {1, ActionType::compute, -1, 1e6, 0, 0},
       {1, ActionType::barrier, -1, 0, 0, 0}},
  };
}

}  // namespace

TEST(ValidateTest, CleanTracePasses) {
  const auto traces = trace::TraceSet::in_memory(clean_pair());
  const auto report = trace::validate(traces);
  EXPECT_TRUE(report.ok) << report.render();
  EXPECT_EQ(report.errors(), 0u);
  EXPECT_EQ(report.nprocs, 2);
  EXPECT_EQ(report.actions, 6u);
}

TEST(ValidateTest, UnmatchedSendIsAnError) {
  auto streams = clean_pair();
  streams[1].erase(streams[1].begin());  // drop the recv
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_FALSE(report.ok);
  bool found = false;
  for (const auto& i : report.issues)
    if (i.severity == trace::Severity::error &&
        i.message.find("p2p mismatch") != std::string::npos)
      found = true;
  EXPECT_TRUE(found) << report.render();
}

TEST(ValidateTest, RecvWithoutSendIsAnError) {
  auto streams = clean_pair();
  streams[0].erase(streams[0].begin() + 1);  // drop the send, keep the recv
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.render().find("no matching send"), std::string::npos);
}

TEST(ValidateTest, VolumeDisagreementIsAWarningNotAnError) {
  auto streams = clean_pair();
  streams[1][0].volume = 2048;  // recv declares a different size
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_TRUE(report.ok);  // warnings only
  EXPECT_EQ(report.warnings(), 1u);
  EXPECT_NE(report.render().find("recv declares"), std::string::npos);
}

TEST(ValidateTest, PartnerOutOfRangeIsAnError) {
  auto streams = clean_pair();
  streams[0][1].partner = 7;
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.render().find("outside [0, 2)"), std::string::npos);
}

TEST(ValidateTest, NegativeVolumeIsAnError) {
  auto streams = clean_pair();
  streams[0][0].volume = -1.0;
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.render().find("negative volume"), std::string::npos);
}

TEST(ValidateTest, CollectiveDivergenceIsAnError) {
  auto streams = clean_pair();
  streams[1][2] = {1, ActionType::allreduce, -1, 64, 100, 0};
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.render().find("collective round #0"), std::string::npos);
}

TEST(ValidateTest, MissingCollectiveParticipantIsAnError) {
  auto streams = clean_pair();
  streams[1].pop_back();  // rank 1 skips the barrier
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.render().find("participates in 0 collective(s)"),
            std::string::npos);
}

TEST(ValidateTest, WaitWithoutPendingRequestIsAnError) {
  std::vector<std::vector<Action>> streams = {
      {{0, ActionType::wait, -1, 0, 0, 0}}};
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.render().find("wait with no pending request"),
            std::string::npos);
}

TEST(ValidateTest, CommSizeMismatchIsAWarning) {
  auto streams = clean_pair();
  streams[0].insert(streams[0].begin(),
                    {0, ActionType::comm_size, -1, 0, 0, 8});
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.warnings(), 1u);
}

TEST(ValidateTest, JsonReportIsMachineReadable) {
  auto streams = clean_pair();
  streams[1].erase(streams[1].begin());
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
}

TEST(TruncateConsistentTest, CleanTraceKeepsEverything) {
  const auto traces = trace::TraceSet::in_memory(clean_pair());
  const auto cut = trace::truncate_consistent(traces);
  EXPECT_EQ(cut.dropped, 0u);
  EXPECT_DOUBLE_EQ(cut.coverage, 1.0);
  EXPECT_EQ(cut.traces.actions(0).size(), 3u);
  EXPECT_EQ(cut.traces.actions(1).size(), 3u);
}

TEST(TruncateConsistentTest, DanglingSendIsCut) {
  auto streams = clean_pair();
  // Rank 0 sends a second message nobody receives, after the barrier.
  streams[0].push_back({0, ActionType::send, 1, 4096, 0, 0});
  const auto cut =
      trace::truncate_consistent(trace::TraceSet::in_memory(streams));
  EXPECT_EQ(cut.kept[0], 3u);
  EXPECT_EQ(cut.kept[1], 3u);
  EXPECT_EQ(cut.dropped, 1u);
  EXPECT_LT(cut.coverage, 1.0);
  EXPECT_TRUE(trace::validate(cut.traces).ok);
}

TEST(TruncateConsistentTest, CollectiveRoundsAreAligned) {
  auto streams = clean_pair();
  // Rank 0 runs one more barrier than rank 1.
  streams[0].push_back({0, ActionType::barrier, -1, 0, 0, 0});
  const auto cut =
      trace::truncate_consistent(trace::TraceSet::in_memory(streams));
  EXPECT_EQ(cut.kept[0], 3u);
  EXPECT_EQ(cut.dropped, 1u);
  EXPECT_TRUE(trace::validate(cut.traces).ok);
}

TEST(TruncateConsistentTest, CascadingCutsReachAFixpoint) {
  using A = Action;
  // Rank 0: send, barrier. Rank 1: recv, barrier, recv (dangling).
  // Cutting rank 1's dangling recv is enough; but if rank 1's *first* recv
  // were dangling, the barrier behind it must fall too.
  std::vector<std::vector<A>> streams = {
      {{0, ActionType::barrier, -1, 0, 0, 0}},
      {{1, ActionType::recv, 0, 64, 0, 0},  // never sent: cut here
       {1, ActionType::barrier, -1, 0, 0, 0}},
  };
  const auto cut =
      trace::truncate_consistent(trace::TraceSet::in_memory(streams));
  // Rank 1 loses its recv AND the barrier behind it; rank 0's barrier then
  // has no peer and falls as well.
  EXPECT_EQ(cut.kept[0], 0u);
  EXPECT_EQ(cut.kept[1], 0u);
  EXPECT_TRUE(trace::validate(cut.traces).ok);
}

TEST(TruncateConsistentTest, WaitWithoutPendingIsCut) {
  std::vector<std::vector<Action>> streams = {
      {{0, ActionType::compute, -1, 1e3, 0, 0},
       {0, ActionType::wait, -1, 0, 0, 0},
       {0, ActionType::compute, -1, 1e3, 0, 0}}};
  const auto cut =
      trace::truncate_consistent(trace::TraceSet::in_memory(streams));
  EXPECT_EQ(cut.kept[0], 1u);  // cut at the stray wait
}

TEST(TraceDirectoryTest, ADirectoryReadAsATraceFileIsAnErrorNotAnEmptyTrace) {
  // A directory opens read-only but every read fails (EISDIR): the trace
  // pass must say so instead of decoding an empty stream.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("tir_dir_as_file_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto pair = clean_pair();
  for (int p = 0; p < 2; ++p)
    trace::write_trace(dir / ("SG_process" + std::to_string(p) + ".trace"),
                       pair[static_cast<std::size_t>(p)], p,
                       trace::TraceFormat::text);

  const auto strict = trace::TraceSet::per_process_files({dir});
  try {
    (void)strict.stats();
    ADD_FAILURE() << "a directory decoded as a trace file";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(dir.string()), std::string::npos)
        << e.what();
  }

  // Lenient decode records it as it records a file that cannot be opened.
  const auto lenient =
      trace::TraceSet::per_process_files({dir}, trace::DecodeMode::lenient);
  EXPECT_EQ(lenient.stats().actions, 0u);
  const auto salvage = lenient.salvage_report();
  ASSERT_EQ(salvage.size(), 1u);
  EXPECT_FALSE(salvage[0].complete);
  EXPECT_NE(salvage[0].error.find(dir.string()), std::string::npos);

  // Expanded to its process files, the directory is the trace.
  const auto expanded =
      trace::TraceSet::per_process_files(trace::process_trace_files({dir}));
  EXPECT_EQ(expanded.nprocs(), 2);
  EXPECT_EQ(expanded.stats().actions, 6u);
  EXPECT_TRUE(trace::validate(expanded).ok);
  fs::remove_all(dir);
}
