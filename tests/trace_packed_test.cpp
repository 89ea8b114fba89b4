// The packed action store behind materialised TraceSets: 16-byte records,
// side tables for reduction volumes and non-canonical actions, and the
// ActionView that yields them back as Actions. Every action must come back
// bit for bit through every layout, format, decode mode and accessor.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "trace/digest.hpp"
#include "trace/packed.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_set.hpp"
#include "trace_formats.hpp"

using namespace tir;
using trace::Action;
using trace::ActionType;
using trace::DecodeMode;
using trace::DecodePolicy;
using trace::TraceSet;
namespace fs = std::filesystem;

namespace {

/// Field-by-field identity, volumes compared as bit patterns.
bool same_bits(const Action& a, const Action& b) {
  return a.pid == b.pid && a.type == b.type && a.partner == b.partner &&
         std::bit_cast<std::uint64_t>(a.volume) ==
             std::bit_cast<std::uint64_t>(b.volume) &&
         std::bit_cast<std::uint64_t>(a.volume2) ==
             std::bit_cast<std::uint64_t>(b.volume2) &&
         a.comm_size == b.comm_size;
}

void expect_same_bits(const std::vector<Action>& got,
                      const std::vector<Action>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_TRUE(same_bits(got[i], want[i]))
        << "action " << i << ": " << trace::to_line(got[i]) << " vs "
        << trace::to_line(want[i]);
}

std::vector<Action> drain(const TraceSet& set, int pid) {
  std::vector<Action> out;
  const auto source = set.open(pid);
  while (const auto a = source->next()) out.push_back(*a);
  return out;
}

std::vector<Action> viewed(const TraceSet& set, int pid) {
  const trace::ActionView view = set.actions(pid);
  return {view.begin(), view.end()};
}

/// Every ActionType, canonical, with volumes every format stores exactly:
/// integral ones (varints in binary) and fractional ones (raw doubles).
std::vector<Action> every_type(int pid, int nprocs) {
  const int next = (pid + 1) % nprocs;
  const int prev = (pid + nprocs - 1) % nprocs;
  return {
      {pid, ActionType::comm_size, -1, 0, 0, nprocs},
      {pid, ActionType::compute, -1, 1.5e-3, 0, 0},
      {pid, ActionType::compute, -1, 9007199254740991.0, 0, 0},
      {pid, ActionType::isend, next, 163840, 0, 0},
      {pid, ActionType::irecv, prev, 163840, 0, 0},
      {pid, ActionType::waitall, -1, 0, 0, 0},
      {pid, ActionType::send, next, 0.25, 0, 0},
      {pid, ActionType::recv, prev, 0, 0, 0},  // volume omitted
      {pid, ActionType::isend, next, 7, 0, 0},
      {pid, ActionType::wait, -1, 0, 0, 0},
      {pid, ActionType::bcast, -1, 4096, 0, 0},
      {pid, ActionType::reduce, -1, 4096, 1e5, 0},
      {pid, ActionType::allreduce, -1, 8, 0.125, 0},
      {pid, ActionType::reduce, -1, 16, 0, 0},
      {pid, ActionType::barrier, -1, 0, 0, 0},
      {pid, ActionType::gather, -1, 64, 0, 0},
      {pid, ActionType::allgather, -1, 32.5, 0, 0},
      {pid, ActionType::alltoall, -1, 1e6, 0, 0},
  };
}

class PackedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tir_packed_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

}  // namespace

TEST(PackedStore, RecordIsSixteenBytesAndActionStaysForty) {
  EXPECT_EQ(sizeof(trace::PackedAction), 16u);
  EXPECT_EQ(sizeof(Action), 40u);
}

TEST_F(PackedStoreTest, EveryTypeRoundTripsThroughEveryLayout) {
  constexpr int kProcs = 3;
  std::vector<std::vector<Action>> per_process;
  std::vector<Action> merged;
  for (int p = 0; p < kProcs; ++p) {
    per_process.push_back(every_type(p, kProcs));
    merged.insert(merged.end(), per_process.back().begin(),
                  per_process.back().end());
  }
  const TraceSet memory = TraceSet::in_memory(per_process);
  const trace::Digest want = trace::digest(memory);
  for (int p = 0; p < kProcs; ++p) {
    expect_same_bits(viewed(memory, p), per_process[p]);
    expect_same_bits(drain(memory, p), per_process[p]);
  }

  for (const trace::TraceFormat format : test::kTraceFormats) {
    SCOPED_TRACE(test::name(format));
    std::vector<fs::path> files;
    for (int p = 0; p < kProcs; ++p) {
      files.push_back(dir_ / ("SG_process" + std::to_string(p) + "." +
                              test::name(format)));
      trace::write_trace(files.back(), per_process[p], p, format);
    }
    const fs::path merged_file = dir_ / ("merged." + test::name(format));
    trace::write_trace(merged_file, merged, -1, format);

    for (const DecodeMode mode : {DecodeMode::strict, DecodeMode::lenient}) {
      for (const DecodePolicy policy :
           {DecodePolicy::materialise, DecodePolicy::stream}) {
        SCOPED_TRACE(policy == DecodePolicy::stream ? "stream"
                                                    : "materialise");
        const TraceSet split =
            TraceSet::per_process_files(files, mode, policy);
        const TraceSet one = TraceSet::merged_file(merged_file, kProcs, mode,
                                                   policy);
        for (const TraceSet* set : {&split, &one}) {
          EXPECT_EQ(trace::digest(*set), want);
          EXPECT_EQ(set->coverage(), 1.0);
          for (int p = 0; p < kProcs; ++p) {
            expect_same_bits(drain(*set, p), per_process[p]);
            expect_same_bits(viewed(*set, p), per_process[p]);
          }
        }
      }
    }
  }
}

TEST_F(PackedStoreTest, LenientSalvageKeepsTheCleanPrefixBitForBit) {
  const std::vector<Action> actions = every_type(0, 2);
  const fs::path file = dir_ / "SG_process0.trace";
  trace::write_trace(file, actions, 0, trace::TraceFormat::text);
  std::ofstream(file, std::ios::app) << "p0 teleport 5\np0 compute 1\n";
  const TraceSet lenient = TraceSet::per_process_files(
      {file}, DecodeMode::lenient, DecodePolicy::materialise);
  expect_same_bits(viewed(lenient, 0), actions);
  expect_same_bits(drain(lenient, 0), actions);
  EXPECT_LT(lenient.coverage(), 1.0);
  EXPECT_EQ(trace::digest(lenient),
            trace::digest(TraceSet::in_memory({actions})));
}

TEST_F(PackedStoreTest, NonCanonicalActionsComeBackWhole) {
  // A split file keeps its records' pids, even a foreign one: replay, not
  // the decoder, reports the mismatch.
  const fs::path file = dir_ / "SG_process0.trace";
  std::ofstream(file) << "p0 compute 1\np5 compute 2\np0 send p1 3\n";
  for (const DecodePolicy policy :
       {DecodePolicy::materialise, DecodePolicy::stream}) {
    const TraceSet set =
        TraceSet::per_process_files({file}, DecodeMode::strict, policy);
    const std::vector<Action> want = {
        {0, ActionType::compute, -1, 1, 0, 0},
        {5, ActionType::compute, -1, 2, 0, 0},
        {0, ActionType::send, 1, 3, 0, 0}};
    expect_same_bits(drain(set, 0), want);
    expect_same_bits(viewed(set, 0), want);
  }

  // Fields a type does not carry, set anyway; a -0.0 volume2 differs from
  // the canonical +0.0 only in its bits.
  const std::vector<Action> odd = {
      {0, ActionType::compute, 3, 10, 0, 0},       // partner on a compute
      {0, ActionType::send, 1, 10, 7, 0},          // volume2 on a send
      {0, ActionType::barrier, -1, 0, 0, 4},       // comm_size on a barrier
      {0, ActionType::compute, -1, 10, -0.0, 0},   // -0.0 volume2
      {0, ActionType::reduce, 2, 1, 2, 0},         // partner on a reduce
      {1, ActionType::wait, -1, 0, 0, 0},          // another process's pid
      {0, ActionType::recv, -7, -0.0, 0, 0},       // odd but canonical
      {0, ActionType::comm_size, -1, 0, 0, -3},    // odd but canonical
      {0, ActionType::allreduce, -1, std::numeric_limits<double>::quiet_NaN(),
       std::numeric_limits<double>::infinity(), 0},
  };
  const TraceSet memory = TraceSet::in_memory({odd});
  expect_same_bits(viewed(memory, 0), odd);
  expect_same_bits(drain(memory, 0), odd);
  // Six stored whole, one reduction volume in the side table.
  EXPECT_EQ(memory.resident_bytes(),
            odd.size() * 16 + 6 * sizeof(Action) + 1 * sizeof(double));
}

TEST_F(PackedStoreTest, ResidentBytesAreRecordsPlusSideTables) {
  // 4 processes of every_type: 18 records and 3 reductions each.
  std::vector<std::vector<Action>> per_process;
  for (int p = 0; p < 4; ++p) per_process.push_back(every_type(p, 4));
  const std::uint64_t want = 4 * (18 * 16 + 3 * sizeof(double));
  EXPECT_EQ(TraceSet::in_memory(per_process).resident_bytes(), want);

  const auto files = trace::write_split_traces(dir_ / "split", per_process);
  const TraceSet split = TraceSet::per_process_files(
      files, DecodeMode::strict, DecodePolicy::materialise);
  EXPECT_EQ(split.resident_bytes(), want);

  const fs::path merged = dir_ / "merged.trace";
  trace::write_merged_trace(merged, per_process);
  EXPECT_EQ(TraceSet::merged_file(merged, 4, DecodeMode::strict,
                                  DecodePolicy::materialise)
                .resident_bytes(),
            want);
}

TEST_F(PackedStoreTest, CompactLoopsShareTheirBodysSideEntries) {
  // 1000 repetitions of a 3-action body holding one reduction: 3000
  // records, and one side-table volume for all of them.
  std::vector<Action> actions;
  for (int r = 0; r < 1000; ++r) {
    actions.push_back({0, ActionType::compute, -1, 5, 0, 0});
    actions.push_back({0, ActionType::allreduce, -1, 8, 0.5, 0});
    actions.push_back({1, ActionType::compute, -1, 6, 0, 0});  // whole
  }
  const fs::path file = dir_ / "loop.ctrace";
  trace::write_trace(file, actions, 0, trace::TraceFormat::compact);
  const TraceSet set = TraceSet::per_process_files(
      {file}, DecodeMode::strict, DecodePolicy::materialise);
  expect_same_bits(viewed(set, 0), actions);
  expect_same_bits(drain(set, 0), actions);
  EXPECT_EQ(set.resident_bytes(),
            3000 * 16 + 1 * sizeof(double) + 1 * sizeof(Action));
}

TEST(PackedStore, ViewIsARandomAccessRangeOfActions) {
  std::vector<Action> actions = every_type(0, 2);
  const TraceSet set = TraceSet::in_memory({actions, every_type(1, 2)});
  const trace::ActionView view = set.actions(0);
  ASSERT_EQ(view.size(), actions.size());
  EXPECT_FALSE(view.empty());
  EXPECT_EQ(view.end() - view.begin(),
            static_cast<std::ptrdiff_t>(actions.size()));
  EXPECT_TRUE(view == actions);
  EXPECT_TRUE(actions == view);
  auto it = view.begin();
  it += 3;
  EXPECT_EQ(*it, actions[3]);
  EXPECT_EQ(it[2], actions[5]);
  EXPECT_EQ(*(it - 1), actions[2]);
  EXPECT_LT(view.begin(), it);
  EXPECT_EQ(view[11], actions[11]);

  // data() names the storage: equal for two views of one stream, distinct
  // across streams and sets.
  EXPECT_EQ(set.actions(0).data(), view.data());
  EXPECT_NE(set.actions(1).data(), view.data());
  EXPECT_NE(TraceSet::in_memory({actions}).actions(0).data(), view.data());

  actions.back().volume += 1;
  EXPECT_FALSE(view == actions);
  actions.pop_back();
  EXPECT_FALSE(view == actions);
  EXPECT_TRUE(TraceSet::in_memory(std::vector<std::vector<Action>>(1))
                  .actions(0)
                  .empty());
}
