// Property tests on the trace formats: randomly generated action streams,
// drawn over every action type, survive text and binary round trips, and
// text, binary and compact agree through conversion.
#include <gtest/gtest.h>

#include <filesystem>

#include "support/rng.hpp"
#include "trace/trace_format.hpp"
#include "trace_formats.hpp"

using namespace tir;
using test::read_trace;
using trace::Action;
using trace::ActionType;
using trace::TraceFormat;
namespace fs = std::filesystem;

namespace {

Action random_action(Rng& rng, int pid, int nprocs) {
  Action a;
  a.pid = pid;
  a.type = static_cast<ActionType>(rng.next_below(trace::kActionTypes));
  const auto volume = [&]() -> double {
    switch (rng.next_below(3)) {
      case 0: return static_cast<double>(rng.next_below(1u << 20));
      case 1: return static_cast<double>(rng.next_below(1ull << 40));
      default: return rng.uniform(0.0, 1e12);  // non-integral
    }
  };
  switch (a.type) {
    case ActionType::compute:
    case ActionType::bcast:
    case ActionType::gather:
    case ActionType::allgather:
    case ActionType::alltoall:
      a.volume = volume();
      break;
    case ActionType::send:
    case ActionType::isend:
    case ActionType::recv:
    case ActionType::irecv:
      a.partner = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(nprocs)));
      a.volume = volume();
      break;
    case ActionType::reduce:
    case ActionType::allreduce:
      a.volume = volume();
      a.volume2 = volume();
      break;
    case ActionType::comm_size:
      a.comm_size = nprocs;
      break;
    case ActionType::barrier:
    case ActionType::wait:
    case ActionType::waitall:
      break;
  }
  return a;
}

std::vector<Action> random_stream(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Action> actions;
  actions.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) actions.push_back(random_action(rng, 3, 64));
  return actions;
}

class TraceProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tir_prop_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

}  // namespace

TEST_P(TraceProperty, TextLineRoundTrip) {
  for (const Action& a : random_stream(GetParam(), 500)) {
    const Action back = trace::parse_line(trace::to_line(a));
    EXPECT_EQ(back.pid, a.pid);
    EXPECT_EQ(back.type, a.type);
    EXPECT_EQ(back.partner, a.partner);
    EXPECT_EQ(back.comm_size, a.comm_size);
    // recv lines may legitimately drop a zero volume; otherwise exact.
    EXPECT_DOUBLE_EQ(back.volume, a.volume);
    EXPECT_DOUBLE_EQ(back.volume2, a.volume2);
  }
}

TEST_P(TraceProperty, TextFileRoundTrip) {
  const auto actions = random_stream(GetParam(), 400);
  const auto file = dir_ / "t.trace";
  trace::write_trace(file, actions, -1, TraceFormat::text);
  EXPECT_EQ(read_trace(file), actions);
}

TEST_P(TraceProperty, BinaryFileRoundTrip) {
  const auto actions = random_stream(GetParam(), 400);
  const auto file = dir_ / "t.btrace";
  trace::write_trace(file, actions, 3, TraceFormat::binary);
  EXPECT_EQ(read_trace(file), actions);
}

TEST_P(TraceProperty, FormatsAgreeThroughConversion) {
  const auto actions = random_stream(GetParam(), 300);
  const auto text = dir_ / "a.trace";
  const auto binary = dir_ / "a.btrace";
  const auto compact = dir_ / "a.ctrace";
  const auto text2 = dir_ / "b.trace";
  trace::write_trace(text, actions, -1, TraceFormat::text);
  trace::convert_trace(trace::TraceSet::per_process_files({text}), 0, binary,
                       TraceFormat::binary);
  trace::convert_trace(trace::TraceSet::per_process_files({binary}), 0,
                       compact, TraceFormat::compact);
  trace::convert_trace(trace::TraceSet::per_process_files({compact}), 0, text2,
                       TraceFormat::text);
  EXPECT_EQ(read_trace(text2), read_trace(text));
}

TEST_P(TraceProperty, BinaryIsNeverLarger) {
  const auto actions = random_stream(GetParam(), 300);
  const auto text = dir_ / "a.trace";
  const auto binary = dir_ / "a.btrace";
  trace::write_trace(text, actions, -1, TraceFormat::text);
  trace::convert_trace(trace::TraceSet::per_process_files({text}), 0, binary,
                       TraceFormat::binary);
  EXPECT_LE(fs::file_size(binary), fs::file_size(text));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceProperty,
                         ::testing::Values(7, 21, 42, 99, 1234, 31337));
