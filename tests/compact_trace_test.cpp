// Tests for the compact (loop-compressed) trace representation.
#include <gtest/gtest.h>

#include <filesystem>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "trace/compact.hpp"
#include "trace/stream.hpp"
#include "trace/trace_format.hpp"

using namespace tir;
using trace::Action;
using trace::ActionType;
namespace fs = std::filesystem;

namespace {

std::vector<Action> repetitive_trace(int iterations) {
  // LU-like shape: a setup prefix, an iteration body repeated many times,
  // and a closing action.
  std::vector<Action> actions;
  actions.push_back({0, ActionType::comm_size, -1, 0, 0, 4});
  actions.push_back({0, ActionType::bcast, -1, 40, 0, 0});
  for (int it = 0; it < iterations; ++it) {
    for (int k = 0; k < 10; ++k) {
      actions.push_back({0, ActionType::recv, 1, 0, 0, 0});
      actions.push_back({0, ActionType::compute, -1, 123456, 0, 0});
      actions.push_back({0, ActionType::send, 2, 520, 0, 0});
    }
    actions.push_back({0, ActionType::allreduce, -1, 40, 180, 0});
  }
  actions.push_back({0, ActionType::barrier, -1, 0, 0, 0});
  return actions;
}

}  // namespace

TEST(CompactTrace, RoundTripsExactly) {
  const auto actions = repetitive_trace(50);
  const auto program = trace::compact_actions(actions);
  EXPECT_EQ(trace::expand(program), actions);
  EXPECT_EQ(trace::expanded_size(program), actions.size());
}

TEST(CompactTrace, CompressesIterativeTracesMassively) {
  const auto actions = repetitive_trace(250);
  const auto program = trace::compact_actions(actions);
  std::size_t stored = 0;
  for (const auto& block : program) stored += block.body.size();
  // 250 iterations of a 31-action body must collapse to ~one body.
  EXPECT_LT(stored * 20, actions.size());
}

TEST(CompactTrace, HandlesDegenerateInputs) {
  EXPECT_TRUE(trace::compact_actions({}).empty());
  // No repetition at all: a single literal block.
  std::vector<Action> unique_actions;
  for (int i = 0; i < 20; ++i)
    unique_actions.push_back({0, ActionType::compute, -1, 1000.0 + i, 0, 0});
  const auto program = trace::compact_actions(unique_actions);
  EXPECT_EQ(trace::expand(program), unique_actions);
  ASSERT_EQ(program.size(), 1u);
  EXPECT_EQ(program[0].count, 1u);
}

TEST(CompactTrace, PureRunLengthCase) {
  std::vector<Action> actions(1000,
                              Action{0, ActionType::compute, -1, 5, 0, 0});
  const auto program = trace::compact_actions(actions);
  ASSERT_EQ(program.size(), 1u);
  EXPECT_EQ(program[0].count, 1000u);
  EXPECT_EQ(program[0].body.size(), 1u);
}

TEST(CompactTrace, RandomTracesRoundTrip) {
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Action> actions;
    const int n = 200 + static_cast<int>(rng.next_below(300));
    for (int i = 0; i < n; ++i) {
      // Small alphabet so repeats occur by chance.
      actions.push_back({0, ActionType::compute, -1,
                         static_cast<double>(rng.next_below(5)), 0, 0});
    }
    const auto program = trace::compact_actions(actions);
    EXPECT_EQ(trace::expand(program), actions) << "trial " << trial;
  }
}

TEST(CompactTrace, FileRoundTripAndDetection) {
  const auto dir = fs::temp_directory_path() /
                   ("tir_compact_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto file = dir / "p0.ctrace";
  const auto actions = repetitive_trace(40);
  const auto program = trace::compact_actions(actions);
  const auto bytes =
      trace::write_trace(file, program, 0, trace::TraceFormat::compact);
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(
      trace::build_stream_index(file, trace::DecodeMode::strict, -1).format,
      trace::TraceFormat::compact);
  const auto set = trace::TraceSet::per_process_files(
      {file}, trace::DecodeMode::strict, trace::DecodePolicy::materialise);
  EXPECT_EQ(set.actions(0), actions);
  fs::remove_all(dir);
}

TEST(CompactTrace, SourceStreamsTheExpansion) {
  // A streamed compact file yields the expansion from its loop bodies:
  // the index holds the block table, never the expanded actions.
  const auto dir = fs::temp_directory_path() /
                   ("tir_compactsrc_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto file = dir / "p0.ctrace";
  const auto actions = repetitive_trace(30);
  trace::write_trace(file, actions, 0, trace::TraceFormat::compact);
  const auto set = trace::TraceSet::per_process_files(
      {file}, trace::DecodeMode::strict, trace::DecodePolicy::stream);
  ASSERT_TRUE(set.streaming());
  std::vector<Action> streamed;
  const auto source = set.open(0);
  while (auto a = source->next()) streamed.push_back(*a);
  EXPECT_EQ(streamed, actions);
  EXPECT_EQ(set.decode_count(), 0u);
  fs::remove_all(dir);
}

TEST(CompactTrace, ReplayFromCompactFilesMatchesText) {
  // Acquire a small LU trace, compact every per-process file, and check
  // the replayed time is identical to the text-trace replay.
  const auto dir = fs::temp_directory_path() /
                   ("tir_compactreplay_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::S;
  cfg.nprocs = 4;
  cfg.iteration_scale = 0.2;
  acq::AcquisitionSpec spec;
  spec.app = apps::make_lu_app(cfg);
  spec.workdir = dir;
  spec.run_uninstrumented_baseline = false;
  const auto report = acq::run_acquisition(spec);

  std::vector<fs::path> compact_files;
  std::uint64_t text_bytes = 0, compact_bytes = 0;
  const auto text_set = trace::TraceSet::per_process_files(report.ti_files);
  for (int p = 0; p < 4; ++p) {
    const auto out = dir / ("SG_process" + std::to_string(p) + ".ctrace");
    compact_bytes += trace::convert_trace(text_set, p, out,
                                          trace::TraceFormat::compact);
    text_bytes += fs::file_size(report.ti_files[static_cast<std::size_t>(p)]);
    compact_files.push_back(out);
  }
  EXPECT_LT(compact_bytes * 3, text_bytes);  // at least 3x smaller

  plat::Platform target;
  const auto hosts = plat::build_cluster(target, plat::bordereau_spec(4));
  const auto run_files = [&](const std::vector<fs::path>& files) {
    replay::ScenarioSpec spec;
    spec.platform = replay::share_platform(target);
    spec.process_hosts = hosts;
    spec.traces = trace::TraceSet::per_process_files(files);
    return replay::run_scenario(spec).simulated_time;
  };
  const double t_text = run_files(report.ti_files);
  const double t_compact = run_files(compact_files);
  EXPECT_DOUBLE_EQ(t_text, t_compact);
  fs::remove_all(dir);
}

TEST(CompactTrace, RejectsCorruptFiles) {
  const auto dir = fs::temp_directory_path() /
                   ("tir_compactbad_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto file = dir / "bad.ctrace";
  std::ofstream(file, std::ios::binary) << "TIRC" << '\x01' << '\x00'
                                        << '\xFF';
  const auto decode = [](const fs::path& path) {
    (void)trace::TraceSet::per_process_files(
        {path}, trace::DecodeMode::strict, trace::DecodePolicy::materialise)
        .actions(0);
  };
  EXPECT_THROW(decode(file), tir::ParseError);
  EXPECT_THROW(decode(dir / "missing"), tir::IoError);
  fs::remove_all(dir);
}

TEST(CompactTrace, ReplayIsLayoutIndependent) {
  // Property: the replayed time does not depend on how the trace is stored
  // (in memory, split text files, one merged file, or compact programs).
  const auto dir = fs::temp_directory_path() /
                   ("tir_layout_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::vector<std::vector<Action>> per(4);
  per[0] = repetitive_trace(20);
  for (int p = 1; p < 4; ++p) {
    per[static_cast<std::size_t>(p)] = repetitive_trace(20);
    for (auto& a : per[static_cast<std::size_t>(p)]) {
      a.pid = p;
      if (a.type == ActionType::recv) a.partner = (p + 3) % 4;
      if (a.type == ActionType::send) a.partner = (p + 1) % 4;
    }
  }
  // Make the p2p pattern a Fig-1-style ring: p0 kicks each round off by
  // sending first (everyone receiving first would deadlock, exactly as the
  // real program would).
  {
    std::vector<Action> p0;
    for (const Action& a : per[0]) {
      if (a.type == ActionType::recv) continue;  // reinsert after the send
      if (a.type == ActionType::send) {
        Action send = a;
        send.partner = 1;
        p0.push_back(send);
        p0.push_back(Action{0, ActionType::recv, 3, 0, 0, 0});
      } else {
        p0.push_back(a);
      }
    }
    per[0] = std::move(p0);
  }

  plat::Platform target;
  const auto hosts = plat::build_cluster(target, plat::bordereau_spec(4));
  const auto run_set = [&](const trace::TraceSet& set) {
    replay::ScenarioSpec spec;
    spec.platform = replay::share_platform(target);
    spec.process_hosts = hosts;
    spec.traces = set;
    return replay::run_scenario(spec).simulated_time;
  };

  const double t_memory = run_set(trace::TraceSet::in_memory(per));
  const auto split = trace::write_split_traces(dir / "split", per);
  const double t_split = run_set(trace::TraceSet::per_process_files(split));
  const auto merged = dir / "merged.trace";
  trace::write_merged_trace(merged, per);
  const double t_merged = run_set(trace::TraceSet::merged_file(merged, 4));
  std::vector<fs::path> compact;
  for (int p = 0; p < 4; ++p) {
    const auto f = dir / ("c" + std::to_string(p) + ".ctrace");
    trace::write_trace(f, per[static_cast<std::size_t>(p)], p,
                       trace::TraceFormat::compact);
    compact.push_back(f);
  }
  const double t_compact = run_set(trace::TraceSet::per_process_files(compact));

  EXPECT_DOUBLE_EQ(t_memory, t_split);
  EXPECT_DOUBLE_EQ(t_memory, t_merged);
  EXPECT_DOUBLE_EQ(t_memory, t_compact);
  fs::remove_all(dir);
}
