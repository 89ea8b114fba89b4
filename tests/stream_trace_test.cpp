// Streaming-decode differential battery: the bounded-memory streaming
// decoder is a pure optimisation — every observable output must be
// BIT-IDENTICAL to the materialised decode of the same bytes. This file
// locks that contract down across codecs (text, binary, compact), fault
// timelines, acquired NPB skeleton traces (LU, EP, FT, MG, CG), the
// synthetic generator, and the automatic-policy size heuristics; plus the
// streamed digest and the index-backed stats()/action_count() views.
//
// Carries the ctest label "stream"; the CI sanitizer jobs include it in
// their label filters (.github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "apps/npb_extra.hpp"
#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "trace/codec.hpp"
#include "trace/digest.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_set.hpp"

using namespace tir;
using namespace tir::replay;
using trace::Action;
using trace::ActionType;
using trace::DecodePolicy;
namespace fs = std::filesystem;

namespace {

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Field-by-field bit identity of two replay reports: decode policy must not
// move a single bit anywhere — makespan, per-process finish times, engine
// counters (the simulated world is the same world), timed rows, failure
// text.
void expect_identical_reports(const ReplayReport& ref, const ReplayReport& r) {
  EXPECT_EQ(ref.status, r.status);
  EXPECT_TRUE(bit_equal(ref.sim_time, r.sim_time))
      << ref.sim_time << " vs " << r.sim_time;
  EXPECT_TRUE(bit_equal(ref.coverage, r.coverage));
  EXPECT_EQ(ref.error, r.error);
  EXPECT_EQ(ref.diagnostics, r.diagnostics);
  EXPECT_TRUE(bit_equal(ref.result.simulated_time, r.result.simulated_time));
  EXPECT_EQ(ref.result.actions_replayed, r.result.actions_replayed);
  ASSERT_EQ(ref.result.process_finish_times.size(),
            r.result.process_finish_times.size());
  for (std::size_t p = 0; p < ref.result.process_finish_times.size(); ++p)
    EXPECT_TRUE(bit_equal(ref.result.process_finish_times[p],
                          r.result.process_finish_times[p]))
        << "process " << p;
  const auto& se = ref.result.engine_stats;
  const auto& re = r.result.engine_stats;
  EXPECT_EQ(se.resumes, re.resumes);
  EXPECT_EQ(se.activities, re.activities);
  EXPECT_EQ(se.solver_calls, re.solver_calls);
  EXPECT_EQ(se.heap_events, re.heap_events);
  EXPECT_EQ(se.solver_vars_touched, re.solver_vars_touched);
  EXPECT_EQ(se.flows_rerated, re.flows_rerated);
  ASSERT_EQ(ref.result.timed_trace.size(), r.result.timed_trace.size());
  for (std::size_t i = 0; i < ref.result.timed_trace.size(); ++i) {
    EXPECT_EQ(ref.result.timed_trace[i].pid, r.result.timed_trace[i].pid);
    EXPECT_EQ(ref.result.timed_trace[i].action,
              r.result.timed_trace[i].action);
    EXPECT_TRUE(bit_equal(ref.result.timed_trace[i].start,
                          r.result.timed_trace[i].start));
    EXPECT_TRUE(bit_equal(ref.result.timed_trace[i].end,
                          r.result.timed_trace[i].end));
  }
}

std::vector<Action> drain(const trace::TraceSet& set, int pid) {
  std::vector<Action> out;
  const auto source = set.open(pid);
  while (const auto a = source->next()) out.push_back(*a);
  return out;
}

// Mixed traffic crossing every protocol boundary (eager + rendezvous rings,
// nonblocking pairs, the collective family), so stream-vs-materialise
// covers every simulator path the replay actor drives.
std::vector<std::vector<Action>> mixed_actions(int nprocs, int rounds) {
  std::vector<std::vector<Action>> per(static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p)
    per[static_cast<std::size_t>(p)].push_back(
        {p, ActionType::comm_size, -1, 0, 0, nprocs});
  for (int r = 0; r < rounds; ++r) {
    const double bytes = r % 2 == 0 ? 16 * 1024.0 : 256 * 1024.0;
    for (int p = 0; p < nprocs; ++p) {
      auto& mine = per[static_cast<std::size_t>(p)];
      mine.push_back({p, ActionType::compute, -1, 2e5, 0, 0});
      if (p == 0) {
        mine.push_back({p, ActionType::send, 1, bytes, 0, 0});
        mine.push_back({p, ActionType::recv, nprocs - 1, 0, 0, 0});
      } else {
        mine.push_back({p, ActionType::recv, p - 1, 0, 0, 0});
        mine.push_back({p, ActionType::send, (p + 1) % nprocs, bytes, 0, 0});
      }
      mine.push_back({p, ActionType::isend, (p + 1) % nprocs, 1024, 0, 0});
      mine.push_back({p, ActionType::irecv, (p + nprocs - 1) % nprocs,
                      0, 0, 0});
      mine.push_back({p, ActionType::waitall, -1, 0, 0, 0});
      mine.push_back({p, ActionType::allreduce, -1, 4096, 1e4, 0});
      mine.push_back({p, ActionType::bcast, -1, 8192, 0, 0});
      mine.push_back({p, ActionType::barrier, -1, 0, 0, 0});
    }
  }
  return per;
}

class StreamTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tir_stream_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<fs::path> write_files(
      const std::vector<std::vector<Action>>& program,
      const std::string& codec_name) {
    const auto& codec = trace::codec_by_name(codec_name);
    std::vector<fs::path> files;
    for (int p = 0; p < static_cast<int>(program.size()); ++p) {
      files.push_back(dir_ / (codec_name + "_SG_process" +
                              std::to_string(p) + ".trace"));
      codec.encode(files.back(), program[static_cast<std::size_t>(p)], p);
    }
    return files;
  }

  ScenarioSpec cluster_spec(int nprocs) {
    auto platform = std::make_shared<plat::Platform>();
    const auto hosts =
        plat::build_cluster(*platform, plat::bordereau_spec(nprocs));
    ScenarioSpec spec;
    spec.name = "stream-battery";
    spec.platform = platform;
    spec.process_hosts = hosts;
    return spec;
  }

  // Replays the files under both decode policies; the streamed report must
  // be bit-identical to the materialised one.
  void expect_replay_identical(const std::vector<fs::path>& files,
                               std::vector<replay::FaultSpec> faults = {}) {
    ReplayReport reports[2];
    const DecodePolicy policies[2] = {DecodePolicy::materialise,
                                      DecodePolicy::stream};
    for (int i = 0; i < 2; ++i) {
      ScenarioSpec spec = cluster_spec(static_cast<int>(files.size()));
      spec.traces = trace::TraceSet::per_process_files(
          files, trace::DecodeMode::strict, policies[i]);
      EXPECT_EQ(spec.traces.streaming(), i == 1);
      spec.faults = faults;
      spec.config.record_timed_trace = true;
      reports[i] = run_scenario_report(spec);
    }
    EXPECT_EQ(reports[0].status, ReplayStatus::ok) << reports[0].error;
    expect_identical_reports(reports[0], reports[1]);
  }

  fs::path dir_;
};

// Acquired NPB skeleton traces (the paper's TAU -> TI pipeline) written to
// real files; returns the per-process trace paths. The workdir lives in
// `dir_`, so TearDown cleans it up.
std::vector<fs::path> acquire_npb(const fs::path& dir, apps::AppDesc app,
                                  const std::string& label) {
  const fs::path workdir = dir / ("acq_" + label);
  fs::create_directories(workdir);
  acq::AcquisitionSpec spec;
  spec.app = std::move(app);
  spec.workdir = workdir;
  spec.run_uninstrumented_baseline = false;
  return acq::run_acquisition(spec).ti_files;
}

}  // namespace

// ---------------------------------------------------------------------------
// Cursor-level identity: streamed sequences, digests, stats.
// ---------------------------------------------------------------------------

TEST_F(StreamTraceTest, StreamedCursorsMatchMaterialisedEveryCodec) {
  const auto program = mixed_actions(6, 4);
  for (const char* codec : {"text", "binary", "compact"}) {
    SCOPED_TRACE(codec);
    const auto files = write_files(program, codec);
    const auto mat = trace::TraceSet::per_process_files(
        files, trace::DecodeMode::strict, DecodePolicy::materialise);
    const auto str = trace::TraceSet::per_process_files(
        files, trace::DecodeMode::strict, DecodePolicy::stream);
    EXPECT_FALSE(mat.streaming());
    ASSERT_TRUE(str.streaming());
    EXPECT_EQ(str.index_count(), files.size());

    ASSERT_EQ(mat.nprocs(), str.nprocs());
    for (int p = 0; p < mat.nprocs(); ++p) {
      EXPECT_EQ(drain(mat, p), drain(str, p)) << "pid " << p;
      EXPECT_EQ(mat.action_count(p), str.action_count(p)) << "pid " << p;
      EXPECT_EQ(mat.action_count(p),
                program[static_cast<std::size_t>(p)].size());
    }

    // One-pass streamed digest == materialised digest, bit for bit.
    EXPECT_EQ(trace::digest(mat), trace::digest(str)) << codec;

    // Index-backed stats: counters exact; float totals may differ only by
    // accumulation order (compact scales a body total by the repeat count).
    const auto ms = mat.stats();
    const auto ss = str.stats();
    EXPECT_EQ(ms.actions, ss.actions);
    EXPECT_EQ(ms.computes, ss.computes);
    EXPECT_EQ(ms.p2p_messages, ss.p2p_messages);
    EXPECT_EQ(ms.collectives, ss.collectives);
    EXPECT_NEAR(ms.total_flops, ss.total_flops, 1e-6 * ms.total_flops + 1e-9);
    EXPECT_NEAR(ms.total_bytes_sent, ss.total_bytes_sent,
                1e-6 * ms.total_bytes_sent + 1e-9);

    // A cursor re-opened after a full drain starts over (stateless opens).
    EXPECT_EQ(drain(str, 0), drain(str, 0));
  }
}

TEST_F(StreamTraceTest, MergedTextStreamsAndMatchesMaterialised) {
  // One merged file carrying all processes' streams, text codec: the
  // streaming index must pre-partition the byte ranges per pid.
  const auto program = mixed_actions(4, 3);
  std::vector<Action> interleaved;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& stream : program)
      if (i < stream.size()) {
        interleaved.push_back(stream[i]);
        any = true;
      }
    if (!any) break;
  }
  const fs::path file = dir_ / "merged.trace";
  trace::codec_by_name("text").encode(file, interleaved, 0);

  const auto mat = trace::TraceSet::merged_file(
      file, 4, trace::DecodeMode::strict, DecodePolicy::materialise);
  const auto str = trace::TraceSet::merged_file(
      file, 4, trace::DecodeMode::strict, DecodePolicy::stream);
  ASSERT_TRUE(str.streaming());
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(drain(mat, p), drain(str, p)) << "pid " << p;
    EXPECT_EQ(mat.action_count(p), str.action_count(p));
  }
  EXPECT_EQ(trace::digest(mat), trace::digest(str));
}

TEST_F(StreamTraceTest, MergedCompactFallsBackToMaterialise) {
  // Compact blocks interleave pids inside one repeat body, so a merged
  // compact file cannot be range-partitioned: the whole set must fall back
  // to materialised decode — silently, with identical results.
  const auto program = mixed_actions(4, 2);
  std::vector<Action> interleaved;
  for (const auto& stream : program)
    interleaved.insert(interleaved.end(), stream.begin(), stream.end());
  const fs::path file = dir_ / "merged.ctrace";
  trace::codec_by_name("compact").encode(file, interleaved, 0);

  const auto mat = trace::TraceSet::merged_file(
      file, 4, trace::DecodeMode::strict, DecodePolicy::materialise);
  const auto str = trace::TraceSet::merged_file(
      file, 4, trace::DecodeMode::strict, DecodePolicy::stream);
  EXPECT_FALSE(str.streaming());  // fell back
  for (int p = 0; p < 4; ++p) EXPECT_EQ(drain(mat, p), drain(str, p));
  EXPECT_EQ(trace::digest(mat), trace::digest(str));
}

// ---------------------------------------------------------------------------
// Replay identity across codecs and fault timelines.
// ---------------------------------------------------------------------------

TEST_F(StreamTraceTest, ReplayIdenticalSequentialEveryCodec) {
  const auto program = mixed_actions(8, 3);
  for (const char* codec : {"text", "binary", "compact"}) {
    SCOPED_TRACE(codec);
    expect_replay_identical(write_files(program, codec));
  }
}

TEST_F(StreamTraceTest, ReplayIdenticalUnderFaultTimeline) {
  const auto files = write_files(mixed_actions(8, 4), "binary");
  replay::FaultSpec host;
  host.kind = replay::FaultSpec::Kind::host;
  host.target = "bordereau-1.bordeaux.grid5000.fr";
  host.compute_factor = 0.4;
  host.at_time = 0.001;
  replay::FaultSpec link;
  link.kind = replay::FaultSpec::Kind::link;
  link.target = "bordereau-backbone";
  link.bandwidth_factor = 0.2;
  link.at_time = 0.002;
  link.until_time = 0.004;
  expect_replay_identical(files, {host, link});
}

TEST_F(StreamTraceTest, NpbSkeletonTracesStreamIdentically) {
  // All four extra NPB skeletons plus LU, through the real acquisition
  // pipeline: the on-disk TI traces replay bit-identically streamed.
  struct Kernel {
    const char* label;
    apps::AppDesc app;
  };
  apps::LuConfig lu;
  lu.cls = apps::NpbClass::S;
  lu.nprocs = 4;
  lu.iteration_scale = 0.0;  // clamped to one iteration
  apps::EpConfig ep;
  ep.cls = apps::NpbClass::S;
  ep.nprocs = 4;
  apps::FtConfig ft;
  ft.cls = apps::NpbClass::S;
  ft.nprocs = 4;
  ft.iteration_scale = 0.0;
  apps::MgConfig mg;
  mg.cls = apps::NpbClass::S;
  mg.nprocs = 4;
  mg.iteration_scale = 0.0;
  apps::CgConfig cg;
  cg.cls = apps::NpbClass::S;
  cg.nprocs = 4;
  cg.iteration_scale = 0.0;
  std::vector<Kernel> kernels;
  kernels.push_back({"lu", apps::make_lu_app(lu)});
  kernels.push_back({"ep", apps::make_ep_app(ep)});
  kernels.push_back({"ft", apps::make_ft_app(ft)});
  kernels.push_back({"mg", apps::make_mg_app(mg)});
  kernels.push_back({"cg", apps::make_cg_app(cg)});

  for (auto& kernel : kernels) {
    SCOPED_TRACE(kernel.label);
    const auto files = acquire_npb(dir_, std::move(kernel.app), kernel.label);
    ASSERT_EQ(files.size(), 4u);
    expect_replay_identical(files);

    const auto mat = trace::TraceSet::per_process_files(
        files, trace::DecodeMode::strict, DecodePolicy::materialise);
    const auto str = trace::TraceSet::per_process_files(
        files, trace::DecodeMode::strict, DecodePolicy::stream);
    EXPECT_EQ(trace::digest(mat), trace::digest(str));
  }
}

// ---------------------------------------------------------------------------
// Synthetic generator and the automatic policy.
// ---------------------------------------------------------------------------

TEST_F(StreamTraceTest, SyntheticCompactStreamsWithoutMaterialising) {
  trace::SyntheticSpec spec;
  spec.pattern = trace::SyntheticPattern::cg;
  spec.nprocs = 4;
  spec.iterations = 2000;
  const auto files = trace::write_synthetic_traces(dir_ / "syn", spec);

  const auto str = trace::TraceSet::per_process_files(
      files, trace::DecodeMode::strict, DecodePolicy::stream);
  ASSERT_TRUE(str.streaming());
  EXPECT_EQ(str.stats().actions, trace::synthetic_actions(spec));
  // The whole 40k-action set is held as four tiny block indexes — orders of
  // magnitude below the materialised footprint.
  EXPECT_LT(str.resident_bytes(),
            trace::synthetic_actions(spec) * sizeof(Action) / 10);

  const auto mat = trace::TraceSet::per_process_files(
      files, trace::DecodeMode::strict, DecodePolicy::materialise);
  for (int p = 0; p < 4; ++p) EXPECT_EQ(drain(mat, p), drain(str, p));
  EXPECT_EQ(trace::digest(mat), trace::digest(str));
  expect_replay_identical(files);
}

TEST_F(StreamTraceTest, AutomaticPolicySizesTheDecodePath) {
  // Small trace, automatic policy: materialise.
  trace::SyntheticSpec small;
  small.nprocs = 2;
  small.iterations = 100;
  const auto small_files =
      trace::write_synthetic_traces(dir_ / "small", small);
  const auto small_set = trace::TraceSet::per_process_files(small_files);
  EXPECT_FALSE(small_set.streaming());
  EXPECT_EQ(small_set.decode_policy(), DecodePolicy::automatic);

  // A compact trace whose *expanded* size crosses the action threshold
  // (the file itself is a few hundred bytes): automatic must stream — the
  // size heuristic reads the compact repeat counts, not the disk size.
  trace::SyntheticSpec big;
  big.nprocs = 2;
  big.iterations = 4'000'000;
  const auto big_files = trace::write_synthetic_traces(dir_ / "big", big);
  const auto big_set = trace::TraceSet::per_process_files(big_files);
  EXPECT_TRUE(big_set.streaming());
  // Index-backed views stay O(blocks): 2 * (1 + 4M * 5) actions, counted
  // without expanding anything.
  EXPECT_EQ(big_set.stats().actions, trace::synthetic_actions(big));
  EXPECT_EQ(big_set.action_count(0), 1 + big.iterations * 5);
}
