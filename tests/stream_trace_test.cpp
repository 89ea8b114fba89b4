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

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "apps/npb_extra.hpp"
#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "support/error.hpp"
#include "trace/compact.hpp"
#include "trace/digest.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_set.hpp"
#include "trace/validate.hpp"
#include "trace_formats.hpp"

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
      trace::TraceFormat format) {
    std::vector<fs::path> files;
    for (int p = 0; p < static_cast<int>(program.size()); ++p) {
      files.push_back(dir_ / (test::name(format) + "_SG_process" +
                              std::to_string(p) + ".trace"));
      trace::write_trace(files.back(), program[static_cast<std::size_t>(p)],
                         p, format);
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
  for (const trace::TraceFormat codec : test::kTraceFormats) {
    SCOPED_TRACE(test::name(codec));
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
  trace::write_trace(file, interleaved, -1, trace::TraceFormat::text);

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
  trace::write_trace(file, interleaved, -1, trace::TraceFormat::compact);

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
  for (const trace::TraceFormat codec : test::kTraceFormats) {
    SCOPED_TRACE(test::name(codec));
    expect_replay_identical(write_files(program, codec));
  }
}

TEST_F(StreamTraceTest, ReplayIdenticalUnderFaultTimeline) {
  const auto files =
      write_files(mixed_actions(8, 4), trace::TraceFormat::binary);
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

TEST_F(StreamTraceTest, SegmentCapFallsBackToMaterialise) {
  // A merged file alternating pids on every line needs one segment per
  // action; past kMaxStreamSegments the index gives up and the set
  // materialises through one collecting pass that ignores the cap.
  std::vector<std::vector<Action>> program(2);
  for (int i = 0; i < 40'000; ++i)
    for (int p = 0; p < 2; ++p)
      program[static_cast<std::size_t>(p)].push_back(
          {p, ActionType::compute, -1, 1000.0 + i, 0, 0});
  const fs::path file = dir_ / "alternating.trace";
  std::vector<Action> alternating;
  for (int i = 0; i < 40'000; ++i)
    for (const auto& stream : program)
      alternating.push_back(stream[static_cast<std::size_t>(i)]);
  trace::write_trace(file, alternating, -1, trace::TraceFormat::text);
  const auto str = trace::TraceSet::merged_file(
      file, 2, trace::DecodeMode::strict, DecodePolicy::stream);
  EXPECT_FALSE(str.streaming());
  EXPECT_EQ(str.index_count(), 1u);
  const auto mat = trace::TraceSet::merged_file(
      file, 2, trace::DecodeMode::strict, DecodePolicy::materialise);
  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ(drain(str, p), program[static_cast<std::size_t>(p)]);
    EXPECT_EQ(drain(str, p), drain(mat, p));
  }
  EXPECT_EQ(str.decode_count(), 1u);
}

namespace {

/// The process's resident file-backed pages (RssFile in /proc/self/status),
/// in bytes; -1 where the kernel does not report it.
long long rss_file_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("RssFile:", 0) == 0)
      return std::stoll(line.substr(8)) * 1024;  // "RssFile:  1234 kB"
  return -1;
}

}  // namespace

TEST_F(StreamTraceTest, StreamedTextHoldsABoundedWindow) {
  // A 33 MiB text file, just written, so its pages sit in the page cache:
  // a cursor that kept its whole mapping resident would grow RssFile by
  // about the file's size.
  const fs::path file = dir_ / "big.trace";
  {
    std::string chunk;
    while (chunk.size() < (1u << 20)) chunk += "p0 compute 1234567\n";
    std::ofstream out(file, std::ios::binary);
    for (int i = 0; i < 33; ++i) out << chunk;
  }
  ASSERT_GE(fs::file_size(file), 32ull << 20);
  const auto set = trace::TraceSet::per_process_files(
      {file}, trace::DecodeMode::strict, DecodePolicy::stream);
  ASSERT_TRUE(set.streaming());
  const long long before = rss_file_bytes();
  if (before < 0) GTEST_SKIP() << "no RssFile in /proc/self/status";

  long long peak = before;
  std::uint64_t n = 0;
  const auto source = set.open(0);
  while (const auto a = source->next()) {
    ASSERT_EQ(a->volume, 1234567.0);
    if (++n % 65536 == 0) peak = std::max(peak, rss_file_bytes());
  }
  peak = std::max(peak, rss_file_bytes());
  EXPECT_EQ(n, set.action_count(0));
  EXPECT_LT(peak - before, 8ll << 20)
      << "RssFile grew from " << before << " to " << peak << " bytes";
}

// ---------------------------------------------------------------------------
// Front door: a compact file's expansion is budgeted before it is
// materialised.
// ---------------------------------------------------------------------------

namespace {

/// A TIRC file whose one block repeats a 2-action body 2^24 times: 38 bytes
/// on disk (one pid per body action), 2^25 actions once expanded.
fs::path write_compact_bomb(const fs::path& file, int pid0, int pid1) {
  const trace::CompactProgram program = {
      {1u << 24,
       {{pid0, ActionType::compute, -1, 1, 0, 0},
        {pid1, ActionType::compute, -1, 1, 0, 0}}}};
  trace::write_trace(file, program, 0, trace::TraceFormat::compact);
  return file;
}

/// Runs `consume` and requires the budget error naming `file`, its
/// 2^25-action expansion and the budget.
template <typename F>
void expect_budget_error(const fs::path& file, F consume) {
  try {
    consume();
    ADD_FAILURE() << "expected the materialise budget to refuse " << file;
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(file.string()), std::string::npos) << what;
    EXPECT_NE(what.find("33554432 actions"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(trace::kMaterialiseBudgetBytes /
                                       sizeof(Action))),
              std::string::npos)
        << what;
  }
}

}  // namespace

TEST_F(StreamTraceTest, MergedCompactBombIsRefusedBeforeExpanding) {
  const fs::path file = write_compact_bomb(dir_ / "bomb.ctrace", 0, 1);
  EXPECT_EQ(fs::file_size(file), 38u);
  for (const auto mode : {trace::DecodeMode::strict,
                          trace::DecodeMode::lenient}) {
    for (const auto policy : {DecodePolicy::materialise, DecodePolicy::stream,
                              DecodePolicy::automatic}) {
      // A fresh set per throwing call: ThreadSanitizer's pthread_once never
      // releases a once-flag whose callable threw, so a retry would hang.
      const auto set = [&] {
        return trace::TraceSet::merged_file(file, 2, mode, policy);
      };
      EXPECT_FALSE(set().streaming());  // merged compact never streams
      expect_budget_error(file, [&] { (void)set().open(0); });
      expect_budget_error(file, [&] { (void)set().coverage(); });
    }
  }
}

TEST_F(StreamTraceTest, SplitCompactBombStreamsButRefusesToMaterialise) {
  const fs::path file = write_compact_bomb(dir_ / "bomb.ctrace", 0, 0);
  for (const auto mode : {trace::DecodeMode::strict,
                          trace::DecodeMode::lenient}) {
    const auto forced = trace::TraceSet::per_process_files(
        {file}, mode, DecodePolicy::materialise);
    expect_budget_error(file, [&] { (void)forced.actions(0); });

    // Streaming needs no expansion: the index holds one block.
    const auto streamed =
        trace::TraceSet::per_process_files({file}, mode, DecodePolicy::stream);
    ASSERT_TRUE(streamed.streaming());
    EXPECT_EQ(streamed.action_count(0), 1u << 25);
    EXPECT_EQ(streamed.coverage(), 1.0);
    // ...but the salvage cut needs the vectors, so it hits the budget too.
    expect_budget_error(file,
                        [&] { (void)trace::truncate_consistent(streamed); });
  }
}

// ---------------------------------------------------------------------------
// Merged wild-pid rule: an action for a process outside [0, nprocs).
// ---------------------------------------------------------------------------

namespace {

/// A merged 2-process program whose seventh action names process 5: three
/// rounds of (p0, p1), then p5, then one more p0 action. `prefix` is the
/// part before the wild action — as a compact program, its first block.
trace::CompactProgram wild_program(bool prefix_only) {
  const Action a0{0, ActionType::compute, -1, 1, 0, 0};
  const Action a1{1, ActionType::compute, -1, 2, 0, 0};
  trace::CompactProgram program = {{3, {a0, a1}}};
  if (!prefix_only)
    program.push_back({1,
                       {{5, ActionType::compute, -1, 3, 0, 0},
                        {0, ActionType::compute, -1, 4, 0, 0}}});
  return program;
}

/// Writes `program` in `format` (compact keeps its blocks; the others get
/// the expansion). Returns the file.
fs::path write_program(const fs::path& file,
                       const trace::CompactProgram& program,
                       trace::TraceFormat format) {
  trace::write_trace(file, program, -1, format);
  return file;
}

/// Appends bytes no decoder accepts after the wild action: a bad text line,
/// a bogus binary record tag, or — compact having no record framing — a
/// lopped-off last byte.
void corrupt_tail(const fs::path& file, const std::string& format) {
  if (format == "compact") {
    fs::resize_file(file, fs::file_size(file) - 1);
    return;
  }
  std::ofstream out(file, std::ios::binary | std::ios::app);
  out << (format == "text" ? "p0 warp 9\n" : "\x0F");
}

}  // namespace

TEST_F(StreamTraceTest, MergedWildPidRuleEveryFormatModeAndPolicy) {
  for (const trace::TraceFormat f : test::kTraceFormats) {
    const std::string format = test::name(f);
    SCOPED_TRACE(format);
    const fs::path wild =
        write_program(dir_ / ("wild." + format), wild_program(false), f);
    // The clean prefix before the wild action, encoded alone: its size is
    // the wild record's offset (for compact, its block's).
    const std::uint64_t wild_offset = fs::file_size(write_program(
        dir_ / ("prefix." + format), wild_program(true), f));
    const fs::path wild_then_bad = write_program(
        dir_ / ("wild_then_bad." + format), wild_program(false), f);
    corrupt_tail(wild_then_bad, format);
    const std::string wild_error =
        wild.string() + ": action for process 5 but nprocs is 2";
    const std::vector<Action> kept[2] = {
        std::vector<Action>(3, {0, ActionType::compute, -1, 1, 0, 0}),
        std::vector<Action>(3, {1, ActionType::compute, -1, 2, 0, 0})};

    for (const auto policy : {DecodePolicy::materialise,
                              DecodePolicy::stream}) {
      SCOPED_TRACE(policy == DecodePolicy::stream ? "stream" : "materialise");
      // Strict: the wild pid is an error...
      const auto strict = trace::TraceSet::merged_file(
          wild, 2, trace::DecodeMode::strict, policy);
      try {
        (void)strict.stats();
        ADD_FAILURE() << "expected the wild-pid error";
      } catch (const ParseError& e) {
        EXPECT_EQ(std::string(e.what()), wild_error);
      }
      // ...outranked by a parse error anywhere later in the file.
      const auto strict_bad = trace::TraceSet::merged_file(
          wild_then_bad, 2, trace::DecodeMode::strict, policy);
      try {
        (void)strict_bad.stats();
        ADD_FAILURE() << "expected the later parse error";
      } catch (const ParseError& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.find("nprocs"), std::string::npos) << what;
        EXPECT_EQ(what.rfind(wild_then_bad.string() + (format == "text"
                                                           ? ":9: "
                                                           : ": "),
                             0),
                  0u)
            << what;
      }

      // Lenient: keep what came before the wild action; the coverage stops
      // at its record.
      const auto lenient = trace::TraceSet::merged_file(
          wild, 2, trace::DecodeMode::lenient, policy);
      for (int p = 0; p < 2; ++p) EXPECT_EQ(drain(lenient, p), kept[p]);
      const auto salvage = lenient.salvage_report();
      ASSERT_EQ(salvage.size(), 1u);
      EXPECT_FALSE(salvage[0].complete);
      EXPECT_EQ(salvage[0].error, wild_error);
      EXPECT_EQ(salvage[0].bytes_consumed, wild_offset);
      EXPECT_DOUBLE_EQ(lenient.coverage(),
                       static_cast<double>(wild_offset) /
                           static_cast<double>(fs::file_size(wild)));
      EXPECT_LT(lenient.coverage(), 1.0);

      // A parse error after the wild action keeps its own text, and the
      // smaller of the two offsets (compact salvages all or nothing).
      const auto lenient_bad = trace::TraceSet::merged_file(
          wild_then_bad, 2, trace::DecodeMode::lenient, policy);
      const auto bad_salvage = lenient_bad.salvage_report();
      ASSERT_EQ(bad_salvage.size(), 1u);
      EXPECT_FALSE(bad_salvage[0].complete);
      EXPECT_EQ(bad_salvage[0].error.find("nprocs"), std::string::npos);
      if (format == "compact") {
        EXPECT_EQ(bad_salvage[0].bytes_consumed, 0u);
        for (int p = 0; p < 2; ++p) EXPECT_TRUE(drain(lenient_bad, p).empty());
      } else {
        EXPECT_EQ(bad_salvage[0].bytes_consumed, wild_offset);
        for (int p = 0; p < 2; ++p) EXPECT_EQ(drain(lenient_bad, p), kept[p]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A streamed set reads its files through the offsets of one indexing pass.
// ---------------------------------------------------------------------------

TEST_F(StreamTraceTest, RewrittenFileFailsTheStreamedReplay) {
  for (const trace::TraceFormat codec : test::kTraceFormats) {
    const std::string format(trace::format_name(codec));
    SCOPED_TRACE(format);
    const fs::path dir = dir_ / format;
    trace::SyntheticSpec cg;
    cg.nprocs = 4;
    cg.iterations = 2000;
    trace::write_synthetic_traces(dir, cg, format);
    ScenarioSpec spec = cluster_spec(cg.nprocs);
    spec.traces = trace::TraceSet::per_process_files(
        trace::process_trace_files({dir}), trace::DecodeMode::strict,
        DecodePolicy::stream);
    ASSERT_TRUE(spec.traces.streaming());  // indexed

    // Rewritten in place, every file smaller: the index's offsets and
    // counts no longer describe these bytes.
    cg.iterations = 20;
    trace::write_synthetic_traces(dir, cg, format);
    const ReplayReport report = run_scenario_report(spec);
    EXPECT_EQ(report.status, ReplayStatus::failed);
    EXPECT_NE(report.error.find((dir / "SG_process").string()),
              std::string::npos)
        << report.error;
    EXPECT_NE(report.error.find("changed since it was indexed"),
              std::string::npos)
        << report.error;
  }
}

TEST_F(StreamTraceTest, StrictDecodeErrorRepeatsOnEveryCall) {
  // A decode that threw leaves its once-flag unset: a second call on the
  // same set decodes again and throws again (it must not hang).
  const fs::path bad = dir_ / "bad.trace";
  {
    std::ofstream out(bad);
    out << "p0 compute 100\np0 warp 9\n";
  }
  const auto set = trace::TraceSet::per_process_files(
      {bad}, trace::DecodeMode::strict, DecodePolicy::materialise);
  EXPECT_THROW(set.actions(0), ParseError);
  EXPECT_THROW(set.actions(0), ParseError);
  EXPECT_EQ(set.decode_count(), 0u);

  // The streaming decision retries the same way.
  const auto streamed = trace::TraceSet::per_process_files(
      {bad}, trace::DecodeMode::strict, DecodePolicy::stream);
  EXPECT_THROW(streamed.streaming(), ParseError);
  EXPECT_THROW(streamed.streaming(), ParseError);
  EXPECT_EQ(streamed.index_count(), 0u);
}

TEST_F(StreamTraceTest, ActionCountsAddUpToTheStatsCountEveryCodecAndPolicy) {
  // run_scenario_report sums action_count over the processes as a failed
  // replay's coverage divisor instead of draining every action through
  // stats(): the two counts must agree for every codec and policy.
  const auto program = mixed_actions(5, 3);
  for (const trace::TraceFormat codec : test::kTraceFormats) {
    SCOPED_TRACE(test::name(codec));
    const auto files = write_files(program, codec);
    for (const DecodePolicy policy :
         {DecodePolicy::materialise, DecodePolicy::stream}) {
      const auto set = trace::TraceSet::per_process_files(
          files, trace::DecodeMode::strict, policy);
      EXPECT_EQ(set.streaming(), policy == DecodePolicy::stream);
      std::uint64_t counted = 0;
      for (int p = 0; p < set.nprocs(); ++p) counted += set.action_count(p);
      EXPECT_EQ(counted, set.stats().actions);
      EXPECT_EQ(counted, 5u * program[0].size());
    }
  }

  // A parse error is still a failed report with zero coverage: the count
  // forces the decode before the replay starts.
  const fs::path bad = dir_ / "bad.trace";
  {
    std::ofstream out(bad);
    out << "p0 compute 100\np0 warp 9\n";
  }
  for (const DecodePolicy policy :
       {DecodePolicy::materialise, DecodePolicy::stream}) {
    ScenarioSpec spec = cluster_spec(1);
    spec.traces = trace::TraceSet::per_process_files(
        {bad}, trace::DecodeMode::strict, policy);
    const ReplayReport report = run_scenario_report(spec);
    EXPECT_EQ(report.status, ReplayStatus::failed);
    EXPECT_EQ(report.coverage, 0.0);
    EXPECT_EQ(report.result.actions_replayed, 0u);
  }
}
