// Exporter golden tests over a small LU class-S replay: the Chrome trace
// JSON must parse, every rank track must hold monotone non-overlapping
// spans, and the emitted bytes must match the committed golden file
// (regenerate with tests/data/regen_golden.sh after an intentional format
// change). The Paje exporter gets structural checks: balanced Push/Pop,
// non-decreasing event times, every container created and destroyed.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "obs/chrome_export.hpp"
#include "obs/paje_export.hpp"
#include "obs/report.hpp"
#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "trace_formats.hpp"

using namespace tir;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// A minimal JSON reader — just enough to assert the exporter's output is
// well-formed without growing a dependency. Throws std::runtime_error.
// ---------------------------------------------------------------------------
struct JsonParser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error(what + " at offset " + std::to_string(pos));
  }
  void skip_ws() {
    while (pos < text.size() && std::isspace(
                                    static_cast<unsigned char>(text[pos])))
      ++pos;
  }
  char peek() {
    skip_ws();
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }
  void value() {
    switch (peek()) {
      case '{': object(); break;
      case '[': array(); break;
      case '"': string(); break;
      case 't': literal("true"); break;
      case 'f': literal("false"); break;
      case 'n': literal("null"); break;
      default: number(); break;
    }
  }
  void object() {
    expect('{');
    if (peek() == '}') { ++pos; return; }
    while (true) {
      string();
      expect(':');
      value();
      if (peek() == ',') { ++pos; continue; }
      expect('}');
      return;
    }
  }
  void array() {
    expect('[');
    if (peek() == ']') { ++pos; return; }
    while (true) {
      value();
      if (peek() == ',') { ++pos; continue; }
      expect(']');
      return;
    }
  }
  void string() {
    expect('"');
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') ++pos;
      ++pos;
    }
    if (pos >= text.size()) fail("unterminated string");
    ++pos;
  }
  void literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) fail("bad literal");
    pos += word.size();
  }
  void number() {
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+'))
      ++pos;
    if (pos == start) fail("expected a number");
  }
};

void assert_parses_as_json(const std::string& text) {
  JsonParser parser{text};
  parser.value();
  parser.skip_ws();
  ASSERT_EQ(parser.pos, text.size()) << "trailing bytes after JSON value";
}

// ---------------------------------------------------------------------------
// The shared workload: acquire LU class S on 4 processes (one iteration),
// replay the time-independent traces with the recorder on. Computed once —
// acquisition writes real TAU/TI files, so it is the slow part.
// ---------------------------------------------------------------------------
const replay::ReplayResult& lu_replay() {
  static const replay::ReplayResult result = [] {
    const fs::path workdir =
        fs::temp_directory_path() /
        ("tir_obs_export_" + std::to_string(::getpid()));
    fs::create_directories(workdir);

    apps::LuConfig cfg;
    cfg.cls = apps::NpbClass::S;
    cfg.nprocs = 4;
    cfg.iteration_scale = 0.0;  // clamped to one iteration
    acq::AcquisitionSpec spec;
    spec.app = apps::make_lu_app(cfg);
    spec.workdir = workdir;
    spec.run_uninstrumented_baseline = false;
    const auto acquired = acq::run_acquisition(spec);

    std::vector<std::vector<trace::Action>> actions;
    for (const auto& file : acquired.ti_files)
      actions.push_back(test::read_trace(file));
    fs::remove_all(workdir);

    auto platform = std::make_shared<plat::Platform>();
    const auto hosts =
        plat::build_cluster(*platform, plat::bordereau_spec(cfg.nprocs));
    replay::ScenarioSpec scenario;
    scenario.name = "lu-s4";
    scenario.platform = platform;
    scenario.process_hosts = hosts;
    scenario.traces = trace::TraceSet::in_memory(std::move(actions));
    scenario.config.record_spans = true;
    return replay::run_scenario(scenario);
  }();
  return result;
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

}  // namespace

TEST(ObsExportTest, LuReplayRecordsEveryRank) {
  const auto& result = lu_replay();
  ASSERT_TRUE(result.spans);
  const obs::Recorder& recorder = *result.spans;
  ASSERT_EQ(recorder.tracks(), 4);
  for (int t = 0; t < recorder.tracks(); ++t)
    EXPECT_FALSE(recorder.track_spans(t).empty()) << "rank " << t;
  EXPECT_GT(recorder.edges().size(), 0u);
  EXPECT_GT(result.simulated_time, 0.0);
}

TEST(ObsExportTest, TracksHoldMonotoneNonOverlappingSpans) {
  const obs::Recorder& recorder = *lu_replay().spans;
  for (int t = 0; t < recorder.tracks(); ++t) {
    const auto& spans = recorder.track_spans(t);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_LE(spans[i].start, spans[i].end)
          << "rank " << t << " span " << i;
      if (i > 0) {
        EXPECT_LE(spans[i - 1].end, spans[i].start)
            << "rank " << t << " spans " << i - 1 << "/" << i << " overlap";
      }
    }
    EXPECT_LE(spans.back().end, lu_replay().simulated_time + 1e-12);
  }
}

TEST(ObsExportTest, ChromeJsonParsesAndNamesEveryRank) {
  const obs::Recorder& recorder = *lu_replay().spans;
  const std::string json = obs::chrome_trace_json(recorder);
  assert_parses_as_json(json);
  for (int t = 0; t < recorder.tracks(); ++t)
    EXPECT_NE(json.find("\"rank " + std::to_string(t) + "\""),
              std::string::npos);
  // One "X" event per span, one "s"/"f" pair per edge.
  std::size_t complete_events = 0, flow_starts = 0, flow_ends = 0;
  for (std::size_t at = json.find("\"ph\": \""); at != std::string::npos;
       at = json.find("\"ph\": \"", at + 1)) {
    const char phase = json[at + 7];
    complete_events += phase == 'X';
    flow_starts += phase == 's';
    flow_ends += phase == 'f';
  }
  EXPECT_EQ(complete_events, recorder.total_spans());
  EXPECT_EQ(flow_starts, recorder.edges().size());
  EXPECT_EQ(flow_ends, recorder.edges().size());
}

TEST(ObsExportTest, ChromeJsonMatchesGolden) {
  const std::string json = obs::chrome_trace_json(*lu_replay().spans);
  const fs::path golden =
      fs::path(TIR_TEST_DATA_DIR) / "lu_s4_chrome_golden.json";
  if (std::getenv("TIR_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden, std::ios::binary);
    out << json;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden regenerated at " << golden;
  }
  ASSERT_TRUE(fs::exists(golden))
      << golden << " missing — run tests/data/regen_golden.sh";
  const std::string want = read_bytes(golden);
  ASSERT_EQ(json.size(), want.size())
      << "Chrome export changed size; if intentional, regenerate via "
         "tests/data/regen_golden.sh";
  EXPECT_TRUE(json == want)
      << "Chrome export bytes diverged from the golden file";
}

TEST(ObsExportTest, PajeTraceIsStructurallySound) {
  const obs::Recorder& recorder = *lu_replay().spans;
  const std::string paje = obs::paje_trace(recorder);
  ASSERT_TRUE(paje.rfind("%EventDef", 0) == 0);

  std::size_t pushes = 0, pops = 0, creates = 0, destroys = 0;
  double last_time = 0.0;
  std::istringstream lines(paje);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream row(line);
    int id = -1;
    ASSERT_TRUE(static_cast<bool>(row >> id)) << line;
    if (id <= 3) continue;  // type/value definitions carry no timestamp
    double time = 0.0;
    ASSERT_TRUE(static_cast<bool>(row >> time)) << line;
    if (id == 4) ++creates;
    if (id == 5) ++destroys;
    if (id == 6) ++pushes;
    if (id == 7) ++pops;
    // Paje requires non-decreasing timestamps.
    EXPECT_GE(time + 1e-12, last_time) << line;
    last_time = std::max(last_time, time);
  }
  EXPECT_EQ(pushes, recorder.total_spans());
  EXPECT_EQ(pushes, pops);
  // Root container + one per rank, each destroyed at the end.
  EXPECT_EQ(creates, static_cast<std::size_t>(recorder.tracks()) + 1);
  EXPECT_EQ(creates, destroys);
}

TEST(ObsExportTest, ReportAccountsForTheMakespan) {
  const auto& result = lu_replay();
  const obs::TimelineReport report = obs::analyze(*result.spans);
  EXPECT_DOUBLE_EQ(report.makespan, result.simulated_time);
  ASSERT_EQ(static_cast<int>(report.ranks.size()), 4);
  for (const auto& rank : report.ranks) {
    EXPECT_GT(rank.compute, 0.0);
    EXPECT_LE(rank.busy(), report.makespan + 1e-9);
  }

  ASSERT_FALSE(report.critical_path.empty());
  // The path is contiguous in forward time and ends at the makespan.
  for (std::size_t i = 1; i < report.critical_path.size(); ++i)
    EXPECT_LE(report.critical_path[i - 1].end,
              report.critical_path[i].end + 1e-12);
  EXPECT_NEAR(report.critical_path.back().end, report.makespan, 1e-9);
  const double path_total = report.path_compute + report.path_p2p +
                            report.path_wait + report.path_collective;
  EXPECT_GT(path_total, 0.0);
  EXPECT_LE(path_total, report.makespan + 1e-9);

  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("critical path"), std::string::npos);
  EXPECT_NE(rendered.find("rank"), std::string::npos);
}
