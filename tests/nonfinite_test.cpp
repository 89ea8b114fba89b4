// Non-finite numbers at every front door. NaN and the infinities must be
// rejected where text or bytes become numbers — trace lines, binary trace
// volumes, platform quantities, service parameters — and by the solver and
// platform constructors behind them, instead of replaying to a NaN or
// absurd makespan.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "platform/platform.hpp"
#include "serve/scenario_build.hpp"
#include "serve/service.hpp"
#include "simkern/maxmin.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/units.hpp"
#include "trace/action.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_set.hpp"

using namespace tir;
namespace fs = std::filesystem;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

const char* const kNonFinite[] = {"nan",  "NaN", "-nan",     "inf",
                                  "-inf", "INF", "infinity", "-Infinity"};

/// A fresh directory under the system temp dir, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() /
             ("tir_nonfinite_" + name + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

}  // namespace

TEST(NonFinite, ToDoubleAndTraceLinesReject) {
  for (const char* text : kNonFinite) {
    EXPECT_THROW(str::to_double(text), ParseError) << text;
    const std::string s(text);
    EXPECT_THROW(trace::parse_line("p0 compute " + s), ParseError) << text;
    EXPECT_THROW(trace::parse_line("p0 send p1 " + s), ParseError) << text;
    EXPECT_THROW(trace::parse_line("p0 allReduce 8 " + s), ParseError) << text;
  }
  EXPECT_EQ(str::to_double(" 1.5e3 "), 1500.0);
  EXPECT_EQ(trace::parse_line("p0 compute 1e308").volume, 1e308);
}

TEST(NonFinite, TextAndCompactTraceFilesReject) {
  // A compact file stores its lines as text, so both go through parse_line.
  TempDir dir("text");
  const std::vector<trace::Action> actions = {
      {0, trace::ActionType::compute, -1, 1e6, 0, 0}};
  for (const auto format : {trace::TraceFormat::text,
                            trace::TraceFormat::compact}) {
    const fs::path file = dir.path / "SG_process0.trace";
    trace::write_trace(file, actions, 0, format);
    std::string bytes;
    {
      std::ifstream in(file, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    const auto at = bytes.find("1000000");
    ASSERT_NE(at, std::string::npos);
    bytes.replace(at, 7, "inf    ");  // same length: compact sizes stay put
    std::ofstream(file, std::ios::binary | std::ios::trunc) << bytes;
    for (const auto policy : {trace::DecodePolicy::materialise,
                              trace::DecodePolicy::stream}) {
      EXPECT_THROW(trace::TraceSet::per_process_files(
                       {file}, trace::DecodeMode::strict, policy)
                       .actions(0),
                   ParseError)
          << trace::format_name(format);
    }
  }
}

TEST(NonFinite, BinaryTraceVolumesReject) {
  TempDir dir("binary");
  for (const double bad : {kNaN, kInf, -kInf}) {
    const std::vector<trace::Action> actions = {
        {0, trace::ActionType::compute, -1, 2.5, 0, 0},
        {0, trace::ActionType::compute, -1, bad, 0, 0}};
    const fs::path file = dir.path / "SG_process0.trace";
    trace::write_trace(file, actions, 0, trace::TraceFormat::binary);
    for (const auto policy : {trace::DecodePolicy::materialise,
                              trace::DecodePolicy::stream}) {
      try {
        trace::TraceSet::per_process_files({file}, trace::DecodeMode::strict,
                                           policy)
            .actions(0);
        ADD_FAILURE() << bad << " decoded";
      } catch (const ParseError& e) {
        EXPECT_NE(std::strstr(e.what(), "non-finite volume"), nullptr)
            << e.what();
      }
    }
  }
}

TEST(NonFinite, UnitsReject) {
  for (const char* text : kNonFinite) {
    EXPECT_THROW(units::parse_value(text), ParseError) << text;
    EXPECT_THROW(units::parse_duration(text), ParseError) << text;
    EXPECT_THROW(units::parse_bytes(text), ParseError) << text;
  }
  // Spelt out with a suffix, or overflowing through one.
  EXPECT_THROW(units::parse_value("infGbps"), ParseError);
  EXPECT_THROW(units::parse_value("nanGf"), ParseError);
  EXPECT_THROW(units::parse_value("1e308k"), ParseError);
  EXPECT_THROW(units::parse_duration("infus"), ParseError);
  EXPECT_THROW(units::parse_duration("nanms"), ParseError);
  EXPECT_EQ(units::parse_value("1.25Gbps"), 1.25e9);
  EXPECT_DOUBLE_EQ(units::parse_duration("50us"), 50e-6);
}

TEST(NonFinite, ServiceParametersAreBadRequests) {
  for (const char* text : kNonFinite)
    EXPECT_THROW(serve::parse_double("x", text), ParseError) << text;
  EXPECT_EQ(serve::parse_double("x", "0.5"), 0.5);

  TempDir dir("serve");
  fs::create_directories(dir.path / "ti");
  std::ofstream(dir.path / "ti" / "SG_process0.trace") << "p0 compute 1e6\n";
  serve::ServiceOptions options;
  options.workers = 1;
  options.base_dir = dir.path.string();
  serve::ReplayService service(options);
  const auto run = [&](std::map<std::string, std::string> params) {
    params.emplace("traces", "ti");
    params.emplace("deployment", "block");
    params.emplace("platform", "cluster:hosts=1");
    return service.run(serve::Request{"r", std::move(params)});
  };
  EXPECT_EQ(run({}).status, serve::Response::Status::ok);
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"efficiency", "nan"},
           {"efficiency", "inf"},
           {"platform", "cluster:hosts=1,bw=nan"},
           {"platform", "cluster:hosts=1,power=inf"},
           {"platform", "cluster:hosts=1,lat=nanus"},
           {"perturb", "hostnoise:nan"},
           {"fault", "host:cluster-0:0.5@inf"}}) {
    const serve::Response r = run({{key, value}});
    EXPECT_EQ(r.status, serve::Response::Status::badrequest)
        << key << "=" << value << ": " << r.error;
  }
}

TEST(NonFinite, SolverAndPlatformConstructorsReject) {
  sim::MaxMin m;
  EXPECT_THROW(m.add_resource(kNaN), Error);
  const auto r = m.add_resource(10.0);
  EXPECT_THROW(m.set_capacity(r, kNaN), Error);
  EXPECT_THROW(m.add_variable(kNaN, {r}), Error);
  EXPECT_EQ(m.active_variable_count(), 0u);
  EXPECT_FALSE(m.dirty());

  plat::Platform p;
  EXPECT_THROW(p.add_link("l", kNaN, 0.0), Error);
  EXPECT_THROW(p.add_link("l", 1e9, kNaN), Error);
  const auto root = p.add_junction("root");
  EXPECT_THROW(p.add_host("h", kNaN, root, plat::kNone), Error);
  EXPECT_EQ(p.host_count(), 0u);
}
