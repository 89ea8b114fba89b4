#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "trace/action.hpp"

using namespace tir::trace;

TEST(Action, Figure1LinesParse) {
  // The exact right-hand side of the paper's Figure 1.
  const Action c = parse_line("p0 compute 1e6");
  EXPECT_EQ(c.pid, 0);
  EXPECT_EQ(c.type, ActionType::compute);
  EXPECT_DOUBLE_EQ(c.volume, 1e6);

  const Action s = parse_line("p0 send p1 1e6");
  EXPECT_EQ(s.type, ActionType::send);
  EXPECT_EQ(s.partner, 1);
  EXPECT_DOUBLE_EQ(s.volume, 1e6);

  const Action r = parse_line("p0 recv p3");
  EXPECT_EQ(r.type, ActionType::recv);
  EXPECT_EQ(r.partner, 3);
  EXPECT_DOUBLE_EQ(r.volume, 0.0);  // volume omitted, as in the figure
}

TEST(Action, Section43ExampleParses) {
  // "p1 send p0 163840" — the tau2simgrid output example of §4.3.
  const Action a = parse_line("p1 send p0 163840");
  EXPECT_EQ(a.pid, 1);
  EXPECT_EQ(a.partner, 0);
  EXPECT_DOUBLE_EQ(a.volume, 163840);
}

TEST(Action, AllTable1FormsRoundTrip) {
  const char* lines[] = {
      "p0 compute 500000",      "p1 send p2 163840",
      "p1 Isend p2 163840",     "p2 recv p1 163840",
      "p2 Irecv p1 163840",     "p0 bcast 4096",
      "p3 reduce 4096 100000",  "p3 allReduce 4096 100000",
      "p4 barrier",             "p4 comm_size 8",
      "p5 wait",
  };
  for (const char* line : lines) {
    const Action a = parse_line(line);
    EXPECT_EQ(to_line(a), line) << "for input: " << line;
    // Parsing the rendered line yields the same action.
    EXPECT_EQ(parse_line(to_line(a)), a);
  }
}

TEST(Action, KeywordsAreCaseInsensitiveOnInput) {
  EXPECT_EQ(parse_line("p0 ISEND p1 10").type, ActionType::isend);
  EXPECT_EQ(parse_line("p0 allreduce 1 2").type, ActionType::allreduce);
  EXPECT_EQ(parse_line("p0 COMPUTE 5").type, ActionType::compute);
}

TEST(Action, PidAcceptsBareIntegers) {
  EXPECT_EQ(parse_line("7 compute 1").pid, 7);
  EXPECT_EQ(parse_line("7 send 9 1").partner, 9);
}

TEST(Action, RejectsMalformedLines) {
  EXPECT_THROW(parse_line(""), tir::ParseError);
  EXPECT_THROW(parse_line("p0"), tir::ParseError);
  EXPECT_THROW(parse_line("p0 teleport 5"), tir::ParseError);
  EXPECT_THROW(parse_line("p0 compute"), tir::ParseError);
  EXPECT_THROW(parse_line("p0 compute 1 2"), tir::ParseError);
  EXPECT_THROW(parse_line("p0 send p1"), tir::ParseError);
  EXPECT_THROW(parse_line("p0 send p1 1e6 extra"), tir::ParseError);
  EXPECT_THROW(parse_line("p0 reduce 5"), tir::ParseError);
  EXPECT_THROW(parse_line("p0 barrier now"), tir::ParseError);
  EXPECT_THROW(parse_line("p0 compute -5"), tir::ParseError);
  EXPECT_THROW(parse_line("p-1 compute 5"), tir::ParseError);
  EXPECT_THROW(parse_line("p0 wait 3"), tir::ParseError);
}

TEST(Action, VeryLargeIntegralVolumesSurvive) {
  const Action a = parse_line("p0 compute 123456789012345");
  EXPECT_EQ(to_line(a), "p0 compute 123456789012345");
}

namespace {

/// A volume as printf renders it: "%.0f" for integers in [0, 2^53), "%.17g"
/// for anything else (the writer's format before it moved to to_chars).
std::string printf_volume(double v) {
  char buf[64];
  if (v >= 0 && v < 9007199254740992.0 && v == std::floor(v)) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

}  // namespace

TEST(Action, AppendLineWritesWhatPrintfWrote) {
  const double two53 = 9007199254740992.0;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> volumes{
      0.0,
      1.0,
      163840.0,
      1e6,
      two53,
      std::nextafter(two53, 0.0),
      std::nextafter(two53, inf),
      two53 * 2,
      std::numeric_limits<double>::denorm_min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::min(),
      1e300,
      std::numeric_limits<double>::max(),
      0.1,
      1.0 / 3.0,
      2.5,
      12345678901234567.0,
      0.12345678901234568,
      9.8765432109876543e-5,
      1e22,
      1e-300};
  // Random bit patterns: every finite non-negative double is fair game.
  tir::Rng rng(2026);
  while (volumes.size() < 20000) {
    const std::uint64_t bits = rng.next_u64() & ~(std::uint64_t{1} << 63);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) volumes.push_back(v);
    // Integers and short decimals, as traces mostly carry.
    volumes.push_back(std::floor(rng.uniform(0.0, 1e12)));
    volumes.push_back(std::round(rng.uniform(0.0, 1e6)) / 100.0);
  }

  std::string out = "kept|";
  for (const double v : volumes) {
    const std::string text = printf_volume(v);
    const std::vector<std::pair<Action, std::string>> cases{
        {Action{3, ActionType::compute, -1, v, 0, 0}, "p3 compute " + text},
        {Action{12, ActionType::send, 7, v, 0, 0}, "p12 send p7 " + text},
        {Action{0, ActionType::irecv, 41, v, 0, 0},
         v > 0 ? "p0 Irecv p41 " + text : "p0 Irecv p41"},
        {Action{5, ActionType::allreduce, -1, v, 2.5, 0},
         "p5 allReduce " + text + " 2.5"},
    };
    for (const auto& [action, line] : cases) {
      out.resize(5);
      append_line(out, action);
      ASSERT_EQ(out.substr(5), line);
      ASSERT_EQ(to_line(action), line);
      ASSERT_EQ(parse_line(line), action) << line;
    }
  }
  EXPECT_EQ(out.substr(0, 5), "kept|");

  Action size{1, ActionType::comm_size, -1, 0, 0, 2147483647};
  EXPECT_EQ(to_line(size), "p1 comm_size 2147483647");
  EXPECT_EQ(to_line(Action{2147483647, ActionType::barrier, -1, 0, 0, 0}),
            "p2147483647 barrier");
}
