// parse_line against an oracle: the tokenise-then-convert parser it
// replaced (split into blank-separated fields, a linear case-insensitive
// keyword scan, from_chars for every number), kept here verbatim. Over
// generated lines both must yield the same Action, bit for bit, or throw
// the same exception type with the same message.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "trace/action.hpp"

using namespace tir;
using trace::Action;
using trace::ActionType;

namespace oracle {

bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}

std::size_t split_ws(std::string_view s, std::string_view* out,
                     std::size_t max) {
  std::size_t n = 0;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_blank(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_blank(s[i])) ++i;
    if (i > start) {
      if (n == max) return max + 1;
      out[n++] = s.substr(start, i - start);
    }
  }
  return n;
}

char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool equals_ignoring_case(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  return true;
}

ActionType action_type_from_keyword(std::string_view keyword) {
  for (std::size_t t = 0; t < trace::kActionTypes; ++t) {
    const auto type = static_cast<ActionType>(t);
    if (equals_ignoring_case(trace::action_keyword(type), keyword))
      return type;
  }
  throw ParseError("unknown trace action keyword '" + std::string(keyword) +
                   "'");
}

int parse_pid(std::string_view token) {
  if (!token.empty() && (token[0] == 'p' || token[0] == 'P'))
    token.remove_prefix(1);
  const long long v = str::to_int(token);
  if (v < 0) throw ParseError("negative process id in trace line");
  return static_cast<int>(v);
}

Action parse_line(std::string_view line) {
  std::string_view tokens[5];
  const std::size_t ntokens = split_ws(line, tokens, 5);
  if (ntokens < 2)
    throw ParseError("trace line needs at least '<pid> <action>': '" +
                     std::string(line) + "'");
  Action a;
  a.pid = parse_pid(tokens[0]);
  a.type = action_type_from_keyword(tokens[1]);

  const auto need = [&](std::size_t n) {
    if (ntokens != n)
      throw ParseError("wrong field count for '" + std::string(tokens[1]) +
                       "' in '" + std::string(line) + "'");
  };
  switch (a.type) {
    case ActionType::compute:
    case ActionType::bcast:
    case ActionType::gather:
    case ActionType::allgather:
    case ActionType::alltoall:
      need(3);
      a.volume = str::to_double(tokens[2]);
      break;
    case ActionType::send:
    case ActionType::isend:
      need(4);
      a.partner = parse_pid(tokens[2]);
      a.volume = str::to_double(tokens[3]);
      break;
    case ActionType::recv:
    case ActionType::irecv:
      if (ntokens != 3 && ntokens != 4)
        throw ParseError("recv takes a source and an optional volume: '" +
                         std::string(line) + "'");
      a.partner = parse_pid(tokens[2]);
      if (ntokens == 4) a.volume = str::to_double(tokens[3]);
      break;
    case ActionType::reduce:
    case ActionType::allreduce:
      need(4);
      a.volume = str::to_double(tokens[2]);
      a.volume2 = str::to_double(tokens[3]);
      break;
    case ActionType::comm_size:
      need(3);
      a.comm_size = static_cast<int>(str::to_int(tokens[2]));
      break;
    case ActionType::barrier:
    case ActionType::wait:
    case ActionType::waitall:
      need(2);
      break;
  }
  if (a.volume < 0 || a.volume2 < 0)
    throw ParseError("negative volume in '" + std::string(line) + "'");
  return a;
}

}  // namespace oracle

namespace {

/// What one parser made of a line: the action's fields with the volumes as
/// bit patterns, or the exception's type and message.
std::string outcome(Action (*parse)(std::string_view), std::string_view line) {
  try {
    const Action a = parse(line);
    char buf[160];
    std::snprintf(buf, sizeof buf, "ok pid=%d type=%d partner=%d v=%016llx "
                  "v2=%016llx comm=%d",
                  a.pid, static_cast<int>(a.type), a.partner,
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(a.volume)),
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(a.volume2)),
                  a.comm_size);
    return buf;
  } catch (const ParseError& e) {
    return std::string("ParseError: ") + e.what();
  } catch (const Error& e) {
    return std::string("Error: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("std::exception: ") + e.what();
  }
}

class LineGenerator {
 public:
  explicit LineGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string line() {
    std::string out = blanks(pick(4) == 0 ? 1 : 0);
    const std::size_t type = pick(trace::kActionTypes + 2);
    std::string keyword =
        type < trace::kActionTypes
            ? std::string(trace::action_keyword(static_cast<ActionType>(type)))
            : junk_keyword();
    // Every keyword in random case.
    for (char& c : keyword) {
      if (pick(3) == 0) c = static_cast<char>(c >= 'a' && c <= 'z'
                                                   ? c - 'a' + 'A'
                                                   : c >= 'A' && c <= 'Z'
                                                         ? c - 'A' + 'a'
                                                         : c);
    }
    std::vector<std::string> fields{pid(), keyword};
    const std::size_t arity = type < trace::kActionTypes
                                  ? arity_of(static_cast<ActionType>(type))
                                  : pick(4);
    // Mostly the right field count; sometimes one missing or extra.
    std::size_t n = arity;
    const std::size_t roll = pick(10);
    if (roll == 0 && n > 0) --n;
    if (roll == 1) ++n;
    if (roll == 2) n += 2;
    const bool partner_first =
        type < trace::kActionTypes &&
        is_p2p(static_cast<ActionType>(type));
    for (std::size_t i = 0; i < n; ++i)
      fields.push_back(i == 0 && partner_first ? pid()
                       : type == static_cast<std::size_t>(
                                     ActionType::comm_size)
                           ? integer()
                           : number());
    if (pick(12) == 0) fields.push_back(junk());
    if (pick(30) == 0) fields.resize(pick(2));  // too short
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i) out += blanks(1);
      out += fields[i];
    }
    out += blanks(0);
    return out;
  }

 private:
  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

  static bool is_p2p(ActionType t) {
    return t == ActionType::send || t == ActionType::isend ||
           t == ActionType::recv || t == ActionType::irecv;
  }

  static std::size_t arity_of(ActionType t) {
    switch (t) {
      case ActionType::send:
      case ActionType::isend:
      case ActionType::reduce:
      case ActionType::allreduce:
        return 2;
      case ActionType::barrier:
      case ActionType::wait:
      case ActionType::waitall:
        return 0;
      default:
        return 1;  // recv/irecv: source only (the volume is optional)
    }
  }

  /// A run of blanks, `min` or more long: spaces, tabs, and the rarer
  /// control blanks.
  std::string blanks(std::size_t min) {
    static constexpr char kBlanks[] = {' ', ' ', ' ', '\t', '\t',
                                       '\r', '\v', '\f', '\n'};
    std::string out;
    const std::size_t n = min + (pick(4) == 0 ? pick(3) : 0);
    for (std::size_t i = 0; i < n; ++i)
      out += kBlanks[pick(min > 0 && i == 0 ? 5 : sizeof kBlanks)];
    return out;
  }

  std::string digits(std::size_t n) {
    std::string out;
    for (std::size_t i = 0; i < n; ++i)
      out += static_cast<char>('0' + pick(10));
    return out;
  }

  /// 1 to 17 digits, 15, 16 and 17 often; signs and junk sometimes.
  std::string integer() {
    static constexpr std::size_t kLengths[] = {1, 2, 3, 6, 9, 10, 14,
                                               15, 15, 16, 16, 17, 17, 19,
                                               20, 25};
    std::string out = digits(kLengths[pick(std::size(kLengths))]);
    switch (pick(12)) {
      case 0: return "-" + out;
      case 1: return "+" + out;
      case 2: return "-0";
      case 3: return out + "x";
      default: return out;
    }
  }

  std::string pid() {
    static const char* kOdd[] = {"p", "P", "p-0", "p-7", "-3", "px", "p+1",
                                 "pp1", "p1.0", "p1e3", "p2147483648",
                                 "p4294967297", "99999999999999999999"};
    switch (pick(8)) {
      case 0: return kOdd[pick(std::size(kOdd))];
      case 1: return integer();
      case 2: return "P" + integer();
      default: return "p" + std::to_string(pick(300));
    }
  }

  std::string number() {
    static const char* kOdd[] = {
        "-0", "0", "-5", "1e6", "1E6", "1.5e-3", "1e400", "1e-400", "inf",
        "-inf", "infinity", "nan", "NaN", "-nan", "nan(1)", "0x10", "+5",
        "1.", ".5", "5junk", "1e", "e5", "00000000000000000001",
        "9007199254740993", "123456789012345", "1234567890123456",
        "12345678901234567", "999999999999999", "-999999999999999", "--1"};
    switch (pick(6)) {
      case 0: return kOdd[pick(std::size(kOdd))];
      case 1: return integer();
      case 2: {
        char buf[40];
        const double v = std::uniform_real_distribution<double>(
            -1e3, 1e18)(rng_);
        std::snprintf(buf, sizeof buf, pick(2) ? "%.17g" : "%g", v);
        return buf;
      }
      case 3: return digits(1 + pick(6)) + "e" + std::to_string(pick(30));
      default: return digits(1 + pick(17));
    }
  }

  std::string junk_keyword() {
    static const char* kJunk[] = {"teleport", "sendx", "Isen", "allreduces",
                                  "comm-size", "#", "x", "allToAllv",
                                  "waitAllx", "reduce1", "ALLREDUC",
                                  "computer", "bcasts", "gathe"};
    return kJunk[pick(std::size(kJunk))];
  }

  std::string junk() {
    static const char* kJunk[] = {"junk", "#comment", "p1", "1", "x y"};
    return kJunk[pick(std::size(kJunk))];
  }

  std::mt19937_64 rng_;
};

}  // namespace

TEST(ParseLineOracle, HandWrittenEdgeCasesMatch) {
  const char* lines[] = {
      "", " ", "p0", "p0 compute", "p0 compute 1", "p0 COMPUTE 1",
      "p0\tcompute\t1", "  p0  compute  1  ", "p0 compute 1 2",
      "p0 compute -0", "p0 compute -5", "p0 compute inf", "p0 compute nan",
      "p0 compute 1e400", "p0 compute 1e-400", "p0 compute 123456789012345",
      "p0 compute 1234567890123456", "p0 compute 12345678901234567",
      "p0 compute 9007199254740993", "p0 send p1 1e6", "p0 send 1 10",
      "p0 send p1", "p0 send p-1 5", "p0 recv p3", "p0 recv p3 5 6",
      "p0 Irecv P3 5", "p0 reduce 1 2", "p0 allReduce 1", "p0 allgather 4",
      "p0 alltoall 4", "p0 comm_size 8", "p0 comm_size -8",
      "p0 comm_size 99999999999999999999", "p0 barrier", "p0 barrier now",
      "p0 wait", "p0 waitall", "p0 WAITALL x", "p0 teleport 5",
      "p-1 compute 1", "P7 compute 1", "7 compute 1", "p compute 1",
      "p4294967297 compute 1", "p0 compute 1 2 3 4 5 6", "p0 gather 00012",
      "p0 bcast 0x10", "p0 bcast +5", "p0 isend p1 5junk",
  };
  for (const char* line : lines)
    EXPECT_EQ(outcome(trace::parse_line, line),
              outcome(oracle::parse_line, line))
        << "line: '" << line << "'";
}

TEST(ParseLineOracle, GeneratedLinesMatch) {
  LineGenerator gen(20261019);
  std::size_t accepted = 0;
  for (int i = 0; i < 100000; ++i) {
    const std::string line = gen.line();
    const std::string got = outcome(trace::parse_line, line);
    const std::string want = outcome(oracle::parse_line, line);
    ASSERT_EQ(got, want) << "line " << i << ": '" << line << "'";
    accepted += got.rfind("ok ", 0) == 0;
  }
  // Both branches must be exercised heavily, not just errors.
  EXPECT_GT(accepted, 20000u);
  EXPECT_LT(accepted, 90000u);
}
