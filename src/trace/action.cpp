#include "trace/action.hpp"

#include <array>
#include <charconv>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/units.hpp"

namespace tir::trace {

namespace {

struct KeywordEntry {
  ActionType type;
  std::string_view keyword;
};

// Keywords exactly as Table 1 of the paper spells them, plus the later
// SimGrid extensions (gather / allGather / allToAll / waitAll). Indexed by
// ActionType.
constexpr std::array<KeywordEntry, kActionTypes> kKeywords{{
    {ActionType::compute, "compute"},
    {ActionType::send, "send"},
    {ActionType::isend, "Isend"},
    {ActionType::recv, "recv"},
    {ActionType::irecv, "Irecv"},
    {ActionType::bcast, "bcast"},
    {ActionType::reduce, "reduce"},
    {ActionType::allreduce, "allReduce"},
    {ActionType::barrier, "barrier"},
    {ActionType::comm_size, "comm_size"},
    {ActionType::wait, "wait"},
    {ActionType::gather, "gather"},
    {ActionType::allgather, "allGather"},
    {ActionType::alltoall, "allToAll"},
    {ActionType::waitall, "waitAll"},
}};

constexpr bool in_enum_order() {
  for (std::size_t i = 0; i < kKeywords.size(); ++i)
    if (static_cast<std::size_t>(kKeywords[i].type) != i) return false;
  return true;
}
static_assert(in_enum_order(), "kKeywords must list ActionTypes in order");

char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool equals_ignoring_case(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  return true;
}

// Keyword candidates by length and lower-cased first letter: no two
// keywords share both except Isend/Irecv and allReduce/allGather, so a
// lookup compares at most two keywords.
// Each slot holds up to two ActionTypes plus one; 0 marks an empty entry.
constexpr std::size_t kMaxKeyword = 9;  // allReduce, allGather, comm_size
using KeywordSlot = std::array<std::uint8_t, 2>;
using KeywordTable = std::array<std::array<KeywordSlot, 26>, kMaxKeyword + 1>;

constexpr KeywordTable make_keyword_table() {
  KeywordTable table{};
  for (std::size_t t = 0; t < kKeywords.size(); ++t) {
    const std::string_view kw = kKeywords[t].keyword;
    const char first = kw[0] >= 'A' && kw[0] <= 'Z'
                           ? static_cast<char>(kw[0] - 'A' + 'a')
                           : kw[0];
    KeywordSlot& slot =
        table[kw.size()][static_cast<std::size_t>(first - 'a')];
    if (slot[1] != 0) throw "three keywords share a length and letter";
    slot[slot[0] == 0 ? 0 : 1] = static_cast<std::uint8_t>(t + 1);
  }
  return table;
}
constexpr KeywordTable kKeywordTable = make_keyword_table();

bool find_keyword(std::string_view keyword, ActionType& type) {
  if (keyword.empty() || keyword.size() > kMaxKeyword) return false;
  const auto letter =
      static_cast<unsigned char>(ascii_lower(keyword[0]) - 'a');
  if (letter >= 26) return false;
  for (const std::uint8_t entry : kKeywordTable[keyword.size()][letter]) {
    if (entry == 0) break;
    const std::size_t t = entry - 1u;
    if (equals_ignoring_case(kKeywords[t].keyword, keyword)) {
      type = static_cast<ActionType>(t);
      return true;
    }
  }
  return false;
}

bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}

// Up to 15 digits, a token's value is below 10^15 < 2^53: accumulated in an
// integer, it converts exactly to the double from_chars would return.
constexpr std::size_t kExactDigits = 15;

/// A token of 1 to 15 decimal digits, converted in place; false otherwise.
bool small_integer(std::string_view token, std::uint64_t& value) {
  if (token.empty() || token.size() > kExactDigits) return false;
  std::uint64_t v = 0;
  for (const char c : token) {
    const auto digit = static_cast<unsigned>(c - '0');
    if (digit > 9) return false;
    v = v * 10 + digit;
  }
  value = v;
  return true;
}

// Every other token (signs, fractions, exponents, 16+ digits, junk) takes
// the general conversions, which own the error texts.
long long to_integer(std::string_view token) {
  std::uint64_t v = 0;
  if (small_integer(token, v)) return static_cast<long long>(v);
  return str::to_int(token);
}

double to_volume(std::string_view token) {
  std::uint64_t v = 0;
  if (small_integer(token, v)) return static_cast<double>(v);
  return str::to_double(token);
}

// Accepts "p12" or "12".
int parse_pid(std::string_view token) {
  if (!token.empty() && (token[0] == 'p' || token[0] == 'P'))
    token.remove_prefix(1);
  const long long v = to_integer(token);
  if (v < 0) throw ParseError("negative process id in trace line");
  return static_cast<int>(v);
}

}  // namespace

std::string_view action_keyword(ActionType type) {
  const auto index = static_cast<std::size_t>(type);
  if (index >= kKeywords.size()) throw Error("unknown ActionType");
  return kKeywords[index].keyword;
}

ActionType action_type_from_keyword(std::string_view keyword) {
  ActionType type = ActionType::compute;
  if (find_keyword(keyword, type)) return type;
  throw ParseError("unknown trace action keyword '" + std::string(keyword) +
                   "'");
}

void append_line(std::string& out, const Action& a) {
  const auto put_int = [&out](int v) {
    char buf[16];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  };
  const auto put_volume = [&out](double v) {
    out += ' ';
    units::append_volume(out, v);
  };
  out += 'p';
  put_int(a.pid);
  out += ' ';
  out += action_keyword(a.type);
  switch (a.type) {
    case ActionType::compute:
    case ActionType::bcast:
    case ActionType::gather:
    case ActionType::allgather:
    case ActionType::alltoall:
      put_volume(a.volume);
      break;
    case ActionType::send:
    case ActionType::isend:
      out += " p";
      put_int(a.partner);
      put_volume(a.volume);
      break;
    case ActionType::recv:
    case ActionType::irecv:
      out += " p";
      put_int(a.partner);
      if (a.volume > 0) put_volume(a.volume);
      break;
    case ActionType::reduce:
    case ActionType::allreduce:
      put_volume(a.volume);
      put_volume(a.volume2);
      break;
    case ActionType::comm_size:
      out += ' ';
      put_int(a.comm_size);
      break;
    case ActionType::barrier:
    case ActionType::wait:
    case ActionType::waitall:
      break;
  }
}

std::string to_line(const Action& a) {
  std::string line;
  append_line(line, a);
  return line;
}

Action parse_line(std::string_view line) {
  // One pass over the line: at most 4 fields per action, and a fifth token
  // only needs counting (kMaxTokens + 1 says "too many"). Allocation-free —
  // this runs once per action on every decode path.
  constexpr std::size_t kMaxTokens = 5;
  std::string_view tokens[kMaxTokens];
  std::size_t ntokens = 0;
  const char* p = line.data();
  const char* const end = p + line.size();
  for (;;) {
    while (p != end && is_blank(*p)) ++p;
    if (p == end) break;
    const char* const start = p;
    while (p != end && !is_blank(*p)) ++p;
    if (ntokens == kMaxTokens) {
      ntokens = kMaxTokens + 1;
      break;
    }
    tokens[ntokens++] =
        std::string_view(start, static_cast<std::size_t>(p - start));
  }
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
      a.volume = to_volume(tokens[2]);
      break;
    case ActionType::send:
    case ActionType::isend:
      need(4);
      a.partner = parse_pid(tokens[2]);
      a.volume = to_volume(tokens[3]);
      break;
    case ActionType::recv:
    case ActionType::irecv:
      if (ntokens != 3 && ntokens != 4)
        throw ParseError("recv takes a source and an optional volume: '" +
                         std::string(line) + "'");
      a.partner = parse_pid(tokens[2]);
      if (ntokens == 4) a.volume = to_volume(tokens[3]);
      break;
    case ActionType::reduce:
    case ActionType::allreduce:
      need(4);
      a.volume = to_volume(tokens[2]);
      a.volume2 = to_volume(tokens[3]);
      break;
    case ActionType::comm_size:
      need(3);
      a.comm_size = static_cast<int>(to_integer(tokens[2]));
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

}  // namespace tir::trace
