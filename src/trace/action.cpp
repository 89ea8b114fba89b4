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

// Accepts "p12" or "12".
int parse_pid(std::string_view token) {
  if (!token.empty() && (token[0] == 'p' || token[0] == 'P'))
    token.remove_prefix(1);
  const long long v = str::to_int(token);
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
  for (const auto& entry : kKeywords)
    if (equals_ignoring_case(entry.keyword, keyword)) return entry.type;
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
  // At most 4 fields per action; the fixed-capacity split keeps this
  // allocation-free — it runs once per action on the streaming decode path.
  std::string_view tokens[5];
  const std::size_t ntokens = str::split_ws(line, tokens, 5);
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

}  // namespace tir::trace
