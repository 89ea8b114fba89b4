// Shared scenario-list parsing for tir-sweep, tir-mc and tir-serve.
//
// A list file holds one scenario per non-comment line, as whitespace-
// separated key=value pairs; a line starting with `default` sets defaults
// for every later scenario. Relative paths resolve against the list file's
// directory; platforms, deployments and trace sets are cached so a sweep
// loads/decodes each input exactly once — keyed by file identity, so `ti`,
// `./ti`, the absolute spelling and a symlink of the same directory share
// one decode (trace sets through serve::TraceCache). Equal content in two
// different files decodes once per file.
//
// Keys:
//   name=LABEL             row label (default scenario-<index>)
//   platform=FILE|SPEC     platform XML or a topology-registry spec
//   deployment=FILE|block|roundrobin
//   traces=A,B,...         per-process trace files / a directory in pid order
//   merged=FILE:N          one merged trace file carrying N processes
//   eager=BYTES            eager/rendezvous switch
//   collectives=flat|binomial
//   efficiency=X           compute-rate scale (> 0)
//   fault=SPEC,...         fault timeline events (see serve::parse_fault):
//                          host:NAME:FACTOR@TIMES or
//                          link:NAME:BW[:LAT]@TIMES, where TIMES is
//                          START[-END][xN][/PERIOD] — `-END` recovers the
//                          resource at END, `xN/PERIOD` repeats the cycle
//                          (a link flap train)
//   perturb=K:V,...        stochastic perturbation model; keys hostnoise,
//                          bwnoise, latnoise (relative stddevs), rate,
//                          horizon, duration, severity (transient-fault
//                          process), min, max (factor clamps)
//   mc=N                   Monte-Carlo replica count for this row
//   seed=S                 sweep seed (default 1); replicas derive from it
//
// Any other key (replica= too) fails the list with the scenario named and
// tir-sweep and tir-mc exit 2; the retired fastpath=, shards= and decode=
// are accepted and ignored.
//
// The parsing/building machinery lives in src/serve/scenario_build.* so a
// daemon request and a sweep-list row construct scenarios through exactly
// one code path; this header keeps the list-file reader and re-exports the
// serve names under tir::tools for the CLI tools.
#pragma once

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/scenario_build.hpp"
#include "serve/trace_cache.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace tir::tools {

namespace fs = std::filesystem;

using serve::build_scenario;
using serve::InputResolver;
using serve::KeyValues;
using serve::parse_double;
using serve::parse_fault;
using serve::parse_int;
using serve::parse_perturb;
using serve::parse_u64;
using serve::SweepEntry;

inline KeyValues parse_tokens(const std::string& line,
                              const fs::path& list_file, std::size_t line_no) {
  KeyValues out;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
      throw ParseError(list_file.string() + ":" + std::to_string(line_no) +
                       ": expected key=value, got '" + token + "'");
    out.kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return out;
}

/// Loads a whole list file (defaults, comments, caching) through `cache`.
/// Throws IoError / ParseError / Error with file:line or scenario-name
/// context. The entries own their TraceSets (shared storage), so the cache
/// may be destroyed afterwards; passing one in lets callers inspect
/// hit/miss stats or keep it hot across lists.
inline std::vector<SweepEntry> load_sweep_list(const fs::path& list_file,
                                               serve::TraceCache& cache) {
  std::ifstream in(list_file);
  if (!in)
    throw IoError("cannot open scenario list '" + list_file.string() + "'");

  InputResolver resolver(list_file.has_parent_path() ? list_file.parent_path()
                                                     : fs::path("."),
                         cache);

  KeyValues defaults;
  std::vector<SweepEntry> entries;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto trimmed = std::string(str::trim(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (trimmed.rfind("default", 0) == 0 &&
        (trimmed.size() == 7 || trimmed[7] == ' ' || trimmed[7] == '\t')) {
      const KeyValues d = parse_tokens(trimmed.substr(7), list_file, line_no);
      for (const auto& [k, v] : d.kv) defaults.kv[k] = v;
      continue;
    }
    KeyValues kv = defaults;
    const KeyValues own = parse_tokens(trimmed, list_file, line_no);
    for (const auto& [k, v] : own.kv) kv.kv[k] = v;
    entries.push_back(build_scenario(kv, resolver, entries.size()));
  }
  if (entries.empty())
    throw Error("scenario list '" + list_file.string() + "' is empty");
  return entries;
}

inline std::vector<SweepEntry> load_sweep_list(const fs::path& list_file) {
  serve::TraceCache cache;
  return load_sweep_list(list_file, cache);
}

}  // namespace tir::tools
