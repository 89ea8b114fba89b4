#include "serve/memo.hpp"

#include <cstdio>
#include <utility>

namespace tir::serve {

namespace {

void append(std::string& key, const char* tag, const std::string& value) {
  key += tag;
  key += '=';
  key += value;
  key += ';';
}

void append_num(std::string& key, const char* tag, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  append(key, tag, buf);
}

void append_int(std::string& key, const char* tag, long long value) {
  append(key, tag, std::to_string(value));
}

}  // namespace

std::string scenario_memo_key(const replay::ScenarioSpec& spec,
                              const std::string& platform_key,
                              const trace::Digest& digest) {
  std::string key;
  key.reserve(256);
  append(key, "trace", digest.hex());
  append(key, "platform", platform_key);
  key += "hosts=";
  for (const int h : spec.process_hosts) {
    key += std::to_string(h);
    key += ',';
  }
  key += ';';
  append_int(key, "eager",
             static_cast<long long>(spec.config.mpi.eager_threshold));
  append_int(key, "coll", static_cast<long long>(spec.config.mpi.collectives));
  append_num(key, "eff", spec.config.compute_efficiency);
  append_int(key, "full", spec.config.full_solve ? 1 : 0);
  for (const replay::FaultSpec& f : spec.faults) {
    key += "fault=";
    key += f.kind == replay::FaultSpec::Kind::host ? 'h' : 'l';
    key += ':';
    key += f.target.empty() ? std::to_string(f.id) : f.target;
    char buf[200];
    std::snprintf(buf, sizeof buf, ":%.17g:%.17g:%d:%.17g:%.17g:%.17g:%.17g;",
                  f.at_time, f.until_time, f.repeat, f.period,
                  f.compute_factor, f.bandwidth_factor, f.latency_factor);
    key += buf;
  }
  return key;
}

MemoAnswer::MemoAnswer(const replay::ReplayReport& report)
    : status(report.status),
      sim_time(report.sim_time),
      coverage(report.coverage),
      error(report.error),
      diagnostics(report.diagnostics),
      actions_replayed(report.result.actions_replayed),
      processes(static_cast<int>(report.result.process_finish_times.size())) {}

ResultMemo::ResultMemo(MemoOptions options) : entries_(options.capacity) {}

std::optional<MemoAnswer> ResultMemo::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const MemoAnswer* answer = entries_.find(key);
  if (answer == nullptr) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return *answer;
}

void ResultMemo::store(const std::string& key, MemoAnswer answer) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.put(key, std::move(answer));
  stats_.entries = entries_.size();
  stats_.evictions = entries_.evictions();
}

MemoStats ResultMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace tir::serve
