#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

// Spans this thread has open, innermost last. Only one tracer records per
// run; disabled tracers never touch this.
thread_local std::vector<int> t_open;

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double union_length(std::vector<std::pair<double, double>> intervals,
                    double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0, reach = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, reach);
    e = std::min(e, hi);
    if (e <= s) continue;
    covered += e - s;
    reach = e;
  }
  return covered;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t trace_id,
                     int parent)
    : tracer_(tracer) {
  if (tracer_.enabled_) index_ = tracer_.open(std::move(name), trace_id, parent);
}

Tracer::Scope::~Scope() {
  if (index_ >= 0) tracer_.close(index_);
}

int Tracer::open(std::string name, std::uint64_t trace_id, int parent) {
  if (parent < 0 && !t_open.empty()) parent = t_open.back();
  const double start = seconds_since(epoch_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start, start, parent, trace_id});
  const int index = static_cast<int>(spans_.size()) - 1;
  t_open.push_back(index);
  return index;
}

void Tracer::close(int index) {
  const double end = seconds_since(epoch_);
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& s : all)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    self[layer_of(s.name)] +=
        (s.end - s.start) - union_length(children[i], s.start, s.end);
  }
  return self;
}

double Tracer::layer_coverage(int root) const {
  const std::vector<Span> all = spans();
  if (root < 0 || static_cast<std::size_t>(root) >= all.size()) return 0.0;
  const Span& r = all[static_cast<std::size_t>(root)];
  std::vector<std::pair<double, double>> layer_spans;
  for (const Span& s : all)
    if (layer_of(s.name) != "bench") layer_spans.emplace_back(s.start, s.end);
  const double length = r.end - r.start;
  return length > 0.0 ? union_length(layer_spans, r.start, r.end) / length
                      : 0.0;
}

void Tracer::write_json(const std::filesystem::path& path) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << "{\"spans\":[\n";
  const std::vector<Span> all = spans();
  char buf[160];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,"
                  "\"trace_id\":%llu}",
                  s.start, s.end, s.parent,
                  static_cast<unsigned long long>(s.trace_id));
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << buf
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

/// A "<field>: N kB" line of /proc/self/status, in MiB; 0 when absent.
double status_mib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
  }
  return 0.0;
}

}  // namespace

double peak_rss_mib() { return status_mib("VmHWM"); }

double resident_mib() { return status_mib("VmRSS"); }

}  // namespace perfbench
