// perfbench: the repository benchmark driver binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--spans FILE]
//
// Prints a host stamp line, human-readable notes, and as its last line one
// JSON object {"correct","attempted","failed","metrics"}. perfbench/run.py
// builds this binary and wraps it; see BENCHMARK.json for the workloads.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"

using namespace perfbench;

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) return line.substr(colon + 2);
  }
  return "unknown";
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--spans FILE]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = std::stoi(value) != 0;
      else if (flag == "--workdir") options.workdir = value;
      else if (flag == "--spans") options.spans_out = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (options.workload.empty() || options.workdir.empty())
    usage("--workload and --workdir are required");
  if (options.seconds <= 0.0) usage("--seconds must be positive");

  std::printf("host {\"nproc\":%u,\"cpu_model\":%s,\"compiler\":%s,"
              "\"build_type\":%s}\n",
              std::thread::hardware_concurrency(),
              json_string(cpu_model()).c_str(),
              json_string(PERFBENCH_COMPILER).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str());

  RunResult result;
  try {
    Tracer tracer(options.trace);
    result = run_workload(options, tracer);
    if (options.trace && !options.spans_out.empty())
      tracer.write_json(options.spans_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::string line = "{\"correct\":";
  line += result.failed == 0 ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(result.attempted);
  line += ",\"failed\":" + std::to_string(result.failed);
  line += ",\"metrics\":{";
  char buf[64];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, metric] = result.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    line += (i ? "," : "") + json_string(name) + ":{\"value\":" + buf +
            ",\"unit\":" + json_string(metric.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
