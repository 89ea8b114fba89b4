// Quickstart: the paper's Figure 1 end to end.
//
// 1. Write the time-independent trace of a 4-process ring (Fig 1, right).
// 2. Write the platform (Fig 5) and deployment (Fig 6) files.
// 3. Replay the trace and print the simulated execution time.
//
// Run:  ./quickstart [workdir]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "platform/cluster.hpp"
#include "platform/deployment.hpp"
#include "platform/platform_file.hpp"
#include "replay/scenario.hpp"
#include "support/units.hpp"
#include "trace/text_format.hpp"

using namespace tir;

int main(int argc, char** argv) {
  const std::filesystem::path workdir =
      argc > 1 ? argv[1] : std::filesystem::temp_directory_path() /
                               "tir_quickstart";
  std::filesystem::create_directories(workdir);

  // --- 1. The Figure 1 time-independent trace -----------------------------
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> ring(4);
  ring[0] = {{0, ActionType::compute, -1, 1e6, 0, 0},
             {0, ActionType::send, 1, 1e6, 0, 0},
             {0, ActionType::recv, 3, 0, 0, 0}};
  for (int p = 1; p < 4; ++p)
    ring[static_cast<std::size_t>(p)] = {
        {p, ActionType::recv, p - 1, 0, 0, 0},
        {p, ActionType::compute, -1, 1e6, 0, 0},
        {p, ActionType::send, (p + 1) % 4, 1e6, 0, 0}};

  const auto trace_files = trace::write_split_traces(workdir, ring);
  std::cout << "Wrote the Figure 1 trace:\n";
  for (const auto& line : trace::read_all(trace_files[0]))
    std::cout << "  " << trace::to_line(line) << '\n';

  // --- 2. Platform (Fig 5) and deployment (Fig 6) -------------------------
  plat::ClusterSpec spec;
  spec.prefix = "mycluster-";
  spec.suffix = ".mysite.fr";
  spec.count = 4;
  spec.power = 1.17e9;
  spec.bandwidth = 1.25e8;
  spec.latency = 16.67e-6;
  spec.backbone_bandwidth = 1.25e9;
  spec.backbone_latency = 16.67e-6;

  const auto platform_xml = workdir / "platform.xml";
  std::ofstream(platform_xml) << plat::cluster_to_xml(spec, "AS_mysite");

  plat::Deployment deployment;
  for (int p = 0; p < 4; ++p)
    deployment.processes.push_back(plat::ProcessPlacement{
        "p" + std::to_string(p),
        "mycluster-" + std::to_string(p) + ".mysite.fr",
        {"SG_process" + std::to_string(p) + ".trace"}});
  const auto deployment_xml = workdir / "deployment.xml";
  std::ofstream(deployment_xml) << deployment.to_xml();
  std::cout << "\nPlatform file: " << platform_xml << "\n"
            << "Deployment file: " << deployment_xml << "\n";

  // --- 3. Replay -----------------------------------------------------------
  const auto result =
      replay::replay_files(platform_xml, deployment_xml, trace_files);
  std::cout << "\nReplayed " << result.actions_replayed << " actions.\n"
            << "Simulated execution time: "
            << units::format_duration(result.simulated_time) << "\n";
  return 0;
}
