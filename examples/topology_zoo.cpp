// Topology zoo example: acquire LU class S on 64 processes once, then
// replay the *same* time-independent traces across four interconnects in a
// single tir-sweep invocation — the paper's decoupling of acquisition from
// replay, stretched across the topology registry.
//
// Run:  ./topology_zoo [workdir]
// Then: tir-sweep <workdir>/topologies.list
//       tir-replay --timeline --platform dragonfly:groups=9,routers=4,hosts=2
//                  --deployment block <workdir>/ti
// (pass the trace *directory*, not a shell glob: globs sort SG_process10
// before SG_process2 and scramble the pid order for >= 10 ranks)
#include <filesystem>
#include <fstream>
#include <iostream>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"

using namespace tir;

int main(int argc, char** argv) {
  const std::filesystem::path workdir =
      argc > 1 ? argv[1] : std::filesystem::temp_directory_path() /
                               "tir_topology_zoo";
  std::filesystem::create_directories(workdir);

  // --- 1. Acquire LU class S / 64 once --------------------------------------
  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::S;
  cfg.nprocs = 64;
  acq::AcquisitionSpec spec;
  spec.app = apps::make_lu_app(cfg);
  spec.workdir = workdir;
  spec.run_uninstrumented_baseline = false;
  const auto report = acq::run_acquisition(spec);
  std::cout << "Acquired LU class S on " << cfg.nprocs << " processes: "
            << report.ti_files.size() << " traces under " << (workdir / "ti")
            << "\n";

  // --- 2. One sweep list, four interconnects --------------------------------
  // Every topology offers >= 64 hosts; deployment=block fills them in host
  // id order, so rank i lands on the i-th host of each fabric.
  const auto list_file = workdir / "topologies.list";
  std::ofstream(list_file)
      << "default deployment=block traces=" << (workdir / "ti").string()
      << "\n"
      << "name=cluster   platform=cluster:hosts=64\n"
      << "name=dragonfly platform=dragonfly:groups=9,routers=4,hosts=2\n"
      << "name=fattree   platform=fattree:k=8\n"
      << "name=torus     platform=torus:dims=4x4x4\n";

  std::cout << "Sweep list:      " << list_file << "\n\n"
            << "Replay LU across the zoo in one deterministic sweep:\n"
            << "  tir-sweep " << list_file.string() << "\n\n"
            << "Then compare critical paths per fabric, e.g.:\n"
            << "  tir-replay --timeline"
            << " --platform dragonfly:groups=9,routers=4,hosts=2"
            << " \\\n      --deployment block " << (workdir / "ti").string()
            << "\n";
  return 0;
}
