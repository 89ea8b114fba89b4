// Timeline example: acquire LU class S on 8 processes, then hand the
// time-independent traces to tir-replay --timeline for the per-rank
// breakdown, critical path, and Chrome/Paje timeline exports.
//
// Run:  ./lu_timeline [workdir]
// Then: tir-replay --timeline --platform <workdir>/platform.xml
//                  --deployment <workdir>/deployment.xml <workdir>/ti
//                  --chrome lu.json --paje lu.paje
#include <filesystem>
#include <fstream>
#include <iostream>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "platform/cluster.hpp"
#include "platform/deployment.hpp"
#include "platform/platform_file.hpp"

using namespace tir;

int main(int argc, char** argv) {
  const std::filesystem::path workdir =
      argc > 1 ? argv[1] : std::filesystem::temp_directory_path() /
                               "tir_lu_timeline";
  std::filesystem::create_directories(workdir);

  // --- 1. Acquire LU class S / 8 (one iteration keeps this instant) -------
  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::S;
  cfg.nprocs = 8;
  cfg.iteration_scale = 0.0;  // clamped to one iteration
  acq::AcquisitionSpec spec;
  spec.app = apps::make_lu_app(cfg);
  spec.workdir = workdir;
  spec.run_uninstrumented_baseline = false;
  const auto report = acq::run_acquisition(spec);
  std::cout << "Acquired LU class S on " << cfg.nprocs << " processes: "
            << report.ti_files.size() << " time-independent traces under "
            << (workdir / "ti") << "\n";

  // --- 2. Target platform + deployment for the replay ----------------------
  const auto cluster = plat::bordereau_spec(cfg.nprocs);
  const auto platform_xml = workdir / "platform.xml";
  std::ofstream(platform_xml) << plat::cluster_to_xml(cluster, "AS_bordeaux");

  plat::Deployment deployment;
  for (int p = 0; p < cfg.nprocs; ++p)
    deployment.processes.push_back(plat::ProcessPlacement{
        "p" + std::to_string(p),
        cluster.prefix + std::to_string(p) + cluster.suffix,
        {report.ti_files[static_cast<std::size_t>(p)].filename().string()}});
  const auto deployment_xml = workdir / "deployment.xml";
  std::ofstream(deployment_xml) << deployment.to_xml();

  std::cout << "Platform file:   " << platform_xml << "\n"
            << "Deployment file: " << deployment_xml << "\n\n"
            << "Now render the timeline:\n"
            << "  tir-replay --timeline --platform " << platform_xml.string()
            << " \\\n      --deployment " << deployment_xml.string()
            << " \\\n      " << (workdir / "ti").string()
            << " \\\n      --chrome lu.json --paje lu.paje\n";
  return 0;
}
