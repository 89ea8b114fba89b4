#include "acquisition/acquisition.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "acquisition/gather.hpp"
#include "platform/cluster.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace tir::acq {

namespace {

/// Peak rate of a gdx core: 2.0 GHz dual-issue Opteron 246.
constexpr double kGdxPeakFlops = 4.0e9;

int nodes_needed(int nprocs, int folding) {
  return (nprocs + folding - 1) / folding;
}

}  // namespace

std::string mode_label(Mode mode, int folding) {
  switch (mode) {
    case Mode::regular: return "R";
    case Mode::folding: return "F-" + std::to_string(folding);
    case Mode::scattering: return "S-2";
    case Mode::scatter_folding:
      return "SF-(2," + std::to_string(folding) + ")";
  }
  throw Error("unknown acquisition mode");
}

AcquisitionPlatform build_acquisition_platform(Mode mode, int nprocs,
                                               int folding) {
  if (nprocs < 1) throw Error("acquisition: nprocs must be positive");
  if (folding < 1) throw Error("acquisition: folding must be positive");
  if ((mode == Mode::regular || mode == Mode::scattering) && folding != 1)
    throw Error("acquisition: folding requires mode F or SF");

  AcquisitionPlatform out;
  const int nodes = nodes_needed(nprocs, folding);

  if (mode == Mode::regular || mode == Mode::folding) {
    out.node_hosts = plat::build_cluster(
        out.platform, plat::bordereau_physical_spec(nodes));
  } else {
    // Scattering: half the nodes on bordereau, half on gdx (the paper uses
    // two Grid'5000 sites connected by a dedicated 10-Gb network).
    const int nodes_b = (nodes + 1) / 2;
    const int nodes_g = std::max(1, nodes - nodes_b);
    plat::GdxSpec gdx;
    gdx.nodes = nodes_g;
    gdx.cabinets = std::min(18, std::max(1, (nodes_g + 9) / 10));
    gdx.power = kGdxPeakFlops;
    const plat::TwoSites sites = plat::build_two_sites(
        out.platform, plat::bordereau_physical_spec(nodes_b), gdx);
    out.node_hosts = sites.bordereau;
    out.node_hosts.insert(out.node_hosts.end(), sites.gdx.begin(),
                          sites.gdx.end());
    out.node_hosts.resize(static_cast<std::size_t>(nodes));
  }

  out.rank_hosts.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r)
    out.rank_hosts.push_back(
        out.node_hosts[static_cast<std::size_t>(r / folding)]);
  return out;
}

AcquisitionReport run_acquisition(const AcquisitionSpec& spec) {
  const int nprocs = spec.app.nprocs;
  AcquisitionReport report;
  report.mode = mode_label(spec.mode, spec.folding);
  report.nprocs = nprocs;

  AcquisitionPlatform ap =
      build_acquisition_platform(spec.mode, nprocs, spec.folding);
  report.nodes_used = static_cast<int>(ap.node_hosts.size());

  // ---- optional uninstrumented baseline (the "Application" bar of Fig 7).
  if (spec.run_uninstrumented_baseline) {
    sim::Engine engine(ap.platform);
    mpi::World world(engine, ap.rank_hosts);
    world.launch([&spec](mpi::Rank& rank) -> sim::Co<void> {
      co_await spec.app.body(rank);
    });
    engine.run();
    world.check_quiescent();
    report.app_time = engine.now();
  }

  // ---- instrumented execution: produces real TAU files on disk.
  const auto tau_dir = spec.workdir / "tau";
  std::filesystem::create_directories(tau_dir);
  const auto instrumented_start = std::chrono::steady_clock::now();
  {
    sim::Engine engine(ap.platform);
    mpi::World world(engine, ap.rank_hosts);
    std::vector<std::unique_ptr<tau::TauTraceWriter>> writers;
    std::vector<std::unique_ptr<InstrumentedMpi>> instrumented;
    writers.reserve(static_cast<std::size_t>(nprocs));
    instrumented.reserve(static_cast<std::size_t>(nprocs));
    for (int r = 0; r < nprocs; ++r) {
      writers.push_back(std::make_unique<tau::TauTraceWriter>(tau_dir, r));
      instrumented.push_back(std::make_unique<InstrumentedMpi>(
          world.rank(r), *writers.back(), spec.instrument));
    }
    for (int r = 0; r < nprocs; ++r) {
      InstrumentedMpi* mpi_api = instrumented[static_cast<std::size_t>(r)].get();
      world.launch_rank(r,
                        [mpi_api, &spec](mpi::Rank&) -> sim::Co<void> {
                          co_await spec.app.body(*mpi_api);
                          mpi_api->finalize();
                        });
    }
    engine.run();
    world.check_quiescent();
    report.instrumented_time = engine.now();
    for (auto& writer : writers) writer->close();
  }
  report.instrumented_wall = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - instrumented_start).count();
  if (spec.run_uninstrumented_baseline)
    report.tracing_overhead =
        std::max(0.0, report.instrumented_time - report.app_time);

  // ---- extraction (tau2ti), timed for real on this machine.
  const auto ti_dir = spec.workdir / "ti";
  const ExtractResult extraction =
      tau2ti(tau_dir, nprocs, ti_dir, spec.extract);
  report.extraction_wall = extraction.wall_seconds;
  // The paper's tau2simgrid is a parallel MPI program: every node extracts
  // its own processes' traces concurrently, at the (slow) per-node
  // throughput of the modeled-era hardware. Report whichever is larger:
  // the modeled time or the measured wall time spread over the nodes.
  const double parallel_wall =
      extraction.wall_seconds / std::max(1, report.nodes_used);
  if (spec.extraction_node_throughput > 0) {
    const double modeled =
        static_cast<double>(extraction.tau_bytes) /
        (spec.extraction_node_throughput * std::max(1, report.nodes_used));
    report.extraction_time = std::max(parallel_wall, modeled);
  } else {
    report.extraction_time = parallel_wall;
  }
  report.tau_bytes = extraction.tau_bytes;
  report.ti_bytes = extraction.ti_bytes;
  report.actions = extraction.actions;
  report.ti_files = extraction.ti_files;

  // ---- gathering: simulated K-nomial reduction of the per-node bundles.
  std::vector<std::uint64_t> node_bytes(ap.node_hosts.size(), 0);
  for (int r = 0; r < nprocs; ++r) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(
        extraction.ti_files[static_cast<std::size_t>(r)], ec);
    if (!ec)
      node_bytes[static_cast<std::size_t>(r / spec.folding)] += size;
  }
  report.gather_time = simulate_gather(ap.platform, ap.node_hosts, node_bytes,
                                       spec.gather_arity);
  return report;
}

}  // namespace tir::acq
