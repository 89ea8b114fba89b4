// Ablation: design choices of the simulated MPI runtime —
//   1. binomial vs flat collectives (DESIGN.md: the original MSG replayer
//      used flat, rooted-at-0 implementations);
//   2. eager/rendezvous threshold sensitivity of the replayed time.
#include <cstdio>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "bench_util.hpp"
#include "mpisim/mpi.hpp"
#include "platform/cluster.hpp"
#include "replay/scenario.hpp"

using namespace tir;

namespace {

double collective_time(int nprocs, mpi::CollectiveAlgo algo,
                       std::uint64_t bytes) {
  plat::Platform p;
  const auto hosts = plat::build_cluster(p, plat::bordereau_spec(nprocs));
  sim::Engine engine(p);
  mpi::Config cfg;
  cfg.collectives = algo;
  std::vector<int> rank_hosts(hosts.begin(), hosts.end());
  mpi::World world(engine, rank_hosts, cfg);
  world.launch([bytes](mpi::Rank& r) -> sim::Co<void> {
    for (int i = 0; i < 4; ++i) {
      co_await r.bcast(bytes, 0);
      co_await r.allreduce(64, 100);
    }
  });
  engine.run();
  return engine.now();
}

}  // namespace

int main() {
  bench::banner("Ablation — collective algorithms and eager threshold", "");

  std::printf("%-7s | %14s %14s | %8s\n", "procs", "binomial (s)", "flat (s)",
              "speedup");
  for (const int procs : {8, 16, 32, 64}) {
    const double binomial =
        collective_time(procs, mpi::CollectiveAlgo::binomial, 32 * 1024);
    const double flat =
        collective_time(procs, mpi::CollectiveAlgo::flat, 32 * 1024);
    std::printf("%-7d | %14.4f %14.4f | %7.2fx\n", procs, binomial, flat,
                flat / binomial);
  }

  // Eager threshold sweep on a replayed LU trace.
  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::A;
  cfg.nprocs = 16;
  cfg.iteration_scale = bench::scale();
  const auto workdir = bench::fresh_workdir("abl_coll");
  bench::WorkdirGuard guard(workdir);
  acq::AcquisitionSpec spec;
  spec.app = apps::make_lu_app(cfg);
  spec.workdir = workdir;
  spec.run_uninstrumented_baseline = false;
  const auto r = acq::run_acquisition(spec);
  const auto traces = trace::TraceSet::per_process_files(r.ti_files);

  std::printf("\nLU A/16 replayed time vs eager/rendezvous threshold:\n");
  std::printf("%-14s | %12s\n", "threshold", "replayed (s)");
  for (const std::uint64_t threshold :
       {std::uint64_t{0}, std::uint64_t{1} << 10, std::uint64_t{16} << 10,
        std::uint64_t{64} << 10, std::uint64_t{1} << 30}) {
    plat::Platform target;
    const auto hosts = plat::build_cluster(target, plat::bordereau_spec(16));
    replay::ScenarioSpec scenario;
    scenario.platform = replay::share_platform(target);
    scenario.process_hosts = hosts;
    scenario.traces = traces;
    scenario.config.mpi.eager_threshold = threshold;
    std::printf("%-14llu | %12.3f\n",
                static_cast<unsigned long long>(threshold),
                replay::run_scenario(scenario).simulated_time);
    std::fflush(stdout);
  }
  std::printf("\nA zero threshold forces every message through the "
              "rendezvous handshake\n(synchronous sends, the original MSG "
              "behaviour); a huge threshold makes\neverything eager.\n");
  return 0;
}
