#include <sstream>

#include "mpisim/mpi.hpp"
#include "support/error.hpp"

namespace tir::mpi {

World::World(sim::Engine& engine, std::vector<int> rank_hosts, Config config)
    : engine_(engine), config_(config) {
  if (rank_hosts.empty()) throw SimError("World: needs at least one rank");
  ranks_.reserve(rank_hosts.size());
  for (std::size_t r = 0; r < rank_hosts.size(); ++r) {
    const int host = rank_hosts[r];
    if (host < 0 ||
        static_cast<std::size_t>(host) >= engine.platform().host_count())
      throw SimError("World: rank " + std::to_string(r) +
                     " mapped to unknown host " + std::to_string(host));
    auto rank = std::make_unique<Rank>();
    rank->world_ = this;
    rank->rank_ = static_cast<int>(r);
    rank->host_ = host;
    rank->recorder_ = engine.recorder();
    ranks_.push_back(std::move(rank));
  }
}

World::~World() {
  // Rank bodies suspended mid-await (a deadlocked recv, an error elsewhere
  // unwinding the caller) hold OpScope guards into our ranks_. Destroy the
  // frames now, while the ranks are still alive; the engine outlives us
  // (we hold a reference to it), so leaving this to ~Engine would be a
  // use-after-free.
  engine_.drop_frames();
}

Rank& World::rank(int r) {
  if (r < 0 || static_cast<std::size_t>(r) >= ranks_.size())
    throw SimError("World: invalid rank " + std::to_string(r));
  return *ranks_[static_cast<std::size_t>(r)];
}

void World::launch(std::function<sim::Co<void>(Rank&)> body) {
  for (int r = 0; r < size(); ++r) launch_rank(r, body);
}

void World::launch_rank(int r, std::function<sim::Co<void>(Rank&)> body) {
  Rank* rank = &this->rank(r);
  sim::Process& process =
      engine_.spawn("rank-" + std::to_string(r), rank->host(),
                    [rank, body = std::move(body)](sim::Process&) -> sim::Task {
                      co_await body(*rank);
                    });
  // Deadlock diagnostics: let the engine ask this rank what it is blocked
  // on (the Rank outlives the process — both are owned by World/Engine,
  // which outlive engine.run()).
  process.set_diagnostics([rank] { return rank->describe_state(); });
}

void World::check_quiescent() const {
  std::ostringstream problems;
  for (const auto& rank : ranks_) {
    if (!rank->unexpected_.empty())
      problems << " rank " << rank->rank_ << " holds "
               << rank->unexpected_.size() << " unmatched message(s);";
    if (!rank->posted_.empty())
      problems << " rank " << rank->rank_ << " holds "
               << rank->posted_.size() << " unmatched receive(s);";
  }
  const std::string text = problems.str();
  if (!text.empty()) throw SimError("world not quiescent:" + text);
}

}  // namespace tir::mpi
