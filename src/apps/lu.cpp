#include "apps/lu.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "support/error.hpp"

namespace tir::apps {

namespace {

struct ClassParams {
  NpbClass cls;
  int grid;
  int iterations;
  double cache_factor;  ///< efficiency multiplier (bigger grids cache worse)
};

// Grid sizes and iteration counts from the NPB 3.3 specification.
constexpr ClassParams kClasses[] = {
    {NpbClass::S, 12, 50, 1.15},  {NpbClass::W, 33, 300, 1.10},
    {NpbClass::A, 64, 250, 1.00}, {NpbClass::B, 102, 250, 0.95},
    {NpbClass::C, 162, 250, 0.88}, {NpbClass::D, 408, 300, 0.80},
    {NpbClass::E, 1020, 300, 0.75},
};

const ClassParams& params(NpbClass cls) {
  for (const auto& p : kClasses)
    if (p.cls == cls) return p;
  throw Error("unknown NPB class");
}

// Per-point-per-iteration *algorithmic* flop volumes per phase,
// proportioned after NPB LU profiles and normalised so one class-A run
// performs ~119e9 useful operations (the published NPB operation count).
constexpr double kJacldAlgo = 440.0;
constexpr double kBltsAlgo = 200.0;
constexpr double kJacuAlgo = 440.0;
constexpr double kButsAlgo = 200.0;
constexpr double kRhsAlgo = 480.0;
constexpr double kMiscAlgo = 60.0;

// What the traces record, however, is the PAPI_FP_OPS hardware counter —
// which on the Opteron overcounts the algorithmic operations noticeably
// (speculative, packed and auxiliary FP ops all tick it). The paper's own
// numbers pin the factor: a calibrated 1.17 Gflop/s per process (Fig 5)
// with class B on 64 processes taking ~20.7 s (Table 2, mode R) implies
// ~19e9 counted flops per rank against NPB's 7.5e9 algorithmic ones.
constexpr double kCounterOvercount = 2.6;

constexpr double kJacldFlops = kJacldAlgo * kCounterOvercount;
constexpr double kBltsFlops = kBltsAlgo * kCounterOvercount;
constexpr double kJacuFlops = kJacuAlgo * kCounterOvercount;
constexpr double kButsFlops = kButsAlgo * kCounterOvercount;
constexpr double kRhsFlops = kRhsAlgo * kCounterOvercount;
constexpr double kMiscFlops = kMiscAlgo * kCounterOvercount;

// Achieved fraction of peak per phase (LU's flop rate is famously not
// constant — §6.4 of the paper blames exactly this for the replay error).
constexpr double kJacEff = 0.23;
constexpr double kTriEff = 0.20;   // blts / buts triangular solves
constexpr double kRhsEff = 0.28;
constexpr double kMiscEff = 0.25;

constexpr int kTagLower = 10;
constexpr int kTagUpper = 11;
constexpr int kTagExchange3 = 12;
constexpr int kNormPeriod = 50;

struct Decomposition {
  int xdim, ydim;          // process grid
  int col, row;            // this rank's coordinates
  int nx, ny, nz;          // local subdomain
  int north, south, east, west;  // neighbour ranks or -1
};

int block_size(int n, int parts, int index) {
  return n / parts + (index < n % parts ? 1 : 0);
}

Decomposition decompose(NpbClass cls, int nprocs, int rank) {
  const int n = params(cls).grid;
  int xdim = 1;
  // xdim = 2^floor(log2(p)/2), ydim = p / xdim (>= xdim) — NPB's layout.
  int log2p = 0;
  while ((1 << (log2p + 1)) <= nprocs) ++log2p;
  xdim = 1 << (log2p / 2);
  const int ydim = nprocs / xdim;

  Decomposition d;
  d.xdim = xdim;
  d.ydim = ydim;
  d.col = rank % xdim;
  d.row = rank / xdim;
  d.nx = block_size(n, xdim, d.col);
  d.ny = block_size(n, ydim, d.row);
  d.nz = n;
  d.west = d.col > 0 ? rank - 1 : -1;
  d.east = d.col < xdim - 1 ? rank + 1 : -1;
  d.north = d.row > 0 ? rank - xdim : -1;
  d.south = d.row < ydim - 1 ? rank + xdim : -1;
  return d;
}

bool is_power_of_two(int v) { return v > 0 && (v & (v - 1)) == 0; }

// Per-plane efficiency wiggle: deterministic, phase-shifted per rank so the
// flop rate varies along the sweep without any global RNG.
double plane_wiggle(int k, int nz, int rank) {
  const double phase = 2.0 * std::numbers::pi * k / std::max(1, nz) +
                       0.7 * static_cast<double>(rank % 8);
  return 1.0 + 0.08 * std::sin(phase);
}

}  // namespace

NpbClass npb_class_from_string(const std::string& name) {
  if (name.size() == 1) {
    switch (name[0]) {
      case 'S': case 's': return NpbClass::S;
      case 'W': case 'w': return NpbClass::W;
      case 'A': case 'a': return NpbClass::A;
      case 'B': case 'b': return NpbClass::B;
      case 'C': case 'c': return NpbClass::C;
      case 'D': case 'd': return NpbClass::D;
      case 'E': case 'e': return NpbClass::E;
    }
  }
  throw ParseError("unknown NPB class '" + name + "'");
}

std::string to_string(NpbClass cls) {
  switch (cls) {
    case NpbClass::S: return "S";
    case NpbClass::W: return "W";
    case NpbClass::A: return "A";
    case NpbClass::B: return "B";
    case NpbClass::C: return "C";
    case NpbClass::D: return "D";
    case NpbClass::E: return "E";
  }
  throw Error("unknown NPB class");
}

int lu_grid_size(NpbClass cls) { return params(cls).grid; }
int lu_iterations(NpbClass cls) { return params(cls).iterations; }

double lu_flops_per_point_iteration() {
  return kJacldFlops + kBltsFlops + kJacuFlops + kButsFlops + kRhsFlops +
         kMiscFlops;
}

double lu_algorithmic_flops_per_point_iteration() {
  return kJacldAlgo + kBltsAlgo + kJacuAlgo + kButsAlgo + kRhsAlgo +
         kMiscAlgo;
}

double lu_counter_overcount_factor() { return kCounterOvercount; }

int LuConfig::iterations() const {
  const int full = lu_iterations(cls);
  const int scaled =
      static_cast<int>(std::llround(full * std::min(1.0, iteration_scale)));
  return std::max(1, scaled);
}

LuShape lu_shape(const LuConfig& config) {
  if (!is_power_of_two(config.nprocs))
    throw Error("NPB LU requires a power-of-two process count");
  LuShape shape;
  const Decomposition d0 = decompose(config.cls, config.nprocs, 0);
  shape.xdim = d0.xdim;
  shape.ydim = d0.ydim;
  shape.nx = d0.nx;
  shape.ny = d0.ny;
  shape.nz = d0.nz;

  const int iters = config.iterations();
  // Iterations that perform the residual-norm allreduce.
  std::uint64_t norm_iters = 0;
  for (int it = 0; it < iters; ++it)
    if (it == 0 || it == iters - 1 || (it + 1) % kNormPeriod == 0)
      ++norm_iters;

  std::uint64_t per_iter = 0;
  std::uint64_t setup_and_norms = 0;
  double flops_per_iter = 0.0;
  for (int r = 0; r < config.nprocs; ++r) {
    const Decomposition d = decompose(config.cls, config.nprocs, r);
    const int planes = std::max(1, d.nz - 2);
    const int low_deg_in = (d.north >= 0) + (d.west >= 0);
    const int low_deg_out = (d.south >= 0) + (d.east >= 0);
    const int neighbours = low_deg_in + low_deg_out;
    // Lower + upper sweeps: per plane, one compute plus the boundary
    // messages (the in/out degrees swap between the two sweeps, so the sum
    // per plane is identical).
    per_iter += static_cast<std::uint64_t>(planes) *
                static_cast<std::uint64_t>(2 * (1 + neighbours));
    // exchange_3: one Irecv, one Isend and two waits per neighbour, plus
    // the misc and rhs computes.
    per_iter += static_cast<std::uint64_t>(4 * neighbours + 2);
    // Setup (bcast + allreduce) and the per-run norm allreduces.
    setup_and_norms += 2 + norm_iters;
    flops_per_iter += static_cast<double>(d.nx) * d.ny * d.nz *
                      lu_flops_per_point_iteration();
  }
  shape.actions_per_iteration = per_iter;
  shape.total_actions =
      per_iter * static_cast<std::uint64_t>(iters) + setup_and_norms;
  shape.total_flops = flops_per_iter * iters;
  return shape;
}

AppDesc make_lu_app(const LuConfig& config) {
  if (!is_power_of_two(config.nprocs))
    throw Error("NPB LU requires a power-of-two process count");
  if (config.nprocs > lu_grid_size(config.cls) * lu_grid_size(config.cls))
    throw Error("LU class " + to_string(config.cls) + " is too small for " +
                std::to_string(config.nprocs) + " processes");

  AppDesc app;
  app.name = "lu." + to_string(config.cls);
  app.nprocs = config.nprocs;
  app.body = [config](mpi::MpiApi& mpi) -> sim::Co<void> {
    const Decomposition d = decompose(config.cls, mpi.size(), mpi.rank());
    const double cache = params(config.cls).cache_factor;

    const auto eff = [&](double base, int k) {
      if (config.flat_efficiency) return config.flat_rate_fraction;
      return base * cache * plane_wiggle(k, d.nz, mpi.rank());
    };

    const double points_per_plane = static_cast<double>(d.nx) * d.ny;
    const double points = points_per_plane * d.nz;
    // Boundary rows exchanged by the wavefront: 5 variables, 8-byte reals.
    const std::uint64_t ns_bytes = 5ull * 8ull * static_cast<unsigned>(d.nx);
    const std::uint64_t ew_bytes = 5ull * 8ull * static_cast<unsigned>(d.ny);
    // exchange_3 ghost faces: 5 variables x 2 ghost layers per face.
    const std::uint64_t face_ns =
        5ull * 2ull * 8ull * static_cast<unsigned>(d.nx) *
        static_cast<unsigned>(d.nz);
    const std::uint64_t face_ew =
        5ull * 2ull * 8ull * static_cast<unsigned>(d.ny) *
        static_cast<unsigned>(d.nz);

    const int iters = config.iterations();
    const int planes_lo = 1;
    const int planes_hi = d.nz - 2;  // interior planes, as in NPB

    // Setup: rank 0 broadcasts the problem parameters (three scalars in
    // NPB's read_input + bcast_inputs).
    co_await mpi.bcast(40, 0);
    co_await mpi.allreduce(40, points_per_plane * 5);

    for (int it = 0; it < iters; ++it) {
      // ---- lower-triangular sweep (jacld + blts), pipelined wavefront.
      for (int k = planes_lo; k <= planes_hi; ++k) {
        if (d.north >= 0) co_await mpi.recv(d.north, ns_bytes, kTagLower);
        if (d.west >= 0) co_await mpi.recv(d.west, ew_bytes, kTagLower);
        co_await mpi.compute((kJacldFlops + kBltsFlops) * points_per_plane,
                             eff(0.5 * (kJacEff + kTriEff), k));
        if (d.south >= 0) co_await mpi.send(d.south, ns_bytes, kTagLower);
        if (d.east >= 0) co_await mpi.send(d.east, ew_bytes, kTagLower);
      }
      // ---- upper-triangular sweep (jacu + buts), reverse wavefront.
      for (int k = planes_hi; k >= planes_lo; --k) {
        if (d.south >= 0) co_await mpi.recv(d.south, ns_bytes, kTagUpper);
        if (d.east >= 0) co_await mpi.recv(d.east, ew_bytes, kTagUpper);
        co_await mpi.compute((kJacuFlops + kButsFlops) * points_per_plane,
                             eff(0.5 * (kJacEff + kTriEff), k));
        if (d.north >= 0) co_await mpi.send(d.north, ns_bytes, kTagUpper);
        if (d.west >= 0) co_await mpi.send(d.west, ew_bytes, kTagUpper);
      }
      // ---- solution update (local).
      co_await mpi.compute(kMiscFlops * points, eff(kMiscEff, it));
      // ---- rhs with exchange_3 ghost-face refresh (nonblocking).
      std::vector<mpi::Request> recvs;
      if (d.north >= 0)
        recvs.push_back(mpi.irecv(d.north, face_ns, kTagExchange3));
      if (d.south >= 0)
        recvs.push_back(mpi.irecv(d.south, face_ns, kTagExchange3));
      if (d.east >= 0)
        recvs.push_back(mpi.irecv(d.east, face_ew, kTagExchange3));
      if (d.west >= 0)
        recvs.push_back(mpi.irecv(d.west, face_ew, kTagExchange3));
      std::vector<mpi::Request> sends;
      if (d.north >= 0)
        sends.push_back(mpi.isend(d.north, face_ns, kTagExchange3));
      if (d.south >= 0)
        sends.push_back(mpi.isend(d.south, face_ns, kTagExchange3));
      if (d.east >= 0)
        sends.push_back(mpi.isend(d.east, face_ew, kTagExchange3));
      if (d.west >= 0)
        sends.push_back(mpi.isend(d.west, face_ew, kTagExchange3));
      for (auto& r : recvs) co_await mpi.wait(std::move(r));
      for (auto& s : sends) co_await mpi.wait(std::move(s));
      co_await mpi.compute(kRhsFlops * points, eff(kRhsEff, it));
      // ---- periodic residual norm.
      if (it == 0 || it == iters - 1 || (it + 1) % kNormPeriod == 0)
        co_await mpi.allreduce(40, points_per_plane * 5);
    }
  };
  return app;
}

}  // namespace tir::apps
