// NPB LU skeleton: the paper's evaluation workload.
//
// LU applies SSOR iterations to a 3-D grid (classes S..E fix the grid size
// and iteration count) over a 2-D process decomposition. Each iteration:
//
//   1. Lower-triangular sweep: for every k-plane, jacld+blts — a pipelined
//      wavefront that receives boundary rows from the north/west
//      neighbours, computes the plane, and forwards to south/east.
//   2. Upper-triangular sweep (jacu+buts): the reverse wavefront.
//   3. RHS update with full ghost-face exchanges (exchange_3, nonblocking).
//   4. Periodic residual norms via 5-double allreduce (l2norm).
//
// The skeleton reproduces the communication structure and volumes (who
// sends how many bytes to whom) and the computation volumes (flops per
// plane / per point from the published NPB operation counts), which is all
// a time-independent trace records. Each phase carries an efficiency — the
// achieved fraction of peak flop rate — modelling LU's non-constant flop
// rate, the source of the calibration error the paper analyses in §6.4.
#pragma once

#include <cstdint>
#include <string>

#include "apps/app.hpp"

namespace tir::apps {

enum class NpbClass { S, W, A, B, C, D, E };

NpbClass npb_class_from_string(const std::string& name);
std::string to_string(NpbClass cls);

/// Grid dimension n (the problem is n^3).
int lu_grid_size(NpbClass cls);
/// Full iteration count for the class.
int lu_iterations(NpbClass cls);

struct LuConfig {
  NpbClass cls = NpbClass::A;
  int nprocs = 4;  ///< must be a power of two (NPB LU requirement)

  /// Fraction of the full iteration count actually run (benchmark scaling;
  /// results are documented as extrapolated when < 1). At least one
  /// iteration always runs.
  double iteration_scale = 1.0;

  /// When true every compute runs at `flat_rate_fraction` of peak, hiding
  /// the per-phase variability (useful for analytic tests).
  bool flat_efficiency = false;
  double flat_rate_fraction = 0.225;

  int iterations() const;  ///< after scaling, >= 1
};

/// Analytic ground truth used by tests and the benchmark reports.
struct LuShape {
  int xdim = 0;            ///< process-grid width (i direction)
  int ydim = 0;            ///< process-grid height (j direction)
  int nx = 0, ny = 0, nz = 0;  ///< subdomain of rank 0
  std::uint64_t actions_per_iteration = 0;  ///< summed over all ranks
  std::uint64_t total_actions = 0;          ///< over the scaled run
  double total_flops = 0.0;                 ///< over the scaled run
};
LuShape lu_shape(const LuConfig& config);

/// Counted (PAPI_FP_OPS-like) flops per grid point per iteration — what
/// the traces record. This is the algorithmic count times the hardware
/// counter's overcount factor (see lu.cpp for the derivation from the
/// paper's own numbers).
double lu_flops_per_point_iteration();

/// NPB's published *algorithmic* operation count per point-iteration
/// (~1820, giving 119e9 operations for class A's 64^3 x 250).
double lu_algorithmic_flops_per_point_iteration();

/// Ratio between the two counts above.
double lu_counter_overcount_factor();

AppDesc make_lu_app(const LuConfig& config);

}  // namespace tir::apps
