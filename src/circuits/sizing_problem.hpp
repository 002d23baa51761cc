#pragma once
// The analog sizing problem abstraction shared by the RL environment, the
// baselines and the experiment harnesses.
//
// A problem is: a discretized parameter grid (the paper's [start, end, step]
// action-space notation), a list of design specifications with senses and
// target sampling ranges, and an evaluation *backend* mapping grid points to
// observed specification values (by running the circuit simulator). The
// backend is the pluggable seam of the system: factories stack caching,
// batch fan-out and PVT-corner parallelism behind it (see eval/backend.hpp)
// without any consumer changing how it asks for specs.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "eval/backend.hpp"
#include "eval/stats.hpp"
#include "eval/types.hpp"
#include "util/expected.hpp"

namespace autockt::circuits {

/// How an observed value o relates to its target t to count as satisfied.
///  * GreaterEq: o >= t               (gain, bandwidth, phase margin)
///  * LessEq:    o <= t               (settling time, noise)
///  * Minimize:  o <= t, and Eq. 1 keeps rewarding reductions below t
///    (the paper's o_th terms, e.g. bias current as a power proxy)
enum class SpecSense { GreaterEq, LessEq, Minimize };

struct ParamDef {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  double step = 1.0;

  /// Number of grid points (paper: {x : 0 <= x_i < K}). Degenerate
  /// definitions (non-positive step, end < start) collapse to a single
  /// point instead of dividing blindly.
  int grid_size() const {
    if (step <= 0.0 || end < start) return 1;
    return static_cast<int>((end - start) / step + 1.5);
  }
  /// Physical value at grid index `idx`.
  double value(int idx) const {
    return start + step * static_cast<double>(idx);
  }
};

struct SpecDef {
  std::string name;
  SpecSense sense = SpecSense::GreaterEq;
  double sample_lo = 0.0;   // deployment/training target sampling range
  double sample_hi = 1.0;
  double norm_const = 1.0;  // fixed reference g for lookup normalization
  double fail_value = 0.0;  // observed value substituted when the simulator
                            // cannot produce a measurement

  /// Reject definitions that would only misbehave deep inside lookup
  /// normalization or target sampling: sample_hi < sample_lo, non-positive
  /// norm_const, and NaN bounds all throw std::invalid_argument naming the
  /// spec. Called by the problem factories (and spec::SpecSpace) so bad
  /// definitions fail at construction, not mid-training.
  void validate() const;

  /// Signed relative satisfaction: >= 0 iff the spec is met. This is the
  /// paper's (o - o*)/(o + o*) with the sign arranged per sense.
  double rel(double observed, double target) const;

  bool satisfied(double observed, double target, double tol = 0.0) const {
    return rel(observed, target) >= -tol;
  }
};

using SpecVector = eval::SpecVector;   // aligned with SizingProblem::specs
using ParamVector = eval::ParamVector; // grid indices

/// Paper's fixed-reference normalization: (value - g) / (value + g), with a
/// guard for degenerate denominators. Maps (0, inf) to (-1, 1).
double lookup_norm(double value, double g);

struct SizingProblem {
  std::string name;
  std::string description;
  std::vector<ParamDef> params;
  std::vector<SpecDef> specs;

  /// The evaluation service behind this problem. Shared so that copies of
  /// the problem (and every env/worker holding one) see one cache and one
  /// set of statistics.
  std::shared_ptr<eval::EvalBackend> backend;

  /// Simulate one grid point through the backend. Errors indicate the
  /// simulator could not produce measurements (e.g. DC non-convergence);
  /// callers substitute per-spec fail_value. The optional hint threads the
  /// caller's warm-start state (last converged operating point) down to the
  /// simulator and is refreshed with the new one on success.
  util::Expected<SpecVector> evaluate(const ParamVector& params,
                                      eval::SimHint* hint = nullptr) const;

  /// Simulate many grid points; result i corresponds to params[i]. The
  /// backend may fan out, deduplicate and cache, but values and order are
  /// those of the serial loop. `hints` is empty or aligned with `points`;
  /// distinct points must carry distinct SimHint objects.
  std::vector<util::Expected<SpecVector>> evaluate_batch(
      const std::vector<ParamVector>& points,
      const std::vector<eval::SimHint*>& hints = {}) const;

  /// Compat shim: adopt a raw simulator callable as the backend (wrapped in
  /// a FunctionBackend). Keeps factories and tests terse.
  void set_evaluator(eval::EvalFn fn, std::string backend_name = "function");

  /// Evaluation telemetry (simulations, cache hits, batch shapes, wall
  /// time) accumulated by the backend stack since construction/reset,
  /// merged with the process-wide simulation-kernel counters (Newton
  /// iterations, symbolic/numeric factorizations, warm-start hit rate).
  eval::EvalStats eval_stats() const;
  void reset_eval_stats() const;

  /// Validate every spec definition (see SpecDef::validate). The factories
  /// in circuits/problems.cpp call this before returning, so a hand-edited
  /// sampling range fails loudly at construction.
  void validate() const;

  /// Per-simulation wall-clock cost reported by the paper for this setup;
  /// used to convert sample counts to paper-equivalent hours.
  double paper_sim_seconds = 0.025;

  /// log10 of the total number of parameter combinations.
  double action_space_log10() const;

  /// Paper: on reset, parameters start at the grid centre K/2.
  ParamVector center_params() const;

  /// Spec vector of all fail_values (used when evaluate() errors out).
  SpecVector fail_specs() const;

  bool valid_params(const ParamVector& p) const;

  /// Physical parameter values at a grid point (for reporting).
  std::vector<double> param_values(const ParamVector& p) const;

  // ---- Eq. 1 reward pieces (shared by env, baselines, deployment) -------

  /// The paper's Eq. 1: hard terms clamped at zero plus the unclamped
  /// minimize terms.
  double reward_eq1(const SpecVector& observed, const SpecVector& target) const;

  /// Sum of min(rel, 0) over ALL specs (minimize treated as a <= bound).
  /// The goal test (and deployment "reached" counting) uses this.
  double hard_violation(const SpecVector& observed,
                        const SpecVector& target) const;

  /// All specifications met to 1% relative tolerance.
  bool goal_met(const SpecVector& observed, const SpecVector& target) const {
    return hard_violation(observed, target) >= -kGoalTol;
  }

  static constexpr double kGoalTol = 0.01;
};

/// The spice layer's process-wide kernel counters (spice::KernelStats)
/// projected into EvalStats; every other field is 0. The one place that
/// maps kernel counters to EvalStats fields: SizingProblem::eval_stats()
/// adds it, and ProcessPoolBackend workers attach it as
/// Options::leaf_stats so their reply deltas carry the kernel work done in
/// the child, which the parent's own snapshot can never see.
eval::EvalStats kernel_eval_stats();

/// Fold per-corner spec vectors into the worst case per spec (PEX/PVT flow):
/// GreaterEq keeps the minimum, LessEq/Minimize the maximum.
SpecVector worst_case_fold(const std::vector<SpecDef>& specs,
                           const std::vector<SpecVector>& corner_results);

}  // namespace autockt::circuits
