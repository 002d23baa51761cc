#pragma once
// Gym-style RL environment for analog sizing (paper Section II).
//
//  * On reset, parameters start at the grid centre K/2 and the circuit is
//    simulated once to produce the initial observation.
//  * Observation: [lookup(cur_spec_i, g_i)..., lookup(target_i, g_i)...,
//    normalized parameter positions...] — the paper's fixed-range
//    normalization against per-spec reference constants.
//  * Action: one ternary choice per parameter: decrement / hold / increment,
//    clipped at the grid boundary (the paper's "circuit specific rules or
//    boundary limitations").
//  * Reward: Eq. 1, with a +10 bonus when every hard constraint is met to
//    1% relative tolerance; the episode then terminates (or after H steps).

#include <memory>
#include <vector>

#include "circuits/sizing_problem.hpp"
#include "eval/types.hpp"
#include "util/rng.hpp"

namespace autockt::env {

struct EnvConfig {
  int horizon = 30;          // paper: 30 simulation steps for the op-amps
  double goal_bonus = 10.0;  // paper Eq. "R = 10 + r"
  bool eq1_shaping = true;   // false: sparse goal-only reward (ablation)
  /// Thread the lane's last converged operating point into each evaluation
  /// so the simulator warm-starts Newton on the next +-1-grid-step design.
  /// Hints are invalidated on reset (episodes always cold-start), and the
  /// simulator falls back to its cold-start homotopy chain when a warm
  /// attempt fails, so trajectories stay deterministic for a fixed seed.
  bool warm_start = true;
};

class SizingEnv {
 public:
  SizingEnv(std::shared_ptr<const circuits::SizingProblem> problem,
            EnvConfig config);

  // ---- spaces -----------------------------------------------------------
  int obs_size() const;
  int num_params() const;
  static constexpr int kActionsPerParam = 3;  // -1 / 0 / +1

  // ---- episode control ---------------------------------------------------
  void set_target(circuits::SpecVector target);
  const circuits::SpecVector& target() const { return target_; }

  /// Start an episode from the grid centre; returns the first observation.
  std::vector<double> reset();

  struct StepResult {
    std::vector<double> obs;
    double reward = 0.0;
    bool done = false;
    bool goal_met = false;
  };
  /// action[i] in {0, 1, 2} mapping to parameter deltas {-1, 0, +1}.
  StepResult step(const std::vector<int>& action);

  // ---- split-phase stepping ----------------------------------------------
  // The vectorization seam: VectorSizingEnv drives many lanes by calling
  // begin_*() on each, gathering the pending grid points into ONE
  // evaluate_batch() on the shared backend, and feeding results back through
  // finish_*(). Because evaluate_batch(points)[i] is exactly what
  // evaluate(points[i]) would return, finish(begin(...)) with a batched
  // result is bitwise-identical to the plain reset()/step() path.

  /// Position at the grid centre; returns the point awaiting evaluation.
  const circuits::ParamVector& begin_reset();
  /// Complete a reset with the evaluation of the pending point.
  std::vector<double> finish_reset(eval::EvalResult result);
  /// Apply the action (clipped at grid bounds) and advance the step
  /// counter; returns the point awaiting evaluation.
  const circuits::ParamVector& begin_step(const std::vector<int>& action);
  /// Complete a step with the evaluation of the pending point.
  StepResult finish_step(eval::EvalResult result);
  /// Warm-start state to pass alongside the pending point (null when
  /// warm starting is disabled). The vector env forwards one per lane.
  eval::SimHint* pending_hint() {
    return config_.warm_start ? &hint_ : nullptr;
  }

  // ---- inspection --------------------------------------------------------
  const circuits::ParamVector& params() const { return params_; }
  const circuits::SpecVector& cur_specs() const { return cur_specs_; }
  int steps_taken() const { return steps_; }
  long simulations() const { return sims_; }
  bool last_eval_failed() const { return last_eval_failed_; }
  const circuits::SizingProblem& problem() const { return *problem_; }
  const std::shared_ptr<const circuits::SizingProblem>& problem_ptr() const {
    return problem_;
  }
  const EnvConfig& config() const { return config_; }

  /// Reward for the current state (Eq. 1 / sparse, per config).
  double current_reward() const;
  bool current_goal_met() const;

 private:
  std::vector<double> observe() const;
  void apply_eval(eval::EvalResult result);

  std::shared_ptr<const circuits::SizingProblem> problem_;
  EnvConfig config_;
  circuits::SpecVector target_;
  circuits::ParamVector params_;
  circuits::SpecVector cur_specs_;
  eval::SimHint hint_;  // last converged op point(s), refreshed per eval
  int steps_ = 0;
  long sims_ = 0;
  bool last_eval_failed_ = false;
};

/// Uniformly sample one deployment/training target within the per-spec
/// sampling ranges. Thin wrapper over spec::UniformSampler (same stream
/// bitwise); prefer building a sampler/suite via src/spec/ for anything
/// beyond a one-off draw.
circuits::SpecVector sample_target(const circuits::SizingProblem& problem,
                                   util::Rng& rng);

/// The paper trains against 50 randomly sampled target specifications.
std::vector<circuits::SpecVector> sample_targets(
    const circuits::SizingProblem& problem, std::size_t count,
    util::Rng& rng);

}  // namespace autockt::env
