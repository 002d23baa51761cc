#pragma once
// Vanilla genetic algorithm baseline (paper Tables I-IV compare against it).
//
// Integer-encoded individuals over the sizing grid; tournament selection,
// uniform crossover, per-gene mutation mixing local jitter with uniform
// resampling. Fitness is the paper's Eq. 1 reward against the fixed target;
// the run stops the moment any individual satisfies every hard constraint,
// and reports how many circuit simulations were consumed — the paper's
// sample-efficiency metric.
//
// Populations are simulated through SizingProblem::evaluate_batch, so a
// parallel backend evaluates a whole generation concurrently. Results and
// eval counts are bit-identical to the historical one-at-a-time loop for a
// fixed seed; when the run ends mid-batch the backend may have simulated
// (at most one generation of) extra points, which appears only in
// EvalStats, never in GaResult.

#include <cstdint>
#include <vector>

#include "circuits/sizing_problem.hpp"
#include "util/rng.hpp"

namespace autockt::baselines {

struct GaConfig {
  int population = 40;
  int elite = 2;              // individuals copied unchanged each generation
  int tournament = 3;
  double crossover_prob = 0.9;
  double mutation_prob = 0.15;  // per gene
  double local_jitter_prob = 0.5;  // mutated gene: +/- few steps vs resample
  long max_evals = 20000;
  std::uint64_t seed = 1;
};

struct GaResult {
  bool reached = false;
  long evals_to_reach = 0;  // simulations used when the target was first met
  long total_evals = 0;
  double best_reward = 0.0;
  circuits::ParamVector best_params;
  circuits::SpecVector best_specs;
};

GaResult run_ga(const circuits::SizingProblem& problem,
                const circuits::SpecVector& target, const GaConfig& config);

}  // namespace autockt::baselines
