#include <gtest/gtest.h>

#include <memory>

#include "baselines/ga_ml.hpp"
#include "baselines/genetic.hpp"
#include "baselines/random_agent.hpp"
#include "test_helpers.hpp"

using namespace autockt;
using circuits::SpecVector;

namespace {
circuits::SizingProblem synth() {
  return test_support::make_synthetic_problem(3, 21);
}
}  // namespace

TEST(GeneticAlgorithm, SolvesEasyTarget) {
  const auto prob = synth();
  baselines::GaConfig config;
  config.max_evals = 3000;
  config.seed = 2;
  // Lenient target: many designs qualify.
  const auto r = baselines::run_ga(prob, {9.6, 5.4, 1.45}, config);
  EXPECT_TRUE(r.reached);
  EXPECT_GT(r.evals_to_reach, 0);
  EXPECT_LE(r.evals_to_reach, r.total_evals);
}

TEST(GeneticAlgorithm, SolvesTightTargetWithMoreEvals) {
  const auto prob = synth();
  baselines::GaConfig config;
  config.max_evals = 6000;
  config.seed = 3;
  const auto easy = baselines::run_ga(prob, {9.6, 5.4, 1.45}, config);
  const auto hard = baselines::run_ga(prob, {11.8, 4.35, 1.35}, config);
  ASSERT_TRUE(easy.reached);
  ASSERT_TRUE(hard.reached);
  EXPECT_GT(hard.evals_to_reach, easy.evals_to_reach);
}

TEST(GeneticAlgorithm, RespectsEvalBudget) {
  const auto prob = synth();
  baselines::GaConfig config;
  config.max_evals = 50;
  config.seed = 5;
  // Impossible target: must stop at the budget, not loop forever.
  const auto r = baselines::run_ga(prob, {1e9, -1e9, 0.0}, config);
  EXPECT_FALSE(r.reached);
  EXPECT_LE(r.total_evals, config.max_evals + config.population);
  EXPECT_FALSE(r.best_params.empty());
  EXPECT_LE(r.best_reward, 0.0);
}

TEST(GeneticAlgorithm, SeedReproducible) {
  const auto prob = synth();
  baselines::GaConfig config;
  config.max_evals = 2000;
  config.seed = 7;
  const auto a = baselines::run_ga(prob, {11.0, 4.5, 1.3}, config);
  const auto b = baselines::run_ga(prob, {11.0, 4.5, 1.3}, config);
  EXPECT_EQ(a.reached, b.reached);
  EXPECT_EQ(a.evals_to_reach, b.evals_to_reach);
  EXPECT_EQ(a.best_params, b.best_params);
}

TEST(GeneticAlgorithm, BestParamsAreValid) {
  const auto prob = synth();
  baselines::GaConfig config;
  config.max_evals = 500;
  const auto r = baselines::run_ga(prob, {11.0, 4.5, 1.3}, config);
  EXPECT_TRUE(prob.valid_params(r.best_params));
}

TEST(RandomAgent, EpisodeRespectsHorizon) {
  auto prob = std::make_shared<const circuits::SizingProblem>(synth());
  env::EnvConfig config;
  config.horizon = 12;
  env::SizingEnv sizing_env(prob, config);
  sizing_env.set_target({1e9, -1e9, 0.0});  // unreachable
  util::Rng rng(3);
  const auto r = baselines::run_random_episode(sizing_env, rng);
  EXPECT_FALSE(r.reached);
  EXPECT_EQ(r.steps, 12);
}

TEST(RandomAgent, CanReachLenientTarget) {
  auto prob = std::make_shared<const circuits::SizingProblem>(synth());
  env::EnvConfig config;
  env::SizingEnv sizing_env(prob, config);
  sizing_env.set_target({9.5, 5.5, 1.49});  // the centre qualifies
  util::Rng rng(4);
  const auto r = baselines::run_random_episode(sizing_env, rng);
  EXPECT_TRUE(r.reached);
  EXPECT_GE(r.steps, 1);
}

TEST(RandomAgent, RarelyReachesTightTargets) {
  auto prob = std::make_shared<const circuits::SizingProblem>(synth());
  env::EnvConfig config;
  config.horizon = 10;
  env::SizingEnv sizing_env(prob, config);
  util::Rng rng(5);
  int reached = 0;
  for (int i = 0; i < 50; ++i) {
    sizing_env.set_target({12.8, 4.05, 1.07});  // far corner
    reached += baselines::run_random_episode(sizing_env, rng).reached ? 1 : 0;
  }
  EXPECT_LT(reached, 10);  // the paper's "random agent ~ nothing" row
}

TEST(GaMl, SolvesSyntheticProblem) {
  const auto prob = synth();
  baselines::GaMlConfig config;
  config.ga.max_evals = 3000;
  config.ga.population = 20;
  config.seed = 6;
  const auto r = baselines::run_ga_ml(prob, {11.3, 4.5, 1.32}, config);
  EXPECT_TRUE(r.reached);
  EXPECT_LE(r.evals_to_reach, 3000);
}

TEST(GaMl, RespectsSimulationBudget) {
  const auto prob = synth();
  baselines::GaMlConfig config;
  config.ga.max_evals = 120;
  config.ga.population = 20;
  const auto r = baselines::run_ga_ml(prob, {1e9, -1e9, 0.0}, config);
  EXPECT_FALSE(r.reached);
  EXPECT_LE(r.total_evals, config.ga.max_evals + config.ga.population);
}

TEST(GaMl, SeedReproducible) {
  const auto prob = synth();
  baselines::GaMlConfig config;
  config.ga.max_evals = 1500;
  config.seed = 8;
  const auto a = baselines::run_ga_ml(prob, {11.0, 4.5, 1.3}, config);
  const auto b = baselines::run_ga_ml(prob, {11.0, 4.5, 1.3}, config);
  EXPECT_EQ(a.evals_to_reach, b.evals_to_reach);
}

TEST(GaMl, DiscriminatorEconomyUsesFewerSimsPerCandidate) {
  // With sim_fraction 0.25 and candidate_factor 6, each generation
  // simulates ~1.5x the population instead of 6x: verify the accounting by
  // bounding total evals for a fixed number of generations.
  const auto prob = synth();
  baselines::GaMlConfig config;
  config.ga.population = 20;
  config.ga.max_evals = 20 + 3 * 30;  // init + ~3 generations of 30 sims
  config.candidate_factor = 6;
  config.sim_fraction = 0.25;
  const auto r = baselines::run_ga_ml(prob, {1e9, -1e9, 0.0}, config);
  EXPECT_LE(r.total_evals, config.ga.max_evals + 30);
}

// ---- evaluation-backend equivalence ----------------------------------------
// The GA simulates whole generations through evaluate_batch(); a cached +
// thread-pooled backend must reproduce the plain serial backend's GaResult
// bit for bit at a fixed seed — the backend is allowed to change wall-clock
// and sim counts, never values or the search trajectory.

#include "eval/cached_backend.hpp"
#include "eval/thread_pool.hpp"
#include "eval/threaded_backend.hpp"

namespace {

circuits::SizingProblem synth_with_decorated_backend() {
  auto prob = test_support::make_synthetic_problem(3, 21);
  prob.backend = std::make_shared<eval::CachedBackend>(
      std::make_shared<eval::ThreadPoolBackend>(
          prob.backend, std::make_shared<eval::ThreadPool>(4)),
      8);
  return prob;
}

void expect_same_ga_result(const baselines::GaResult& a,
                           const baselines::GaResult& b) {
  EXPECT_EQ(a.reached, b.reached);
  EXPECT_EQ(a.evals_to_reach, b.evals_to_reach);
  EXPECT_EQ(a.total_evals, b.total_evals);
  EXPECT_DOUBLE_EQ(a.best_reward, b.best_reward);
  EXPECT_EQ(a.best_params, b.best_params);
  EXPECT_EQ(a.best_specs, b.best_specs);
}

}  // namespace

TEST(GeneticAlgorithm, BatchedBackendMatchesSerialBackend) {
  const auto serial_prob = synth();
  const auto batched_prob = synth_with_decorated_backend();
  const SpecVector target = {10.4, 4.8, 1.4};
  for (std::uint64_t seed : {2ULL, 5ULL, 9ULL}) {
    baselines::GaConfig config;
    config.max_evals = 2500;
    config.seed = seed;
    expect_same_ga_result(baselines::run_ga(serial_prob, target, config),
                          baselines::run_ga(batched_prob, target, config));
  }
}

TEST(GaMl, BatchedBackendMatchesSerialBackend) {
  const auto serial_prob = synth();
  const auto batched_prob = synth_with_decorated_backend();
  const SpecVector target = {10.4, 4.8, 1.4};
  baselines::GaMlConfig config;
  config.ga.max_evals = 1200;
  config.ga.seed = 4;
  config.seed = 4;
  expect_same_ga_result(baselines::run_ga_ml(serial_prob, target, config),
                        baselines::run_ga_ml(batched_prob, target, config));
}

TEST(GeneticAlgorithm, BudgetCapRespectedWithBatching) {
  const auto prob = synth_with_decorated_backend();
  baselines::GaConfig config;
  config.max_evals = 97;  // deliberately not a multiple of the population
  config.seed = 8;
  // An unreachable target forces the run to the eval cap.
  const auto r = baselines::run_ga(prob, {14.0, 4.0, 1.0}, config);
  EXPECT_FALSE(r.reached);
  EXPECT_EQ(r.total_evals, 97);
}
