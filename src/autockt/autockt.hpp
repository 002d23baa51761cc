#pragma once
// AutoCkt top-level API (the paper's contribution): train a PPO sizing agent
// over a sparse subsample of target specifications, then deploy the frozen
// agent on unseen targets — possibly in a *different* (e.g. post-layout)
// simulation environment, which is the paper's transfer-learning flow.

#include <cstdint>
#include <memory>
#include <vector>

#include "circuits/registry.hpp"
#include "circuits/sizing_problem.hpp"
#include "env/sizing_env.hpp"
#include "env/vector_env.hpp"
#include "eval/stats.hpp"
#include "rl/deploy.hpp"
#include "rl/ppo.hpp"
#include "spec/spec_suite.hpp"
#include "spec/target_sampler.hpp"

namespace autockt::core {

struct AutoCktConfig {
  rl::PpoConfig ppo;
  env::EnvConfig env_config;
  /// Paper: "50 target specifications are randomly sampled" for training.
  std::size_t train_target_count = 50;
  std::uint64_t seed = 7;

  // ---- spec-scenario protocol ---------------------------------------------
  /// How episode targets are drawn during training:
  ///  * FixedSuite — the paper's protocol: sample train_target_count
  ///    targets once (from `seed`), then pick uniformly per episode.
  ///  * Curriculum — frontier-biased region sampling over the whole spec
  ///    space (spec::CurriculumSampler); train_targets stays empty.
  enum class Sampling { FixedSuite, Curriculum };
  Sampling sampling = Sampling::FixedSuite;
  spec::CurriculumConfig curriculum;  // used when sampling == Curriculum

  /// Held-out generalization suite: stratified over the spec space from
  /// `suite_seed` ALONE (never the training seed), frozen before training,
  /// never trained on, probed every holdout_interval iterations. 0 targets
  /// disables the probe.
  std::size_t holdout_target_count = 20;
  std::uint64_t suite_seed = 0xa11ce;
  int holdout_interval = 5;
};

struct TrainOutcome {
  rl::PpoAgent agent;
  rl::TrainHistory history;
  std::vector<circuits::SpecVector> train_targets;
  /// The training targets as a named suite (empty target list under
  /// curriculum sampling — targets are drawn fresh per episode).
  spec::SpecSuite train_suite;
  /// The frozen holdout suite the agent never saw (empty when disabled).
  spec::SpecSuite holdout_suite;
};

/// Train an agent on the given problem (paper Fig. 3, training half).
TrainOutcome train_agent(
    std::shared_ptr<const circuits::SizingProblem> problem,
    const AutoCktConfig& config,
    const std::function<void(const rl::IterationStats&)>& on_iteration = {});

/// Registry-driven form: resolve `scenario` — a registered circuit name or
/// a path to a .cir deck — through the registry, build its backend stack
/// from `problem_options`, and train. The resolved problem is returned in
/// the outcome so deployment/generalization run against the same backend
/// (and cache) the trainer used.
struct ScenarioTrainOutcome {
  std::shared_ptr<const circuits::SizingProblem> problem;
  TrainOutcome outcome;
};
util::Expected<ScenarioTrainOutcome> train_agent(
    const circuits::CircuitRegistry& registry, const std::string& scenario,
    const circuits::ProblemOptions& problem_options,
    const AutoCktConfig& config,
    const std::function<void(const rl::IterationStats&)>& on_iteration = {});

using DeployRecord = rl::DeployRecord;

struct DeployStats {
  std::vector<DeployRecord> records;
  /// Evaluation-backend activity during this deployment (delta over the
  /// deploy call): real simulations vs cache hits, batch shapes, sim wall
  /// time. A repeated deployment on the same targets is mostly cache hits.
  eval::EvalStats eval_stats;

  int total() const { return static_cast<int>(records.size()); }
  int reached_count() const;
  /// Fraction of targets reached; 0 when no targets were deployed.
  double reach_fraction() const;
  /// Mean steps over reached targets — the paper's sample efficiency.
  /// 0 when no target was reached (there is no meaningful mean).
  double avg_steps_reached() const;
  long total_sim_steps() const;
};

/// Deploy the frozen agent on a list of targets (paper Fig. 3, deployment
/// half): rl::deploy_targets (greedy first attempt with fixed-point halt,
/// then up to `stochastic_retries` sampled episodes, every step charged;
/// records identical for any lane count) wrapped in a deploy/run span and
/// the backend's EvalStats delta. The environment may wrap a different
/// evaluation backend than the one trained on (transfer learning to PEX,
/// Fig. 13).
DeployStats deploy_agent(const rl::PpoAgent& agent,
                         std::shared_ptr<const circuits::SizingProblem> problem,
                         const std::vector<circuits::SpecVector>& targets,
                         const env::EnvConfig& env_config,
                         bool stochastic = false, std::uint64_t seed = 99,
                         int stochastic_retries = 1, int lanes = 16);

/// Suite form of deploy_agent (identical semantics, suite.targets() order).
DeployStats deploy_agent(const rl::PpoAgent& agent,
                         std::shared_ptr<const circuits::SizingProblem> problem,
                         const spec::SpecSuite& suite,
                         const env::EnvConfig& env_config,
                         bool stochastic = false, std::uint64_t seed = 99,
                         int stochastic_retries = 1, int lanes = 16);

/// Train-vs-holdout generalization scorecard: deploy the frozen agent on
/// both suites under identical settings and report the two goal-met rates
/// side by side (paper Figs. 8/12 are exactly this comparison).
struct GeneralizationReport {
  DeployStats train;
  DeployStats holdout;
  std::string train_suite_name;
  std::string holdout_suite_name;
  double train_goal_rate() const { return train.reach_fraction(); }
  double holdout_goal_rate() const { return holdout.reach_fraction(); }
  /// Train minus holdout reach — the generalization gap (>= 0 typically).
  double gap() const { return train_goal_rate() - holdout_goal_rate(); }
};
GeneralizationReport evaluate_generalization(
    const rl::PpoAgent& agent,
    std::shared_ptr<const circuits::SizingProblem> problem,
    const spec::SpecSuite& train_suite, const spec::SpecSuite& holdout_suite,
    const env::EnvConfig& env_config, std::uint64_t seed = 99);

/// Single-trajectory trace for Fig. 14-style plots.
struct TrajectoryTrace {
  std::vector<circuits::SpecVector> specs;   // per step (incl. start)
  std::vector<circuits::ParamVector> params;
  circuits::SpecVector target;
  bool reached = false;
};
TrajectoryTrace trace_trajectory(
    const rl::PpoAgent& agent,
    std::shared_ptr<const circuits::SizingProblem> problem,
    const circuits::SpecVector& target, const env::EnvConfig& env_config);

}  // namespace autockt::core
