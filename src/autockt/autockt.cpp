#include "autockt/autockt.hpp"

#include <memory>
#include <utility>

#include "trace/names.hpp"
#include "trace/trace.hpp"

namespace autockt::core {

using circuits::SpecVector;

TrainOutcome train_agent(
    std::shared_ptr<const circuits::SizingProblem> problem,
    const AutoCktConfig& config,
    const std::function<void(const rl::IterationStats&)>& on_iteration) {
  const spec::SpecSpace space(*problem);

  // Training targets. FixedSuite keeps the historical stream: one uniform
  // draw per spec from Rng(config.seed), bitwise-identical to the pre-suite
  // code path, so existing seeds retrain to identical agents.
  rl::TrainOptions options;
  std::vector<SpecVector> targets;
  spec::SpecSuite train_suite;
  if (config.sampling == AutoCktConfig::Sampling::FixedSuite) {
    util::Rng rng(config.seed);
    targets = env::sample_targets(*problem, config.train_target_count, rng);
    train_suite = spec::SpecSuite(problem->name + "/train", space.names(),
                                  targets);
    options.sampler = std::make_shared<spec::SuiteSampler>(targets);
  } else {
    train_suite =
        spec::SpecSuite(problem->name + "/train(curriculum)", space.names(),
                        {});
    options.sampler =
        std::make_shared<spec::CurriculumSampler>(space, config.curriculum);
  }

  // The holdout suite derives from suite_seed alone: retrain with any
  // training seed and the agent is scored on the same unseen targets.
  spec::SpecSuite holdout_suite;
  if (config.holdout_target_count > 0) {
    spec::StratifiedSampler stratified(
        space, static_cast<int>(config.holdout_target_count));
    holdout_suite = spec::SpecSuite::generate(
        space, stratified, config.holdout_target_count, config.suite_seed,
        problem->name + "/holdout");
    options.holdout = holdout_suite;
    options.holdout_interval = config.holdout_interval;
  }

  env::SizingEnv probe(problem, config.env_config);
  rl::PpoConfig ppo = config.ppo;
  ppo.seed = config.seed * 6364136223846793005ULL + 1442695040888963407ULL;
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), ppo);

  auto factory = [problem, env_config = config.env_config]() {
    return env::SizingEnv(problem, env_config);
  };
  rl::TrainHistory history = agent.train(factory, options, on_iteration);
  return TrainOutcome{std::move(agent), std::move(history),
                      std::move(targets), std::move(train_suite),
                      std::move(holdout_suite)};
}

util::Expected<ScenarioTrainOutcome> train_agent(
    const circuits::CircuitRegistry& registry, const std::string& scenario,
    const circuits::ProblemOptions& problem_options,
    const AutoCktConfig& config,
    const std::function<void(const rl::IterationStats&)>& on_iteration) {
  auto problem = registry.make_shared(scenario, problem_options);
  if (!problem.ok()) return problem.error();
  TrainOutcome outcome = train_agent(*problem, config, on_iteration);
  return ScenarioTrainOutcome{std::move(*problem), std::move(outcome)};
}

int DeployStats::reached_count() const {
  int n = 0;
  for (const auto& r : records) n += r.reached ? 1 : 0;
  return n;
}

double DeployStats::reach_fraction() const {
  return records.empty()
             ? 0.0
             : static_cast<double>(reached_count()) /
                   static_cast<double>(records.size());
}

double DeployStats::avg_steps_reached() const {
  long steps = 0;
  int n = 0;
  for (const auto& r : records) {
    if (r.reached) {
      steps += r.steps;
      ++n;
    }
  }
  return n == 0 ? 0.0
                : static_cast<double>(steps) / static_cast<double>(n);
}

long DeployStats::total_sim_steps() const {
  long steps = 0;
  for (const auto& r : records) steps += r.steps;
  return steps;
}

DeployStats deploy_agent(const rl::PpoAgent& agent,
                         std::shared_ptr<const circuits::SizingProblem> problem,
                         const std::vector<SpecVector>& targets,
                         const env::EnvConfig& env_config, bool stochastic,
                         std::uint64_t seed, int stochastic_retries,
                         int lanes) {
  trace::TraceSpan span(trace::names::kDeployRun);
  DeployStats stats;
  if (targets.empty()) return stats;
  const eval::EvalStats eval_baseline = problem->eval_stats();
  stats.records = rl::deploy_targets(agent, problem, targets, env_config,
                                     stochastic, seed, stochastic_retries,
                                     lanes);
  stats.eval_stats = problem->eval_stats().since(eval_baseline);
  return stats;
}

DeployStats deploy_agent(const rl::PpoAgent& agent,
                         std::shared_ptr<const circuits::SizingProblem> problem,
                         const spec::SpecSuite& suite,
                         const env::EnvConfig& env_config, bool stochastic,
                         std::uint64_t seed, int stochastic_retries,
                         int lanes) {
  return deploy_agent(agent, std::move(problem), suite.targets(), env_config,
                      stochastic, seed, stochastic_retries, lanes);
}

GeneralizationReport evaluate_generalization(
    const rl::PpoAgent& agent,
    std::shared_ptr<const circuits::SizingProblem> problem,
    const spec::SpecSuite& train_suite, const spec::SpecSuite& holdout_suite,
    const env::EnvConfig& env_config, std::uint64_t seed) {
  GeneralizationReport report;
  report.train_suite_name = train_suite.name();
  report.holdout_suite_name = holdout_suite.name();
  report.train =
      deploy_agent(agent, problem, train_suite, env_config, false, seed);
  // Distinct deployment stream per suite (records stay target-indexed and
  // deterministic either way; this just keeps the two rollouts decoupled).
  report.holdout = deploy_agent(agent, problem, holdout_suite, env_config,
                                false, seed + 1);
  return report;
}

TrajectoryTrace trace_trajectory(
    const rl::PpoAgent& agent,
    std::shared_ptr<const circuits::SizingProblem> problem,
    const SpecVector& target, const env::EnvConfig& env_config) {
  TrajectoryTrace trace;
  trace.target = target;
  env::SizingEnv sizing_env(problem, env_config);
  sizing_env.set_target(target);
  std::vector<double> obs = sizing_env.reset();
  trace.specs.push_back(sizing_env.cur_specs());
  trace.params.push_back(sizing_env.params());

  for (;;) {
    const auto prev_params = sizing_env.params();
    auto sr = sizing_env.step(agent.act_greedy(obs));
    obs = sr.obs;
    trace.specs.push_back(sizing_env.cur_specs());
    trace.params.push_back(sizing_env.params());
    if (sr.done) {
      trace.reached = sr.goal_met;
      break;
    }
    if (sizing_env.params() == prev_params) break;
  }
  return trace;
}

}  // namespace autockt::core
