#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "baselines/ga_ml.hpp"
#include "rl/deploy.hpp"
#include "rl/ppo.hpp"
#include "test_helpers.hpp"

using namespace autockt;
using circuits::SpecVector;

namespace {

std::shared_ptr<const circuits::SizingProblem> synth() {
  return std::make_shared<const circuits::SizingProblem>(
      test_support::make_synthetic_problem(3, 21));
}

rl::PpoConfig small_config() {
  rl::PpoConfig config;
  config.max_iterations = 40;
  config.steps_per_iteration = 800;
  config.minibatch = 128;
  config.epochs = 6;
  config.num_workers = 2;
  config.seed = 3;
  return config;
}

/// The paper's protocol: each episode's target drawn uniformly from a fixed
/// list.
rl::TrainOptions suite_options(const std::vector<SpecVector>& targets) {
  rl::TrainOptions options;
  options.sampler = std::make_shared<spec::SuiteSampler>(targets);
  return options;
}

}  // namespace

TEST(PpoAgent, ActionShapesAndBounds) {
  rl::PpoConfig config;
  rl::PpoAgent agent(9, 3, config);
  util::Rng rng(1);
  const std::vector<double> obs(9, 0.1);
  const auto a = agent.act_sample(obs, rng);
  ASSERT_EQ(a.size(), 3u);
  for (int v : a) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, env::SizingEnv::kActionsPerParam);
  }
  const auto g = agent.act_greedy(obs);
  ASSERT_EQ(g.size(), 3u);
}

TEST(PpoAgent, GreedyIsDeterministic) {
  rl::PpoConfig config;
  rl::PpoAgent agent(9, 3, config);
  const std::vector<double> obs(9, -0.2);
  EXPECT_EQ(agent.act_greedy(obs), agent.act_greedy(obs));
}

TEST(PpoAgent, LogProbIsConsistentWithSampling) {
  rl::PpoConfig config;
  rl::PpoAgent agent(9, 3, config);
  util::Rng rng(2);
  const std::vector<double> obs(9, 0.0);
  double logp = 0.0;
  agent.act_sample(obs, rng, &logp);
  EXPECT_LE(logp, 0.0);                       // probability <= 1
  EXPECT_GT(logp, 3.0 * std::log(1e-12));     // not degenerate
}

TEST(PpoAgent, TrainRejectsEmptyTargets) {
  rl::PpoConfig config;
  rl::PpoAgent agent(9, 3, config);
  auto prob = synth();
  EXPECT_THROW(agent.train([prob] { return env::SizingEnv(prob, {}); },
                           suite_options({})),
               std::invalid_argument);
}

TEST(PpoAgent, LearnsSyntheticSizingProblem) {
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 15;
  env::SizingEnv probe(prob, env_config);

  rl::PpoConfig config = small_config();
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);

  util::Rng rng(11);
  const auto targets = env::sample_targets(*prob, 20, rng);
  const auto history = agent.train(
      [prob, env_config] { return env::SizingEnv(prob, env_config); },
      suite_options(targets));

  ASSERT_FALSE(history.iterations.empty());
  const auto& first = history.iterations.front();
  const auto& last = history.iterations.back();
  EXPECT_GT(last.mean_episode_reward, first.mean_episode_reward);
  EXPECT_GT(last.goal_rate, 0.7);
  EXPECT_GT(history.total_env_steps, 0);
}

TEST(PpoAgent, TrainingIsSeedReproducible) {
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;

  auto run = [&](std::uint64_t seed) {
    env::SizingEnv probe(prob, env_config);
    rl::PpoConfig config = small_config();
    config.max_iterations = 3;
    config.seed = seed;
    rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
    util::Rng rng(7);
    const auto targets = env::sample_targets(*prob, 10, rng);
    const auto history = agent.train(
        [prob, env_config] { return env::SizingEnv(prob, env_config); },
        suite_options(targets));
    return history.iterations.back().mean_episode_reward;
  };
  EXPECT_DOUBLE_EQ(run(5), run(5));
  // And a different seed gives a genuinely different trajectory.
  EXPECT_NE(run(5), run(6));
}

TEST(PpoAgent, EarlyStopOnGoalRate) {
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 15;
  env::SizingEnv probe(prob, env_config);
  rl::PpoConfig config = small_config();
  config.max_iterations = 60;
  config.target_goal_rate = 0.75;
  config.target_mean_reward = 1e9;  // force the goal-rate criterion
  config.stop_patience = 1;
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
  util::Rng rng(13);
  const auto targets = env::sample_targets(*prob, 10, rng);
  const auto history = agent.train(
      [prob, env_config] { return env::SizingEnv(prob, env_config); },
      suite_options(targets));
  EXPECT_TRUE(history.converged);
  EXPECT_LT(static_cast<int>(history.iterations.size()),
            config.max_iterations);
}

TEST(PpoAgent, OnIterationCallbackFires) {
  auto prob = synth();
  env::EnvConfig env_config;
  env::SizingEnv probe(prob, env_config);
  rl::PpoConfig config = small_config();
  config.max_iterations = 2;
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
  util::Rng rng(17);
  const auto targets = env::sample_targets(*prob, 5, rng);
  int calls = 0;
  agent.train([prob, env_config] { return env::SizingEnv(prob, env_config); },
              suite_options(targets),
              [&](const rl::IterationStats& s) {
                EXPECT_EQ(s.iteration, calls);
                ++calls;
              });
  EXPECT_EQ(calls, 2);
}

TEST(PpoAgent, SaveLoadRoundTrip) {
  rl::PpoConfig config;
  rl::PpoAgent agent(9, 3, config);
  std::stringstream ss;
  agent.save(ss);
  const auto loaded = rl::PpoAgent::load(ss);
  EXPECT_EQ(loaded.obs_size(), 9);
  EXPECT_EQ(loaded.num_params(), 3);
  const std::vector<double> obs(9, 0.3);
  EXPECT_EQ(agent.act_greedy(obs), loaded.act_greedy(obs));
  EXPECT_DOUBLE_EQ(agent.value(obs), loaded.value(obs));
}

TEST(PpoAgent, LoadRejectsGarbage) {
  std::stringstream ss("bogus");
  EXPECT_THROW(rl::PpoAgent::load(ss), std::runtime_error);

  // Networks whose shapes disagree with the header, or are malformed.
  auto saved_net = [](const std::vector<int>& sizes) {
    std::stringstream net;
    nn::Mlp(sizes, nn::Activation::Tanh, 1).save(net);
    return net.str();
  };
  const std::string policy = saved_net({9, 50, 9});  // 3 params x 3 actions
  const std::string value = saved_net({9, 50, 1});
  for (const std::string& text : {
           "ppo_agent 8 3\n" + policy + value,       // obs_size mismatch
           "ppo_agent 9 4\n" + policy + value,       // num_params mismatch
           "ppo_agent 9 3\n" + policy + saved_net({9, 50, 2}),  // value out
           "ppo_agent 9 3\n" + policy + saved_net({7, 50, 1}),  // value in
           "ppo_agent 9 3\n" + policy,               // missing value net
           "ppo_agent 0 3\n" + policy + value,       // empty observation
           "ppo_agent 9 3\nmlp 3\n9 0 9\ntanh\n" + value,
           "ppo_agent 9 3\nmlp 3\n9 -5 9\ntanh\n" + value,
       }) {
    std::stringstream in(text);
    EXPECT_THROW(rl::PpoAgent::load(in), std::runtime_error)
        << text.substr(0, 40);
  }
  // The well-formed combination loads.
  std::stringstream good("ppo_agent 9 3\n" + policy + value);
  EXPECT_NO_THROW(rl::PpoAgent::load(good));
}

TEST(PpoConfig, ValidateRejectsNonpositiveRolloutShape) {
  rl::PpoConfig config;
  config.num_workers = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.num_workers = -2;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = rl::PpoConfig{};
  config.envs_per_worker = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = rl::PpoConfig{};
  config.steps_per_iteration = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = rl::PpoConfig{};
  config.minibatch = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = rl::PpoConfig{};
  config.epochs = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_NO_THROW(rl::PpoConfig{}.validate());
}

TEST(PpoAgent, TrainRejectsInvalidRolloutShape) {
  auto prob = synth();
  rl::PpoConfig config = small_config();
  config.num_workers = 0;
  rl::PpoAgent agent(9, 3, config);
  util::Rng rng(23);
  const auto targets = env::sample_targets(*prob, 4, rng);
  EXPECT_THROW(
      agent.train([prob] { return env::SizingEnv(prob, {}); },
                  suite_options(targets)),
      std::invalid_argument);
}

TEST(PpoAgent, TrajectoriesInvariantUnderWorkerLaneSplit) {
  // The rollout-engine contract: for a fixed seed, training depends only on
  // num_workers * envs_per_worker (lane seeds are drawn in global lane
  // order and each lane's stream is private), so any split of 4 lanes
  // produces identical iterations.
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;

  auto run = [&](int workers, int envs_per_worker) {
    env::SizingEnv probe(prob, env_config);
    rl::PpoConfig config = small_config();
    config.max_iterations = 3;
    config.num_workers = workers;
    config.envs_per_worker = envs_per_worker;
    config.seed = 31;
    rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
    util::Rng rng(7);
    const auto targets = env::sample_targets(*prob, 10, rng);
    return agent.train(
        [prob, env_config] { return env::SizingEnv(prob, env_config); },
        suite_options(targets));
  };

  const auto h14 = run(1, 4);
  const auto h41 = run(4, 1);
  const auto h22 = run(2, 2);
  ASSERT_EQ(h14.iterations.size(), h41.iterations.size());
  ASSERT_EQ(h14.iterations.size(), h22.iterations.size());
  for (std::size_t i = 0; i < h14.iterations.size(); ++i) {
    EXPECT_DOUBLE_EQ(h14.iterations[i].mean_episode_reward,
                     h41.iterations[i].mean_episode_reward);
    EXPECT_DOUBLE_EQ(h14.iterations[i].mean_episode_reward,
                     h22.iterations[i].mean_episode_reward);
    EXPECT_DOUBLE_EQ(h14.iterations[i].policy_loss,
                     h41.iterations[i].policy_loss);
    EXPECT_DOUBLE_EQ(h14.iterations[i].value_loss,
                     h22.iterations[i].value_loss);
    EXPECT_EQ(h14.iterations[i].cumulative_env_steps,
              h41.iterations[i].cumulative_env_steps);
  }
}

// ---- spec-scenario training (TrainOptions: sampler + holdout suite) --------

TEST(PpoAgent, HoldoutProbeRunsAtIntervalAndOnFinalIteration) {
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;
  env::SizingEnv probe(prob, env_config);
  rl::PpoConfig config = small_config();
  config.max_iterations = 5;
  config.target_mean_reward = 1e9;  // no early stop
  config.target_goal_rate = 2.0;
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);

  const spec::SpecSpace space(*prob);
  spec::UniformSampler sampler(space);
  const auto train =
      spec::SpecSuite::generate(space, sampler, 12, 0xfeed, "t/train");
  rl::TrainOptions options;
  options.sampler = std::make_shared<spec::SuiteSampler>(train.targets());
  options.holdout =
      spec::SpecSuite::generate(space, sampler, 6, 0xbeef, "t/holdout");
  options.holdout_interval = 2;

  const auto history = agent.train(
      [prob, env_config] { return env::SizingEnv(prob, env_config); },
      options);
  ASSERT_EQ(history.iterations.size(), 5u);
  // Interval pattern: iterations 0, 2, 4 probe; 4 is also the final one.
  const std::vector<bool> expect_probe{true, false, true, false, true};
  for (std::size_t i = 0; i < history.iterations.size(); ++i) {
    EXPECT_EQ(history.iterations[i].holdout_evaluated, expect_probe[i])
        << "iteration " << i;
    if (expect_probe[i]) {
      EXPECT_GE(history.iterations[i].holdout_goal_rate, 0.0);
      EXPECT_LE(history.iterations[i].holdout_goal_rate, 1.0);
    } else {
      EXPECT_DOUBLE_EQ(history.iterations[i].holdout_goal_rate, -1.0);
    }
  }
  EXPECT_DOUBLE_EQ(history.final_holdout_goal_rate,
                   history.iterations.back().holdout_goal_rate);
}

TEST(PpoAgent, HoldoutProbeDoesNotPerturbTraining) {
  // The probe interleaves greedy holdout rollouts with collection on the
  // shared backend; trajectories (and thus learned stats) must not move.
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;
  util::Rng rng(7);
  const auto targets = env::sample_targets(*prob, 10, rng);

  auto run = [&](std::size_t holdout_count) {
    env::SizingEnv probe(prob, env_config);
    rl::PpoConfig config = small_config();
    config.max_iterations = 3;
    rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
    rl::TrainOptions options;
    options.sampler = std::make_shared<spec::SuiteSampler>(targets);
    if (holdout_count > 0) {
      const spec::SpecSpace space(*prob);
      spec::StratifiedSampler stratified(
          space, static_cast<int>(holdout_count));
      options.holdout = spec::SpecSuite::generate(
          space, stratified, holdout_count, 0xcafe, "probe");
      options.holdout_interval = 1;
    }
    return agent.train(
        [prob, env_config] { return env::SizingEnv(prob, env_config); },
        options);
  };
  const auto without = run(0);
  const auto with = run(8);
  ASSERT_EQ(without.iterations.size(), with.iterations.size());
  for (std::size_t i = 0; i < without.iterations.size(); ++i) {
    EXPECT_DOUBLE_EQ(without.iterations[i].mean_episode_reward,
                     with.iterations[i].mean_episode_reward);
    EXPECT_DOUBLE_EQ(without.iterations[i].value_loss,
                     with.iterations[i].value_loss);
  }
}

TEST(PpoAgent, CurriculumTrainingIsSeedReproducible) {
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;
  auto run = [&] {
    env::SizingEnv probe(prob, env_config);
    rl::PpoConfig config = small_config();
    config.max_iterations = 3;
    rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
    rl::TrainOptions options;
    options.sampler = std::make_shared<spec::CurriculumSampler>(
        spec::SpecSpace(*prob));
    return agent.train(
        [prob, env_config] { return env::SizingEnv(prob, env_config); },
        options);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.iterations[i].mean_episode_reward,
                     b.iterations[i].mean_episode_reward);
    EXPECT_DOUBLE_EQ(a.iterations[i].policy_loss, b.iterations[i].policy_loss);
  }
}

TEST(PpoAgent, CurriculumLearnsFromOutcomes) {
  // After training on the synthetic problem, the curriculum must have
  // digested one outcome per collected episode.
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;
  env::SizingEnv probe(prob, env_config);
  rl::PpoConfig config = small_config();
  config.max_iterations = 2;
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
  auto curriculum = std::make_shared<spec::CurriculumSampler>(
      spec::SpecSpace(*prob));
  rl::TrainOptions options;
  options.sampler = curriculum;
  const auto history = agent.train(
      [prob, env_config] { return env::SizingEnv(prob, env_config); },
      options);
  EXPECT_GT(curriculum->outcomes_recorded(), 0);
  EXPECT_GT(history.total_env_steps, 0);
}

TEST(PpoAgent, RejectsSequentialSamplerWithMultipleWorkers) {
  auto prob = synth();
  rl::PpoConfig config = small_config();
  ASSERT_GT(config.num_workers, 1);
  rl::PpoAgent agent(9, 3, config);
  rl::TrainOptions options;
  options.sampler =
      std::make_shared<spec::StratifiedSampler>(spec::SpecSpace(*prob), 8);
  EXPECT_THROW(
      agent.train([prob] { return env::SizingEnv(prob, {}); }, options),
      std::invalid_argument);
}

TEST(PpoAgent, RejectsMissingSampler) {
  auto prob = synth();
  rl::PpoAgent agent(9, 3, small_config());
  EXPECT_THROW(
      agent.train([prob] { return env::SizingEnv(prob, {}); },
                  rl::TrainOptions{}),
      std::invalid_argument);
}

TEST(DeployTargets, RecordsAreLaneCountInvariant) {
  // Greedy with no retries (the holdout probe's setting) and sampled retries
  // (per-target streams) must both give the same records at any lane count.
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;
  env_config.warm_start = false;
  env::SizingEnv probe(prob, env_config);
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), small_config());
  util::Rng rng(3);
  const auto targets = env::sample_targets(*prob, 11, rng);
  for (const int retries : {0, 1}) {
    auto deploy = [&](int lanes) {
      return rl::deploy_targets(agent, prob, targets, env_config,
                                /*stochastic=*/false, /*seed=*/99, retries,
                                lanes);
    };
    const auto r1 = deploy(1);
    ASSERT_EQ(r1.size(), targets.size());
    for (const int lanes : {4, 16}) {
      const auto rn = deploy(lanes);
      ASSERT_EQ(rn.size(), r1.size());
      for (std::size_t t = 0; t < r1.size(); ++t) {
        EXPECT_EQ(rn[t].target, r1[t].target);
        EXPECT_EQ(rn[t].reached, r1[t].reached)
            << "retries=" << retries << " lanes=" << lanes << " t=" << t;
        EXPECT_EQ(rn[t].steps, r1[t].steps);
        EXPECT_EQ(rn[t].final_params, r1[t].final_params);
        EXPECT_EQ(rn[t].final_specs, r1[t].final_specs);
      }
    }
  }
}

TEST(PpoAgent, SingleWorkerMatchesConfig) {
  // num_workers = 1 must work (serial path) and be reproducible.
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 8;
  env::SizingEnv probe(prob, env_config);
  rl::PpoConfig config = small_config();
  config.num_workers = 1;
  config.max_iterations = 2;
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
  util::Rng rng(19);
  const auto targets = env::sample_targets(*prob, 5, rng);
  const auto history = agent.train(
      [prob, env_config] { return env::SizingEnv(prob, env_config); },
      suite_options(targets));
  EXPECT_EQ(history.iterations.size(), 2u);
  EXPECT_GE(history.iterations[0].cumulative_env_steps,
            config.steps_per_iteration);
}

// ---- golden pins --------------------------------------------------------
// Fixed-seed results written out as %.17g literals. They were produced by
// the per-sample update loop that the batched minibatch kernels replaced,
// so they pin the kernels' accumulation-order contract end to end: any
// reordering of a sum shows up here as a changed bit. The holdout rates
// were produced by the dedicated probe rollout that the deploy loop
// replaced.

TEST(GoldenPin, SyntheticPpoIterationStats) {
  auto prob = synth();
  env::EnvConfig env_config;
  env_config.horizon = 10;
  env::SizingEnv probe(prob, env_config);
  rl::PpoConfig config;
  config.num_workers = 1;
  config.max_iterations = 2;
  config.epochs = 2;
  config.steps_per_iteration = 300;
  config.minibatch = 48;  // 313 and 314 transitions: a ragged last minibatch
  config.seed = 29;
  rl::PpoAgent agent(probe.obs_size(), probe.num_params(), config);
  util::Rng rng(31);
  const auto targets = env::sample_targets(*prob, 8, rng);
  rl::TrainOptions options = suite_options(targets);
  // A holdout ramp from easy to out of reach within the horizon, probed on
  // both iterations (the first by interval, the second as the last).
  std::vector<SpecVector> holdout;
  for (int k = 0; k < 11; ++k) {
    holdout.push_back({10.0 + 0.3 * k, 4.6 + 0.05 * k, 1.3});
  }
  options.holdout =
      spec::SpecSuite("pin", spec::SpecSpace(*prob).names(), holdout);
  const auto history = agent.train(
      [prob, env_config] { return env::SizingEnv(prob, env_config); },
      options);

  struct Pin {
    long env_steps;
    double goal_rate, mean_episode_reward, policy_loss, value_loss, entropy;
    double holdout_goal_rate;
  };
  const Pin pins[] = {
      {313, 0.28947368421052633, 2.5816126433416251, -0.0010560425024020059,
       5.2037953998696631, 1.0986080373342144, 0.63636363636363635},
      {627, 0.34210526315789475, 3.0910774625465405, -0.0017143676928280686,
       6.3968063736777241, 1.0985703596503669, 0.63636363636363635},
  };
  ASSERT_EQ(history.iterations.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const rl::IterationStats& s = history.iterations[i];
    EXPECT_EQ(s.cumulative_env_steps, pins[i].env_steps) << "iteration " << i;
    EXPECT_EQ(s.goal_rate, pins[i].goal_rate) << "iteration " << i;
    EXPECT_EQ(s.mean_episode_reward, pins[i].mean_episode_reward)
        << "iteration " << i;
    EXPECT_EQ(s.policy_loss, pins[i].policy_loss) << "iteration " << i;
    EXPECT_EQ(s.value_loss, pins[i].value_loss) << "iteration " << i;
    EXPECT_EQ(s.entropy, pins[i].entropy) << "iteration " << i;
    EXPECT_TRUE(s.holdout_evaluated) << "iteration " << i;
    EXPECT_EQ(s.holdout_goal_rate, pins[i].holdout_goal_rate)
        << "iteration " << i;
  }
}

TEST(GoldenPin, GaMlResult) {
  // A target first met in the fourth generation, so the discriminator is
  // trained three times (20, 50 and 80 rows) before the pinned result.
  auto prob = synth();
  baselines::GaMlConfig config;
  config.ga.max_evals = 400;
  config.ga.population = 20;
  config.ga.seed = 6;
  config.seed = 6;
  const auto r = baselines::run_ga_ml(*prob, {12.85, 4.05, 1.47}, config);
  EXPECT_TRUE(r.reached);
  EXPECT_EQ(r.evals_to_reach, 96);
  EXPECT_EQ(r.total_evals, 96);
  EXPECT_EQ(r.best_reward, -0.002867632049344794);
  EXPECT_EQ(r.best_params, (circuits::ParamVector{19, 20, 19}));
  EXPECT_EQ(r.best_specs,
            (SpecVector{12.800000000000001, 4.0666666666666664,
                        1.4666666666666666}));
}
