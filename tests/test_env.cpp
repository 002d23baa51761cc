#include <gtest/gtest.h>

#include <memory>

#include "env/sizing_env.hpp"
#include "spec/spec_space.hpp"
#include "test_helpers.hpp"

using namespace autockt;
using namespace autockt::env;
using circuits::SpecVector;

namespace {
std::shared_ptr<const circuits::SizingProblem> synth(int n = 3, int grid = 21) {
  return std::make_shared<const circuits::SizingProblem>(
      test_support::make_synthetic_problem(n, grid));
}
}  // namespace

TEST(SizingEnv, ObsLayoutAndSize) {
  SizingEnv env(synth(), EnvConfig{});
  EXPECT_EQ(env.obs_size(), 2 * 3 + 3);
  EXPECT_EQ(env.num_params(), 3);
  const auto obs = env.reset();
  ASSERT_EQ(obs.size(), static_cast<std::size_t>(env.obs_size()));
  // Parameter block: centred grid -> normalized position 0.
  EXPECT_NEAR(obs[6], 0.0, 1e-12);
  EXPECT_NEAR(obs[7], 0.0, 1e-12);
  EXPECT_NEAR(obs[8], 0.0, 1e-12);
  // All entries bounded.
  for (double v : obs) {
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(SizingEnv, ResetStartsAtGridCenter) {
  auto prob = synth();
  SizingEnv env(prob, EnvConfig{});
  env.reset();
  EXPECT_EQ(env.params(), prob->center_params());
  EXPECT_EQ(env.steps_taken(), 0);
}

TEST(SizingEnv, StepMovesParamsByAction) {
  SizingEnv env(synth(), EnvConfig{});
  env.reset();
  auto before = env.params();
  env.step({0, 1, 2});  // -1, 0, +1
  EXPECT_EQ(env.params()[0], before[0] - 1);
  EXPECT_EQ(env.params()[1], before[1]);
  EXPECT_EQ(env.params()[2], before[2] + 1);
  EXPECT_EQ(env.steps_taken(), 1);
}

TEST(SizingEnv, ActionsClipAtGridBounds) {
  SizingEnv env(synth(2, 5), EnvConfig{});
  env.reset();
  for (int i = 0; i < 10; ++i) env.step({0, 2});
  EXPECT_EQ(env.params()[0], 0);
  EXPECT_EQ(env.params()[1], 4);
}

TEST(SizingEnv, RejectsWrongActionArity) {
  SizingEnv env(synth(3), EnvConfig{});
  env.reset();
  EXPECT_THROW(env.step({1, 1}), std::invalid_argument);
}

TEST(SizingEnv, RejectsWrongTargetArity) {
  SizingEnv env(synth(3), EnvConfig{});
  EXPECT_THROW(env.set_target({1.0}), std::invalid_argument);
}

TEST(SizingEnv, HorizonTerminatesEpisode) {
  EnvConfig config;
  config.horizon = 4;
  SizingEnv env(synth(), config);
  env.set_target({1e9, -1e9, -1e9});  // unreachable
  env.reset();
  SizingEnv::StepResult last;
  for (int i = 0; i < 4; ++i) last = env.step({1, 1, 1});
  EXPECT_TRUE(last.done);
  EXPECT_FALSE(last.goal_met);
}

TEST(SizingEnv, GoalTerminatesWithBonus) {
  SizingEnv env(synth(), EnvConfig{});
  // The centre already satisfies these lenient targets.
  env.set_target({9.0, 6.0, 1.6});
  env.reset();
  auto sr = env.step({1, 1, 1});
  EXPECT_TRUE(sr.done);
  EXPECT_TRUE(sr.goal_met);
  EXPECT_GT(sr.reward, 9.0);  // bonus-dominated
}

TEST(SizingEnv, RewardIsNonPositiveBeforeGoal) {
  SizingEnv env(synth(), EnvConfig{});
  env.set_target({11.5, 4.2, 1.1});
  env.reset();
  for (int i = 0; i < 5; ++i) {
    auto sr = env.step({2, 2, 2});
    if (sr.goal_met) break;
    EXPECT_LE(sr.reward, 0.0);
  }
}

TEST(SizingEnv, RewardImprovesWhenMovingTowardTarget) {
  auto prob = synth();
  SizingEnv env(prob, EnvConfig{});
  env.set_target({11.9, 4.2, 1.6});  // wants sum of params high
  env.reset();
  const double r0 = env.current_reward();
  env.step({2, 2, 2});
  const double r1 = env.current_reward();
  EXPECT_GT(r1, r0);
}

// ---- reward paths (Eq. 1 shaping vs sparse ablation, goal_bonus plumbing) --

TEST(SizingEnv, SparseRewardAblation) {
  EnvConfig config;
  config.eq1_shaping = false;
  SizingEnv env(synth(), config);
  env.set_target({11.9, 4.2, 1.05});  // not met at the centre
  env.reset();
  auto sr = env.step({1, 1, 1});
  EXPECT_NEAR(sr.reward, -1.0 / config.horizon, 1e-12);
}

TEST(SizingEnv, SparseRewardPaysExactlyTheBonusOnGoal) {
  EnvConfig config;
  config.eq1_shaping = false;
  config.goal_bonus = 7.5;  // non-default: pins the plumbing
  SizingEnv env(synth(), config);
  env.set_target({9.0, 6.0, 1.6});  // the centre already satisfies these
  env.reset();
  auto sr = env.step({1, 1, 1});
  ASSERT_TRUE(sr.goal_met);
  // Sparse path: no Eq. 1 shaping term, the terminal reward IS the bonus.
  EXPECT_DOUBLE_EQ(sr.reward, 7.5);
}

TEST(SizingEnv, Eq1RewardIsBonusPlusEq1OnGoal) {
  auto prob = synth();
  EnvConfig config;
  config.goal_bonus = 3.25;  // non-default
  SizingEnv env(prob, config);
  const circuits::SpecVector target{9.0, 6.0, 1.6};
  env.set_target(target);
  env.reset();
  auto sr = env.step({1, 1, 1});
  ASSERT_TRUE(sr.goal_met);
  // Terminal reward is the paper's "bonus + r" with the full Eq. 1 value
  // (whose unclamped minimize term rewards finishing below budget).
  EXPECT_DOUBLE_EQ(sr.reward,
                   3.25 + prob->reward_eq1(env.cur_specs(), target));
}

TEST(SizingEnv, Eq1NonTerminalRewardIsClampedViolationSum) {
  auto prob = synth();
  SizingEnv env(prob, EnvConfig{});
  const circuits::SpecVector target{11.5, 4.2, 1.1};  // not met
  env.set_target(target);
  env.reset();
  auto sr = env.step({1, 1, 1});
  ASSERT_FALSE(sr.goal_met);
  EXPECT_DOUBLE_EQ(sr.reward, prob->hard_violation(env.cur_specs(), target));
}

TEST(SizingEnv, SparseAndEq1PathsDifferOnlyInShaping) {
  // Same trajectory, two reward configs: goal step pays bonus(+eq1) in
  // both; non-goal steps pay the clamped violation vs the step penalty.
  auto prob = synth();
  EnvConfig eq1;
  EnvConfig sparse;
  sparse.eq1_shaping = false;
  SizingEnv env_a(prob, eq1), env_b(prob, sparse);
  const circuits::SpecVector target{11.5, 4.2, 1.1};
  env_a.set_target(target);
  env_b.set_target(target);
  env_a.reset();
  env_b.reset();
  for (int i = 0; i < 4; ++i) {
    auto ra = env_a.step({2, 2, 2});
    auto rb = env_b.step({2, 2, 2});
    ASSERT_EQ(ra.goal_met, rb.goal_met);  // reward shaping never moves state
    if (ra.goal_met) break;
    EXPECT_LE(ra.reward, 0.0);
    EXPECT_DOUBLE_EQ(rb.reward, -1.0 / sparse.horizon);
  }
}

TEST(SizingEnv, SimulationCounting) {
  SizingEnv env(synth(), EnvConfig{});
  env.reset();
  EXPECT_EQ(env.simulations(), 1);  // reset evaluates once
  env.step({1, 1, 1});
  env.step({1, 1, 1});
  EXPECT_EQ(env.simulations(), 3);
}

TEST(SizingEnv, FailedEvaluationsFallBackToFailSpecs) {
  auto prob = test_support::make_synthetic_problem();
  prob.set_evaluator([](const circuits::ParamVector&)
                         -> util::Expected<circuits::SpecVector> {
    return util::Error{"synthetic failure"};
  });
  SizingEnv env(
      std::make_shared<const circuits::SizingProblem>(std::move(prob)),
      EnvConfig{});
  env.reset();
  EXPECT_TRUE(env.last_eval_failed());
  EXPECT_EQ(env.cur_specs(), env.problem().fail_specs());
  // The episode still runs with punished specs instead of crashing.
  auto sr = env.step({1, 1, 1});
  EXPECT_LT(sr.reward, 0.0);
}

TEST(SizingEnv, DefaultTargetIsSpecSpaceMidpoint) {
  auto prob = synth();
  SizingEnv env(prob, EnvConfig{});
  // Derived from SpecSpace, not hand-rolled: bitwise equal by construction.
  EXPECT_EQ(env.target(), spec::SpecSpace(*prob).midpoint());
  for (std::size_t i = 0; i < prob->specs.size(); ++i) {
    EXPECT_NEAR(env.target()[i],
                0.5 * (prob->specs[i].sample_lo + prob->specs[i].sample_hi),
                1e-12);
  }
}

TEST(TargetSampling, WithinRanges) {
  auto prob = synth();
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto t = sample_target(*prob, rng);
    for (std::size_t s = 0; s < prob->specs.size(); ++s) {
      EXPECT_GE(t[s], prob->specs[s].sample_lo);
      EXPECT_LE(t[s], prob->specs[s].sample_hi);
    }
  }
}

TEST(TargetSampling, FiftyTrainingTargetsAreDistinct) {
  auto prob = synth();
  util::Rng rng(4);
  const auto targets = sample_targets(*prob, 50, rng);
  ASSERT_EQ(targets.size(), 50u);
  int duplicates = 0;
  for (std::size_t i = 1; i < targets.size(); ++i) {
    if (targets[i] == targets[i - 1]) ++duplicates;
  }
  EXPECT_EQ(duplicates, 0);
}

TEST(TargetSampling, DeterministicUnderSeed) {
  auto prob = synth();
  util::Rng a(9), b(9);
  EXPECT_EQ(sample_targets(*prob, 10, a), sample_targets(*prob, 10, b));
}

TEST(SizingEnv, EpisodesAreReproducible) {
  auto prob = synth();
  auto run = [&] {
    SizingEnv env(prob, EnvConfig{});
    env.set_target({10.5, 4.5, 1.2});
    std::vector<double> rewards;
    env.reset();
    for (int i = 0; i < 6; ++i) rewards.push_back(env.step({2, 0, 2}).reward);
    return rewards;
  };
  EXPECT_EQ(run(), run());
}
