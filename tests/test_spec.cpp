// Spec-scenario subsystem tests: SpecSpace validation and region geometry,
// the three samplers' determinism/coverage/bias contracts (including the
// bitwise-compatibility of UniformSampler with the historical
// env::sample_target stream), and SpecSuite generation and prefixes.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "env/sizing_env.hpp"
#include "spec/spec_space.hpp"
#include "spec/spec_suite.hpp"
#include "spec/target_sampler.hpp"
#include "test_helpers.hpp"

using namespace autockt;
using circuits::SpecDef;
using circuits::SpecSense;
using circuits::SpecVector;

namespace {

std::vector<SpecDef> good_specs() {
  return {
      {"gain", SpecSense::GreaterEq, 200.0, 400.0, 300.0, 0.0},
      {"noise", SpecSense::LessEq, 1e-4, 3e-4, 2e-4, 1.0},
      {"power", SpecSense::Minimize, 0.1, 0.5, 0.3, 1.0},
  };
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

// ---- SpecSpace validation (satellite: harden SpecDef) -----------------------

TEST(SpecSpace, AcceptsValidSpecs) {
  EXPECT_NO_THROW(spec::SpecSpace{good_specs()});
}

TEST(SpecSpace, RejectsInvertedSamplingRange) {
  auto specs = good_specs();
  specs[1].sample_lo = 5.0;
  specs[1].sample_hi = 1.0;
  try {
    spec::SpecSpace space(specs);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error names the offending spec.
    EXPECT_NE(std::string(e.what()).find("noise"), std::string::npos);
  }
}

TEST(SpecSpace, RejectsNonPositiveNormConst) {
  auto specs = good_specs();
  specs[0].norm_const = 0.0;
  EXPECT_THROW(spec::SpecSpace{specs}, std::invalid_argument);
  specs[0].norm_const = -2.0;
  EXPECT_THROW(spec::SpecSpace{specs}, std::invalid_argument);
}

TEST(SpecSpace, RejectsNaNBounds) {
  auto specs = good_specs();
  specs[2].sample_lo = kNaN;
  EXPECT_THROW(spec::SpecSpace{specs}, std::invalid_argument);
  specs = good_specs();
  specs[2].sample_hi = kNaN;
  EXPECT_THROW(spec::SpecSpace{specs}, std::invalid_argument);
  specs = good_specs();
  specs[0].norm_const = kNaN;
  EXPECT_THROW(spec::SpecSpace{specs}, std::invalid_argument);
}

TEST(SpecSpace, RejectsEmpty) {
  EXPECT_THROW(spec::SpecSpace(std::vector<SpecDef>{}),
               std::invalid_argument);
}

TEST(SpecDef, ValidateNamesTheSpec) {
  SpecDef bad{"ugbw_hz", SpecSense::GreaterEq, 10.0, 5.0, 1.0, 0.0};
  try {
    bad.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ugbw_hz"), std::string::npos);
  }
}

TEST(SizingProblem, ValidateNamesProblemAndSpec) {
  auto prob = test_support::make_synthetic_problem();
  prob.specs[1].norm_const = -1.0;
  try {
    prob.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("synthetic"), std::string::npos);
    EXPECT_NE(what.find("diff"), std::string::npos);
  }
}

TEST(SizingEnv, ConstructionRejectsInvalidSpecs) {
  auto prob = test_support::make_synthetic_problem();
  prob.specs[0].sample_hi = prob.specs[0].sample_lo - 1.0;
  EXPECT_THROW(
      env::SizingEnv(
          std::make_shared<const circuits::SizingProblem>(std::move(prob)),
          env::EnvConfig{}),
      std::invalid_argument);
}

// ---- SpecSpace geometry -----------------------------------------------------

TEST(SpecSpace, MidpointAndContains) {
  spec::SpecSpace space(good_specs());
  const SpecVector mid = space.midpoint();
  ASSERT_EQ(mid.size(), 3u);
  EXPECT_DOUBLE_EQ(mid[0], 300.0);
  EXPECT_DOUBLE_EQ(mid[1], 2e-4);
  EXPECT_TRUE(space.contains(mid));
  EXPECT_FALSE(space.contains({500.0, 2e-4, 0.3}));   // gain above range
  EXPECT_FALSE(space.contains({300.0, 2e-4}));        // arity
}

TEST(SpecSpace, RegionIndexingRoundTrips) {
  spec::SpecSpace space(good_specs());
  const int bins = 3;
  EXPECT_EQ(space.num_regions(bins), 27);
  std::set<int> seen;
  util::Rng rng(11);
  spec::UniformSampler sampler(space);
  for (int i = 0; i < 500; ++i) {
    const int r = space.region_of(sampler.sample(rng), bins);
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 27);
    seen.insert(r);
  }
  EXPECT_EQ(static_cast<int>(seen.size()), 27);  // uniform hits all cells
  // Region bounds contain what maps to them.
  for (int r = 0; r < 27; ++r) {
    SpecVector probe;
    for (std::size_t i = 0; i < space.size(); ++i) {
      const auto [lo, hi] = space.region_axis_bounds(r, i, bins);
      probe.push_back(0.5 * (lo + hi));
    }
    EXPECT_EQ(space.region_of(probe, bins), r);
  }
}

TEST(SpecSpace, DegenerateAxisCollapsesToOneBin) {
  auto specs = good_specs();
  specs[1].sample_lo = specs[1].sample_hi = 2e-4;  // pinned (PEX-style)
  spec::SpecSpace space(specs);
  EXPECT_EQ(space.axis_bins(1, 3), 1);
  EXPECT_EQ(space.num_regions(3), 9);
  const std::string name = space.region_name(0, 3);
  EXPECT_NE(name.find("noise[0/1]"), std::string::npos);
}

// ---- UniformSampler: bitwise-compatible with the historical stream ----------

TEST(UniformSampler, MatchesHistoricalSampleTargetBitwise) {
  const auto prob = test_support::make_synthetic_problem();
  spec::UniformSampler sampler{spec::SpecSpace(prob)};
  util::Rng a(97), b(97);
  for (int i = 0; i < 100; ++i) {
    // The historical stream: one rng.uniform(lo, hi) per spec, in order.
    SpecVector expected;
    for (const auto& s : prob.specs) {
      expected.push_back(b.uniform(s.sample_lo, s.sample_hi));
    }
    EXPECT_EQ(sampler.sample(a), expected);  // bitwise
  }
}

TEST(UniformSampler, MatchesEnvSampleTargetsBitwise) {
  const auto prob = test_support::make_synthetic_problem();
  util::Rng a(5), b(5);
  spec::UniformSampler sampler{spec::SpecSpace(prob)};
  const auto via_env = env::sample_targets(prob, 20, a);
  for (const auto& expected : via_env) {
    EXPECT_EQ(sampler.sample(b), expected);
  }
}

// ---- sampler determinism ----------------------------------------------------

TEST(TargetSamplers, DeterministicUnderSeedAllThree) {
  spec::SpecSpace space(good_specs());
  auto stream = [&](spec::TargetSampler& sampler, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<SpecVector> out;
    for (int i = 0; i < 60; ++i) out.push_back(sampler.sample(rng));
    return out;
  };
  spec::UniformSampler u1(space), u2(space);
  EXPECT_EQ(stream(u1, 3), stream(u2, 3));
  spec::StratifiedSampler s1(space, 8), s2(space, 8);
  EXPECT_EQ(stream(s1, 4), stream(s2, 4));
  spec::CurriculumSampler c1(space), c2(space);
  EXPECT_EQ(stream(c1, 5), stream(c2, 5));
  // Different seeds genuinely differ.
  spec::UniformSampler u3(space);
  EXPECT_NE(stream(u3, 6), stream(u1, 3));
}

TEST(CurriculumSampler, DeterministicReplayWithOutcomes) {
  spec::SpecSpace space(good_specs());
  auto run = [&] {
    spec::CurriculumSampler sampler(space);
    util::Rng rng(21);
    std::vector<SpecVector> drawn;
    for (int i = 0; i < 200; ++i) {
      auto t = sampler.sample(rng);
      // Deterministic synthetic outcome: "solve" the low-gain half.
      sampler.record_outcome(t, t[0] < 300.0);
      drawn.push_back(std::move(t));
    }
    return drawn;
  };
  EXPECT_EQ(run(), run());
}

// ---- StratifiedSampler coverage --------------------------------------------

TEST(StratifiedSampler, OneCycleCoversEveryStratumOfEveryAxis) {
  spec::SpecSpace space(good_specs());
  const int strata = 10;
  spec::StratifiedSampler sampler(space, strata);
  util::Rng rng(7);
  std::vector<std::set<int>> hit(space.size());
  for (int k = 0; k < strata; ++k) {
    const SpecVector t = sampler.sample(rng);
    for (std::size_t i = 0; i < space.size(); ++i) {
      const double frac = (t[i] - space.lo(i)) / space.width(i);
      hit[i].insert(static_cast<int>(frac * strata));
    }
  }
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(static_cast<int>(hit[i].size()), strata)
        << "axis " << i << " not fully covered";
  }
}

TEST(StratifiedSampler, HandlesDegenerateAxis) {
  auto specs = good_specs();
  specs[0].sample_lo = specs[0].sample_hi = 250.0;
  spec::StratifiedSampler sampler(spec::SpecSpace(specs), 4);
  util::Rng rng(9);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(sampler.sample(rng)[0], 250.0);
  }
}

TEST(StratifiedSampler, IsDeclaredSequential) {
  spec::SpecSpace space(good_specs());
  spec::StratifiedSampler stratified(space, 4);
  spec::UniformSampler uniform(space);
  spec::CurriculumSampler curriculum(space);
  EXPECT_FALSE(stratified.concurrent_sampling_safe());
  EXPECT_TRUE(uniform.concurrent_sampling_safe());
  EXPECT_TRUE(curriculum.concurrent_sampling_safe());
}

// ---- CurriculumSampler bias -------------------------------------------------

TEST(CurriculumSampler, BiasesTowardTheFrontier) {
  spec::SpecSpace space(good_specs());
  spec::CurriculumConfig config;
  config.bins_per_axis = 2;  // 8 regions
  spec::CurriculumSampler sampler(space, config);

  // Region 0: mastered (all successes). Region 7: frontier (alternating).
  SpecVector in0, in7;
  for (std::size_t i = 0; i < space.size(); ++i) {
    in0.push_back(space.lo(i) + 0.1 * space.width(i));
    in7.push_back(space.lo(i) + 0.9 * space.width(i));
  }
  const int r0 = space.region_of(in0, 2);
  const int r7 = space.region_of(in7, 2);
  for (int i = 0; i < 50; ++i) {
    sampler.record_outcome(in0, true);
    sampler.record_outcome(in7, (i % 2) == 0);
  }
  EXPECT_GT(sampler.region_success(r0), 0.95);
  EXPECT_GT(sampler.region_weight(r7), 2.0 * sampler.region_weight(r0));

  // Empirically: frontier region drawn more often than the mastered one.
  util::Rng rng(31);
  int n0 = 0, n7 = 0;
  for (int i = 0; i < 4000; ++i) {
    const int r = space.region_of(sampler.sample(rng), 2);
    n0 += r == r0 ? 1 : 0;
    n7 += r == r7 ? 1 : 0;
  }
  EXPECT_GT(n7, 2 * n0);
}

TEST(CurriculumSampler, UnseenRegionsKeepThePrior) {
  spec::SpecSpace space(good_specs());
  spec::CurriculumSampler sampler(space, {});
  EXPECT_DOUBLE_EQ(sampler.region_success(0), 0.5);
  EXPECT_EQ(sampler.outcomes_recorded(), 0);
  // First outcome replaces the prior outright.
  SpecVector t = space.midpoint();
  sampler.record_outcome(t, false);
  EXPECT_DOUBLE_EQ(
      sampler.region_success(space.region_of(t, sampler.config().bins_per_axis)),
      0.0);
}

TEST(CurriculumSampler, SamplesStayInsideTheBox) {
  spec::SpecSpace space(good_specs());
  spec::CurriculumSampler sampler(space, {});
  util::Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(space.contains(sampler.sample(rng)));
  }
}

// ---- SuiteSampler -----------------------------------------------------------

TEST(SuiteSampler, MatchesHistoricalBoundedPickBitwise) {
  const auto prob = test_support::make_synthetic_problem();
  util::Rng seed_rng(3);
  const auto targets = env::sample_targets(prob, 12, seed_rng);
  spec::SuiteSampler sampler(targets);
  util::Rng a(8), b(8);
  for (int i = 0; i < 50; ++i) {
    // Historical stream in rl/ppo.cpp: targets[rng.bounded(size)].
    EXPECT_EQ(sampler.sample(a), targets[b.bounded(targets.size())]);
  }
}

TEST(SuiteSampler, RejectsEmpty) {
  EXPECT_THROW(spec::SuiteSampler(std::vector<SpecVector>{}),
               std::invalid_argument);
}

// ---- SpecSuite --------------------------------------------------------------

TEST(SpecSuite, GenerateIsDeterministicFromSuiteSeed) {
  spec::SpecSpace space(good_specs());
  spec::UniformSampler s1(space), s2(space);
  const auto a = spec::SpecSuite::generate(space, s1, 30, 0xa11ce, "suite");
  const auto b = spec::SpecSuite::generate(space, s2, 30, 0xa11ce, "suite");
  EXPECT_EQ(a, b);
  spec::UniformSampler s3(space);
  const auto c = spec::SpecSuite::generate(space, s3, 30, 0xa11cf, "suite");
  EXPECT_NE(a.targets(), c.targets());
}

TEST(SpecSuite, HeadPrefix) {
  spec::SpecSpace space(good_specs());
  spec::UniformSampler sampler(space);
  const auto suite = spec::SpecSuite::generate(space, sampler, 10, 2, "s");
  const auto head = suite.head(4);
  ASSERT_EQ(head.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(head[i], suite[i]);
  EXPECT_EQ(suite.head(99).size(), 10u);
  EXPECT_EQ(suite.head(99).name(), "s");  // full prefix keeps the name
}

TEST(SpecSuite, ConstructorRejectsArityMismatch) {
  EXPECT_THROW(spec::SpecSuite("bad", {"a", "b"}, {{1.0}}),
               std::invalid_argument);
}
