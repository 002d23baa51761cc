// Tests for the evaluation-backend layer: decorator composition, cache
// hit/miss accounting, failure memoization, serial-vs-batch equivalence,
// corner fan-out parity with a serial reference loop, a multi-threaded
// cache smoke test, and exact replay of the counters of fixed-seed runs.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autockt/autockt.hpp"
#include "circuits/problems.hpp"
#include "circuits/sizing_problem.hpp"
#include "eval/backend.hpp"
#include "eval/cached_backend.hpp"
#include "eval/corner_backend.hpp"
#include "eval/function_backend.hpp"
#include "eval/thread_pool.hpp"
#include "eval/threaded_backend.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

using namespace autockt;
using eval::EvalResult;
using eval::ParamVector;
using eval::SpecVector;

namespace {

/// A counting evaluator: spec0 = sum of indices, spec1 = product-ish. Fails
/// (returns Error) whenever the first index is negative... which valid grid
/// points never are, so failures are injected via a magic value instead.
constexpr int kFailIndex = 666;

std::shared_ptr<eval::FunctionBackend> counting_backend(
    std::shared_ptr<std::atomic<long>> calls) {
  return std::make_shared<eval::FunctionBackend>(
      [calls](const ParamVector& p) -> EvalResult {
        calls->fetch_add(1);
        if (!p.empty() && p[0] == kFailIndex) {
          return util::Error{"injected failure", 7};
        }
        double sum = 0.0;
        for (int x : p) sum += static_cast<double>(x);
        return SpecVector{sum, sum * 0.5};
      },
      "counting");
}

/// Every EvalStats field except sim_seconds (wall time), by name: the
/// counters a fixed-seed serial run must reproduce exactly.
std::map<std::string, double> counter_fields(const eval::EvalStats& stats) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : stats.fields()) {
    if (std::string(name) != "sim_seconds") out[name] = value;
  }
  return out;
}

}  // namespace

TEST(EvalStats, MergeAndRates) {
  eval::EvalStats a;
  a.simulations = 10;
  a.cache_hits = 3;
  a.cache_misses = 7;
  a.batch_calls = 2;
  a.batch_points = 8;
  a.max_batch = 6;
  eval::EvalStats b;
  b.simulations = 5;
  b.max_batch = 4;
  eval::EvalStats c = a + b;
  EXPECT_EQ(c.simulations, 15);
  EXPECT_EQ(c.max_batch, 6);  // high-water mark, not a sum
  EXPECT_NEAR(c.cache_hit_rate(), 0.3, 1e-12);
  EXPECT_NEAR(c.mean_batch_size(), 4.0, 1e-12);

  eval::EvalStats delta = c.since(b);
  EXPECT_EQ(delta.simulations, 10);
}

TEST(EvalStats, PendingBatchGaugeTracksInFlightCalls) {
  // The leaf callable observes its own backend mid-batch: exactly one
  // evaluate_batch() must be pending from inside, zero once it returns.
  std::shared_ptr<eval::EvalBackend> backend;
  long seen_inside = -1;
  backend = std::make_shared<eval::FunctionBackend>(
      [&](const ParamVector&) -> EvalResult {
        seen_inside = backend->stats().pending_batches;
        return SpecVector{1.0};
      });
  EXPECT_EQ(backend->stats().pending_batches, 0);
  backend->evaluate_batch({{0}, {1}, {2}});
  EXPECT_EQ(seen_inside, 1);
  EXPECT_EQ(backend->stats().pending_batches, 0);
  // Single-point evaluate() is not a batch and does not touch the gauge.
  backend->evaluate({3});
  EXPECT_EQ(backend->stats().pending_batches, 0);
}

TEST(FunctionBackend, CountsSimulationsAndConvertsExceptions) {
  auto calls = std::make_shared<std::atomic<long>>(0);
  auto backend = counting_backend(calls);
  auto r = backend->evaluate({1, 2, 3});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value()[0], 6.0);
  EXPECT_EQ(backend->stats().simulations, 1);

  eval::FunctionBackend thrower(
      [](const ParamVector&) -> EvalResult {
        throw std::runtime_error("boom");
      },
      "thrower");
  auto bad = thrower.evaluate({0});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("boom"), std::string::npos);
}

TEST(EvalBackend, DefaultBatchMatchesSerial) {
  auto calls = std::make_shared<std::atomic<long>>(0);
  auto backend = counting_backend(calls);
  std::vector<ParamVector> points = {{1, 1}, {2, 2}, {3, 3}};
  auto batch = backend->evaluate_batch(points);
  ASSERT_EQ(batch.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto serial = backend->evaluate(points[i]);
    ASSERT_TRUE(batch[i].ok());
    EXPECT_EQ(batch[i].value(), serial.value());
  }
  const auto stats = backend->stats();
  EXPECT_EQ(stats.batch_calls, 1);
  EXPECT_EQ(stats.batch_points, 3);
  EXPECT_EQ(stats.max_batch, 3);
}

TEST(CachedBackend, HitMissAccounting) {
  auto calls = std::make_shared<std::atomic<long>>(0);
  auto cached =
      std::make_shared<eval::CachedBackend>(counting_backend(calls), 4);

  auto first = cached->evaluate({5, 5});
  auto second = cached->evaluate({5, 5});
  auto third = cached->evaluate({6, 6});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), second.value());
  ASSERT_TRUE(third.ok());

  const auto stats = cached->stats();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.simulations, 2);  // merged from the leaf
  EXPECT_EQ(calls->load(), 2);
  EXPECT_EQ(cached->size(), 2u);

  cached->reset_stats();
  EXPECT_EQ(cached->stats().cache_hits, 0);
  EXPECT_EQ(cached->stats().simulations, 0);
  // reset_stats clears telemetry, not memoized entries.
  EXPECT_EQ(cached->size(), 2u);
}

TEST(CachedBackend, FailuresAreMemoizedToo) {
  auto calls = std::make_shared<std::atomic<long>>(0);
  auto cached =
      std::make_shared<eval::CachedBackend>(counting_backend(calls), 4);

  auto first = cached->evaluate({kFailIndex});
  auto second = cached->evaluate({kFailIndex});
  ASSERT_FALSE(first.ok());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(first.error().code, 7);
  EXPECT_EQ(second.error().message, first.error().message);
  EXPECT_EQ(calls->load(), 1) << "the failing point must not re-simulate";
  EXPECT_EQ(cached->stats().cache_hits, 1);
}

TEST(CachedBackend, BatchDeduplicatesRepeatedPoints) {
  auto calls = std::make_shared<std::atomic<long>>(0);
  auto cached =
      std::make_shared<eval::CachedBackend>(counting_backend(calls), 4);

  std::vector<ParamVector> points = {{1}, {2}, {1}, {1}, {3}, {2}};
  auto batch = cached->evaluate_batch(points);
  ASSERT_EQ(batch.size(), 6u);
  EXPECT_EQ(calls->load(), 3) << "only unique points cost a simulation";
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(batch[i].ok());
    EXPECT_DOUBLE_EQ(batch[i].value()[0],
                     static_cast<double>(points[i][0]));
  }
  const auto stats = cached->stats();
  EXPECT_EQ(stats.cache_misses, 3);
  EXPECT_EQ(stats.cache_hits, 3);  // duplicates within the batch
}

TEST(ThreadPoolBackend, BatchMatchesSerialValues) {
  auto calls = std::make_shared<std::atomic<long>>(0);
  auto pool = std::make_shared<eval::ThreadPool>(4);
  auto threaded = std::make_shared<eval::ThreadPoolBackend>(
      counting_backend(calls), pool);

  std::vector<ParamVector> points;
  for (int i = 0; i < 64; ++i) points.push_back({i, i + 1});
  auto batch = threaded->evaluate_batch(points);
  ASSERT_EQ(batch.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(batch[i].ok());
    EXPECT_DOUBLE_EQ(batch[i].value()[0],
                     static_cast<double>(points[i][0] + points[i][1]));
  }
  EXPECT_EQ(calls->load(), 64);
  EXPECT_EQ(threaded->stats().max_batch, 64);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  auto pool = std::make_shared<eval::ThreadPool>(2);
  std::atomic<int> total{0};
  pool->parallel_for(8, [&](std::size_t) {
    pool->parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(CornerBackend, MatchesSerialReferenceLoop) {
  // Corner evaluator: scales the spec by (corner+1); worst case folds with
  // min for spec0 (GreaterEq-like) via the injected fold.
  auto corner_eval = [](std::size_t corner, const ParamVector& p,
                        eval::OpHint*) -> EvalResult {
    double sum = 0.0;
    for (int x : p) sum += static_cast<double>(x);
    const double scale = 1.0 + 0.1 * static_cast<double>(corner);
    return SpecVector{sum * scale, sum / scale};
  };
  auto fold = [](const std::vector<SpecVector>& corners) {
    SpecVector out = corners.front();
    for (const auto& c : corners) {
      out[0] = std::min(out[0], c[0]);
      out[1] = std::max(out[1], c[1]);
    }
    return out;
  };

  const std::size_t kCorners = 5;
  eval::CornerBackend parallel_backend(
      kCorners, corner_eval, fold, std::make_shared<eval::ThreadPool>(4));
  eval::CornerBackend serial_backend(kCorners, corner_eval, fold, nullptr);

  for (int trial = 0; trial < 10; ++trial) {
    ParamVector p = {trial, trial * 2, 3};
    auto a = parallel_backend.evaluate(p);
    auto b = serial_backend.evaluate(p);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value());
  }
  EXPECT_EQ(parallel_backend.stats().simulations,
            static_cast<long>(10 * kCorners));
}

TEST(CornerBackend, FirstFailingCornerWinsDeterministically) {
  // Corners 2 and 4 fail with distinct codes; the serial loop would surface
  // corner 2's error, so the parallel fan-out must as well.
  auto corner_eval = [](std::size_t corner, const ParamVector&,
                        eval::OpHint*) -> EvalResult {
    if (corner == 2) return util::Error{"corner 2 failed", 2};
    if (corner == 4) return util::Error{"corner 4 failed", 4};
    return SpecVector{1.0};
  };
  auto fold = [](const std::vector<SpecVector>& corners) {
    return corners.front();
  };
  eval::CornerBackend backend(6, corner_eval, fold,
                              std::make_shared<eval::ThreadPool>(4));
  for (int trial = 0; trial < 20; ++trial) {
    auto r = backend.evaluate({trial});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, 2);
  }
}

TEST(CachedBackend, MultiThreadedSmoke) {
  auto calls = std::make_shared<std::atomic<long>>(0);
  auto cached =
      std::make_shared<eval::CachedBackend>(counting_backend(calls), 8);

  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  std::atomic<bool> mismatch{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Overlapping key space across threads forces hit/miss races.
        ParamVector p = {(t + i) % 16, i % 7};
        auto r = cached->evaluate(p);
        const double expect = static_cast<double>((t + i) % 16 + i % 7);
        if (!r.ok() || r.value()[0] != expect) mismatch.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
  const auto stats = cached->stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            static_cast<long>(kThreads * kIters));
  // At most one simulation per (possibly racing) miss, and no more misses
  // than the number of distinct keys times the worst-case race factor.
  EXPECT_EQ(stats.simulations, calls->load());
  EXPECT_GE(stats.cache_hits, static_cast<long>(kThreads * kIters) -
                                  stats.cache_misses);
}

TEST(SizingProblem, NullBackendYieldsErrorNotCrash) {
  circuits::SizingProblem prob;
  prob.name = "empty";
  auto r = prob.evaluate({1, 2});
  ASSERT_FALSE(r.ok());
  auto batch = prob.evaluate_batch({{1}, {2}});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch[0].ok());
  EXPECT_EQ(prob.eval_stats().simulations, 0);
}

TEST(SizingProblem, SetEvaluatorShimRoundTrips) {
  auto prob = test_support::make_synthetic_problem();
  ASSERT_TRUE(prob.backend != nullptr);
  auto serial = prob.evaluate(prob.center_params());
  ASSERT_TRUE(serial.ok());
  auto batch = prob.evaluate_batch({prob.center_params()});
  ASSERT_TRUE(batch[0].ok());
  EXPECT_EQ(batch[0].value(), serial.value());
}

TEST(Problems, PexCornerBackendMatchesSerialLoop) {
  // The acceptance check: the parallel CornerBackend PEX evaluation equals
  // the serial corner loop, point by point.
  circuits::ProblemOptions parallel_opts;
  circuits::ProblemOptions serial_opts;
  serial_opts.cache = false;
  serial_opts.parallel_batch = false;
  serial_opts.parallel_corners = false;
  auto parallel_prob = circuits::make_ngm_pex_problem(parallel_opts);
  auto serial_prob = circuits::make_ngm_pex_problem(serial_opts);

  util::Rng rng(1234);
  std::vector<circuits::ParamVector> points;
  points.push_back(parallel_prob.center_params());
  for (int i = 0; i < 4; ++i) {
    circuits::ParamVector p;
    for (const auto& def : parallel_prob.params) {
      p.push_back(static_cast<int>(
          rng.bounded(static_cast<std::uint64_t>(def.grid_size()))));
    }
    points.push_back(std::move(p));
  }

  for (const auto& p : points) {
    auto a = parallel_prob.evaluate(p);
    auto b = serial_prob.evaluate(p);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      ASSERT_EQ(a.value().size(), b.value().size());
      for (std::size_t s = 0; s < a.value().size(); ++s) {
        EXPECT_DOUBLE_EQ(a.value()[s], b.value()[s]);
      }
    } else {
      EXPECT_EQ(a.error().message, b.error().message);
    }
  }
  EXPECT_GT(parallel_prob.eval_stats().simulations, 0);
}

/// Pin the stat-dump surface: fields() must name every public EvalStats
/// field (in declaration order) and summary() must print every one of
/// them. A new field that is added to the struct but forgotten in fields()
/// — and therefore missing from trainer/deploy dumps and the
/// OBSERVABILITY.md glossary — fails here.
TEST(EvalStats, FieldsAndSummaryNameEveryPublicField) {
  const std::vector<std::string> expected = {
      "simulations",
      "cache_hits",
      "cache_misses",
      "batch_calls",
      "batch_points",
      "max_batch",
      "pending_batches",
      "sim_seconds",
      "newton_iterations",
      "symbolic_factorizations",
      "numeric_factorizations",
      "dense_fallbacks",
      "warm_start_attempts",
      "warm_start_hits",
      "batch_refactorizations",
      "batch_lanes",
      "batch_lane_fallbacks",
      "disk_hits",
      "disk_appends",
      "worker_dispatches",
      "worker_retries",
      "worker_restarts",
  };
  const eval::EvalStats stats;
  const auto fields = stats.fields();
  ASSERT_EQ(fields.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fields[i].first, expected[i]) << "fields()[" << i << "]";
  }
  const std::string summary = stats.summary();
  for (const auto& name : expected) {
    EXPECT_NE(summary.find(name + "="), std::string::npos)
        << "summary() does not print " << name;
  }
  // The derived ratios ride along in every dump.
  EXPECT_NE(summary.find("cache_hit_rate="), std::string::npos);
  EXPECT_NE(summary.find("warm_start_hit_rate="), std::string::npos);
}

TEST(EvalStats, FieldsReflectValues) {
  eval::EvalStats stats;
  stats.simulations = 7;
  stats.pending_batches = 2;
  stats.dense_fallbacks = 3;
  stats.warm_start_attempts = 5;
  stats.sim_seconds = 1.5;
  std::map<std::string, double> by_name;
  for (const auto& [name, value] : stats.fields()) by_name[name] = value;
  EXPECT_DOUBLE_EQ(by_name["simulations"], 7.0);
  EXPECT_DOUBLE_EQ(by_name["pending_batches"], 2.0);
  EXPECT_DOUBLE_EQ(by_name["dense_fallbacks"], 3.0);
  EXPECT_DOUBLE_EQ(by_name["warm_start_attempts"], 5.0);
  EXPECT_DOUBLE_EQ(by_name["sim_seconds"], 1.5);
}

/// A revisit pattern through the factory-default (cached) TIA stack: five
/// evaluations of two distinct points are two misses and three hits, on
/// every replay.
TEST(Problems, TiaRevisitCacheCountersAreExact) {
  const auto run = [] {
    const auto prob = circuits::make_tia_problem();
    prob.reset_eval_stats();  // the kernel counters are process-wide
    const auto center = prob.center_params();
    auto neighbor = center;
    neighbor[0] += 1;
    for (const int pick : {0, 1, 0, 0, 1}) {
      EXPECT_TRUE(prob.evaluate(pick == 0 ? center : neighbor).ok());
    }
    return prob.eval_stats();
  };
  run();  // builds this thread's TIA workspace (one-off symbolic work)
  const eval::EvalStats first = run();
  EXPECT_EQ(first.cache_hits, 3);
  EXPECT_EQ(first.cache_misses, 2);
  EXPECT_EQ(first.simulations, 2);
  EXPECT_EQ(counter_fields(first), counter_fields(run()));
}

/// A short fixed-seed synthetic PPO run with inline collection
/// (num_workers=1) does the same evaluation work and reaches the same goal
/// rates every time it is replayed.
TEST(EvalStats, FixedSeedTrainingCountersAreReproducible) {
  const auto run = [] {
    auto problem = std::make_shared<const circuits::SizingProblem>(
        test_support::make_synthetic_problem(3, 21));
    core::AutoCktConfig config;
    config.seed = 7;
    config.env_config.horizon = 12;
    config.train_target_count = 12;
    config.ppo.max_iterations = 3;
    config.ppo.steps_per_iteration = 300;
    config.ppo.num_workers = 1;
    config.holdout_target_count = 8;
    config.holdout_interval = 2;
    return core::train_agent(problem, config).history;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_GT(first.eval_stats.simulations, 0);
  EXPECT_EQ(counter_fields(first.eval_stats),
            counter_fields(second.eval_stats));
  ASSERT_EQ(first.iterations.size(), second.iterations.size());
  for (std::size_t i = 0; i < first.iterations.size(); ++i) {
    EXPECT_EQ(first.iterations[i].goal_rate, second.iterations[i].goal_rate)
        << "iteration " << i;
  }
  EXPECT_EQ(first.final_holdout_goal_rate, second.final_holdout_goal_rate);
}
