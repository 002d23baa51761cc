#include "baselines/genetic.hpp"

#include <algorithm>

#include "baselines/batch_eval.hpp"

namespace autockt::baselines {

using circuits::ParamVector;
using circuits::SizingProblem;
using circuits::SpecVector;
using detail::Individual;

namespace {

ParamVector random_individual(const SizingProblem& problem, util::Rng& rng) {
  ParamVector genes;
  genes.reserve(problem.params.size());
  for (const auto& def : problem.params) {
    genes.push_back(static_cast<int>(
        rng.bounded(static_cast<std::uint64_t>(def.grid_size()))));
  }
  return genes;
}

void mutate(const SizingProblem& problem, const GaConfig& config,
            ParamVector& genes, util::Rng& rng) {
  for (std::size_t i = 0; i < genes.size(); ++i) {
    if (!rng.bernoulli(config.mutation_prob)) continue;
    const int hi = problem.params[i].grid_size() - 1;
    if (rng.bernoulli(config.local_jitter_prob)) {
      const int jitter = static_cast<int>(rng.uniform_int(1, 3)) *
                         (rng.bernoulli(0.5) ? 1 : -1);
      genes[i] = std::clamp(genes[i] + jitter, 0, hi);
    } else {
      genes[i] =
          static_cast<int>(rng.bounded(static_cast<std::uint64_t>(hi + 1)));
    }
  }
}

}  // namespace

GaResult run_ga(const SizingProblem& problem, const SpecVector& target,
                const GaConfig& config) {
  util::Rng rng(config.seed);
  GaResult result;
  detail::SerialProtocolEvaluator evaluator(problem, target, config.max_evals,
                                            result);

  std::vector<Individual> population(
      static_cast<std::size_t>(config.population));
  for (auto& ind : population) ind.genes = random_individual(problem, rng);
  // Cap at the eval budget: the serial loop would stop there too.
  const std::size_t init_count =
      std::min(population.size(),
               static_cast<std::size_t>(evaluator.remaining_budget()));
  if (evaluator.evaluate_group(population, init_count)) return result;

  auto tournament_pick = [&]() -> const Individual& {
    const Individual* best = nullptr;
    for (int k = 0; k < config.tournament; ++k) {
      const Individual& cand = population[rng.bounded(population.size())];
      if (best == nullptr || cand.fitness > best->fitness) best = &cand;
    }
    return *best;
  };

  while (result.total_evals < config.max_evals) {
    std::vector<Individual> next;
    next.reserve(population.size());

    // Elitism.
    std::vector<std::size_t> order(population.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return population[a].fitness > population[b].fitness;
    });
    for (int e = 0; e < config.elite && e < static_cast<int>(order.size());
         ++e) {
      next.push_back(population[order[static_cast<std::size_t>(e)]]);
    }

    // Breed the whole generation first (the RNG draw order matches the
    // one-at-a-time loop — evaluation consumes no randomness), then
    // simulate it as one population-sized batch.
    std::vector<Individual> children;
    const std::size_t want =
        std::min(population.size() - next.size(),
                 static_cast<std::size_t>(evaluator.remaining_budget()));
    children.reserve(want);
    while (children.size() < want) {
      Individual child;
      const Individual& pa = tournament_pick();
      const Individual& pb = tournament_pick();
      child.genes = pa.genes;
      if (rng.bernoulli(config.crossover_prob)) {
        for (std::size_t i = 0; i < child.genes.size(); ++i) {
          if (rng.bernoulli(0.5)) child.genes[i] = pb.genes[i];
        }
      }
      mutate(problem, config, child.genes, rng);
      children.push_back(std::move(child));
    }
    // A goal hit or an exhausted budget ends the run inside the batch —
    // mid-generation, exactly like the serial loop. Otherwise the
    // generation is complete and next is full.
    if (evaluator.evaluate_group(children, children.size())) return result;
    for (auto& child : children) next.push_back(std::move(child));
    population.swap(next);
  }
  return result;
}

}  // namespace autockt::baselines
