#pragma once
// Shared experiment scaffolding for the bench binaries: GA baseline
// aggregation over many targets, the paper-cost sim-time model, and uniform
// paper-vs-measured reporting.

#include <string>
#include <vector>

#include "autockt/autockt.hpp"
#include "baselines/genetic.hpp"
#include "circuits/sizing_problem.hpp"
#include "spec/spec_suite.hpp"

namespace autockt::core {

/// Aggregate GA performance over a set of targets, using the paper's
/// protocol: each population size in `population_sizes` is scored over the
/// whole target set, and the best-scoring size is kept (tuned once,
/// globally, not per target).
struct GaAggregate {
  int targets = 0;
  int reached = 0;
  double avg_evals_to_reach = 0.0;  // over reached targets
};
GaAggregate run_ga_over_targets(
    const circuits::SizingProblem& problem,
    const std::vector<circuits::SpecVector>& targets,
    const baselines::GaConfig& base, const std::vector<int>& population_sizes);
GaAggregate run_ga_over_suite(const circuits::SizingProblem& problem,
                              const spec::SpecSuite& suite,
                              const baselines::GaConfig& base,
                              const std::vector<int>& population_sizes);

/// Random-walk agent aggregate (Tables II-III "Random RL Agent" row).
struct RandomAggregate {
  int targets = 0;
  int reached = 0;
};
RandomAggregate run_random_over_targets(
    std::shared_ptr<const circuits::SizingProblem> problem,
    const std::vector<circuits::SpecVector>& targets,
    const env::EnvConfig& env_config, std::uint64_t seed);
RandomAggregate run_random_over_suite(
    std::shared_ptr<const circuits::SizingProblem> problem,
    const spec::SpecSuite& suite, const env::EnvConfig& env_config,
    std::uint64_t seed);

/// The shared deployment suite of a bench/experiment: every method (RL
/// deployment, GA, GA+ML, random agent) scores against the SAME named
/// target set, generated by uniform sampling from `suite_seed` alone.
/// `count` targets, named "<problem>/deploy". For a fixed (problem, count,
/// suite_seed) the suite is identical across binaries and processes — the
/// apples-to-apples contract the paper's tables depend on.
spec::SpecSuite make_deploy_suite(const circuits::SizingProblem& problem,
                                  std::size_t count,
                                  std::uint64_t suite_seed);

/// Sim-count -> wall-clock conversion using the per-simulation costs the
/// paper reports for its own infrastructure (25 ms schematic PTM, 2.4 s
/// Spectre, 91 s BAG PEX). Lets us compare "hours" claims without owning
/// the authors' testbed.
double paper_equivalent_hours(double simulations, double seconds_per_sim);

/// Uniform experiment banner.
void print_experiment_header(const std::string& id, const std::string& title,
                             const circuits::SizingProblem& problem);

/// Ratio formatted as "N.Nx" with n/a handling.
std::string speedup_string(double baseline, double ours);

}  // namespace autockt::core
