#pragma once
// The deploy loop: a frozen PpoAgent rolls a target list out through one
// VectorSizingEnv, refilling finished lanes from the target queue. It is the
// one greedy rollout of the env/rl layer — core::deploy_agent wraps it with
// telemetry, and PpoAgent::train's holdout probe calls it directly.

#include <cstdint>
#include <memory>
#include <vector>

#include "circuits/sizing_problem.hpp"
#include "env/sizing_env.hpp"
#include "rl/ppo.hpp"

namespace autockt::rl {

struct DeployRecord {
  circuits::SpecVector target;
  circuits::SpecVector final_specs;
  int steps = 0;        // simulation steps consumed (paper's SE metric)
  bool reached = false;
  circuits::ParamVector final_params;
};

/// Roll every target out with `agent`; returns one record per target, in
/// target order. With `stochastic` false the first attempt is greedy and
/// stops early at a policy fixed point; if it fails, up to
/// `stochastic_retries` sampled-policy episodes follow, and every attempt's
/// steps are charged to the target.
///
/// Targets run through up to `lanes` lockstep lanes: one batched policy
/// forward per action kind and one evaluate_batch() per tick. Each target's
/// RNG stream derives from (seed, target index) only, so records are
/// identical for any lane count.
std::vector<DeployRecord> deploy_targets(
    const PpoAgent& agent,
    std::shared_ptr<const circuits::SizingProblem> problem,
    const std::vector<circuits::SpecVector>& targets,
    const env::EnvConfig& env_config, bool stochastic = false,
    std::uint64_t seed = 99, int stochastic_retries = 1, int lanes = 16);

}  // namespace autockt::rl
