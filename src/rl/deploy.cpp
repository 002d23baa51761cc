#include "rl/deploy.hpp"

#include <algorithm>
#include <utility>

#include "env/vector_env.hpp"

namespace autockt::rl {

namespace {

/// Per-lane deployment state while its target rolls out.
struct DeployLane {
  int target_idx = -1;    // index into the target list; -1 when idle
  int attempts_left = 0;  // sampled retries remaining after this attempt
  bool sample = false;    // this attempt samples instead of acting greedily
  circuits::ParamVector prev_params;  // greedy fixed-point detection
};

}  // namespace

std::vector<DeployRecord> deploy_targets(
    const PpoAgent& agent,
    std::shared_ptr<const circuits::SizingProblem> problem,
    const std::vector<circuits::SpecVector>& targets,
    const env::EnvConfig& env_config, bool stochastic, std::uint64_t seed,
    int stochastic_retries, int lanes) {
  std::vector<DeployRecord> records(targets.size());
  if (targets.empty()) return records;

  const int L = std::max(
      1, std::min(lanes, static_cast<int>(targets.size())));
  env::VectorSizingEnv venv(std::move(problem), env_config, L);
  std::vector<DeployLane> lane_state(static_cast<std::size_t>(L));
  std::vector<std::vector<double>> obs(static_cast<std::size_t>(L));

  std::size_t next_target = 0;
  // Hand the next queued target to lane i; false when the queue is dry
  // (the lane then stays halted and is skipped by every later tick).
  auto assign = [&](int i) {
    if (next_target >= targets.size()) {
      lane_state[static_cast<std::size_t>(i)].target_idx = -1;
      return false;
    }
    const std::size_t t = next_target++;
    lane_state[static_cast<std::size_t>(i)] =
        DeployLane{static_cast<int>(t), stochastic_retries, stochastic, {}};
    venv.set_target(i, targets[t]);
    // Per-target stream: a function of (seed, target index) only, so
    // deployment records do not depend on the lane count.
    venv.seed_lane(i, util::stream_seed(seed, t));
    records[t].target = targets[t];
    return true;
  };

  std::vector<int> to_reset;
  for (int i = 0; i < L; ++i) {
    if (assign(i)) to_reset.push_back(i);
  }
  {
    auto fresh = venv.reset_lanes(to_reset);
    for (std::size_t k = 0; k < to_reset.size(); ++k) {
      obs[static_cast<std::size_t>(to_reset[k])] = std::move(fresh[k]);
    }
  }

  // Lockstep rollout: each tick batches the greedy lanes into one policy
  // forward, the sampled lanes into another, and every pending circuit
  // point into one evaluate_batch(). Finished lanes pull the next target
  // (or a sampled retry of the same one); their resets batch too.
  std::vector<std::vector<int>> actions(static_cast<std::size_t>(L));
  std::vector<int> greedy_lanes, sample_lanes;
  std::vector<double> greedy_rows, sample_rows;
  std::vector<util::Rng*> sample_rngs;
  const int num_params = venv.num_params();

  while (venv.running_count() > 0) {
    greedy_lanes.clear();
    sample_lanes.clear();
    greedy_rows.clear();
    sample_rows.clear();
    sample_rngs.clear();
    for (int i = 0; i < L; ++i) {
      if (!venv.lane_running(i)) continue;
      DeployLane& st = lane_state[static_cast<std::size_t>(i)];
      st.prev_params = venv.lane(i).params();
      const auto& o = obs[static_cast<std::size_t>(i)];
      if (st.sample) {
        sample_lanes.push_back(i);
        sample_rows.insert(sample_rows.end(), o.begin(), o.end());
        sample_rngs.push_back(&venv.lane_rng(i));
      } else {
        greedy_lanes.push_back(i);
        greedy_rows.insert(greedy_rows.end(), o.begin(), o.end());
      }
    }
    auto scatter = [&](const std::vector<int>& lanes_in,
                       const std::vector<int>& acts) {
      for (std::size_t k = 0; k < lanes_in.size(); ++k) {
        actions[static_cast<std::size_t>(lanes_in[k])].assign(
            acts.begin() + static_cast<std::size_t>(k) *
                               static_cast<std::size_t>(num_params),
            acts.begin() + static_cast<std::size_t>(k + 1) *
                               static_cast<std::size_t>(num_params));
      }
    };
    if (!greedy_lanes.empty()) {
      scatter(greedy_lanes,
              agent.act_greedy_batch(greedy_rows,
                                     static_cast<int>(greedy_lanes.size())));
    }
    if (!sample_lanes.empty()) {
      scatter(sample_lanes,
              agent.act_sample_batch(sample_rows,
                                     static_cast<int>(sample_lanes.size()),
                                     sample_rngs));
    }

    const auto results =
        venv.step_all(actions, [](int) { return false; });

    to_reset.clear();
    for (int i = 0; i < L; ++i) {
      const auto& ls = results[static_cast<std::size_t>(i)];
      if (!ls.stepped) continue;
      DeployLane& st = lane_state[static_cast<std::size_t>(i)];
      DeployRecord& record =
          records[static_cast<std::size_t>(st.target_idx)];
      ++record.steps;

      bool episode_over = ls.done;
      if (!ls.done && !st.sample &&
          venv.lane(i).params() == st.prev_params) {
        // A greedy policy at an unchanged state is a fixed point: the
        // target will never be reached, so stop burning simulations.
        episode_over = true;
        venv.halt_lane(i);
      }
      if (!episode_over) {
        obs[static_cast<std::size_t>(i)] = ls.obs;
        continue;
      }

      if (!ls.goal_met && st.attempts_left > 0) {
        // Failed attempt with retries left: re-run the same target with a
        // sampled policy (the paper's RLlib rollouts sample by default).
        --st.attempts_left;
        st.sample = true;
        to_reset.push_back(i);
        continue;
      }
      record.reached = ls.goal_met;
      record.final_specs = venv.lane(i).cur_specs();
      record.final_params = venv.lane(i).params();
      if (assign(i)) to_reset.push_back(i);
    }
    if (!to_reset.empty()) {
      auto fresh = venv.reset_lanes(to_reset);
      for (std::size_t k = 0; k < to_reset.size(); ++k) {
        obs[static_cast<std::size_t>(to_reset[k])] = std::move(fresh[k]);
      }
    }
  }
  return records;
}

}  // namespace autockt::rl
