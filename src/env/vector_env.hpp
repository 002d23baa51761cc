#pragma once
// VectorSizingEnv: N sizing environments stepped in lockstep, with all N
// pending circuit points dispatched as ONE evaluate_batch() call through the
// problem's shared EvalBackend. This is what puts the PR-1 evaluation layer
// (thread-pool fan-out, sharded memo cache, corner parallelism) on the PPO
// rollout and deployment hot paths.
//
// Contract: each lane is a full SizingEnv driven through its split-phase
// API, so a VectorSizingEnv over a FunctionBackend produces results
// bitwise-identical to N independent serial envs — batching changes
// wall-clock, never values (asserted in tests/test_vector_env.cpp).
//
// Lane model:
//  * Every lane owns an RNG stream derived from (base_seed, lane index)
//    only, so trajectories do not depend on how lanes are packed into
//    workers or on thread scheduling.
//  * On episode end, step_all() auto-resets the lane (resampling its target
//    through the optional target sampler, from the lane's own stream) unless
//    a continue_lane predicate vetoes it, in which case the lane halts and
//    is skipped by subsequent ticks. Reset evaluations of all freshly done
//    lanes batch into a second evaluate_batch() on the same tick.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "env/sizing_env.hpp"
#include "spec/target_sampler.hpp"
#include "util/rng.hpp"

namespace autockt::env {

class VectorSizingEnv {
 public:
  VectorSizingEnv(std::shared_ptr<const circuits::SizingProblem> problem,
                  EnvConfig config, int num_lanes);

  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  int obs_size() const { return lanes_.front().obs_size(); }
  int num_params() const { return lanes_.front().num_params(); }

  // ---- per-lane RNG streams ----------------------------------------------
  /// Seed every lane from (base_seed, lane index); lane streams are
  /// independent of lane count, so lane i behaves identically whether it
  /// runs beside 0 or 63 siblings.
  void seed_lanes(std::uint64_t base_seed);
  void seed_lane(int lane, std::uint64_t seed);
  util::Rng& lane_rng(int lane) { return rngs_[check_lane(lane)]; }

  // ---- targets ------------------------------------------------------------
  /// Target sampler drawn from (with the lane's own stream) on reset_all()
  /// and on every auto-reset; null detaches, and lanes then keep their
  /// current targets. Outcomes are not reported back: a trainer replays
  /// them to record_outcome itself, in a deterministic order (rl/ppo.cpp).
  void set_target_sampler(std::shared_ptr<spec::TargetSampler> sampler);
  void set_target(int lane, circuits::SpecVector target);
  const circuits::SpecVector& target(int lane) const {
    return lanes_[check_lane(lane)].target();
  }

  // ---- lockstep episode control -------------------------------------------
  /// Restart every lane from the grid centre (one batched evaluation);
  /// returns the initial observation per lane. All lanes become RUNNING.
  std::vector<std::vector<double>> reset_all();

  /// Restart the given lanes (one batched evaluation); returns their
  /// initial observations in argument order. The lanes become RUNNING.
  std::vector<std::vector<double>> reset_lanes(const std::vector<int>& lanes);

  struct LaneStep {
    /// Observation to act on next: the new episode's first observation when
    /// the lane auto-reset, otherwise the post-step observation.
    std::vector<double> obs;
    /// Terminal observation of the episode that just ended (empty unless
    /// done) — what a bootstrap value should be computed from.
    std::vector<double> final_obs;
    double reward = 0.0;
    bool done = false;
    bool goal_met = false;
    /// False for lanes that were halted and therefore did not step.
    bool stepped = false;
  };

  /// Step every RUNNING lane with actions[lane] (entries for halted lanes
  /// are ignored). All pending points evaluate in one evaluate_batch();
  /// lanes whose episode ended either auto-reset (default, batched
  /// together) or halt when continue_lane(lane) returns false.
  std::vector<LaneStep> step_all(
      const std::vector<std::vector<int>>& actions,
      const std::function<bool(int lane)>& continue_lane = {});

  // ---- lane state ---------------------------------------------------------
  bool lane_running(int lane) const { return running_[check_lane(lane)]; }
  int running_count() const;
  void halt_lane(int lane) { running_[check_lane(lane)] = false; }

  const SizingEnv& lane(int i) const { return lanes_[check_lane(i)]; }
  SizingEnv& lane(int i) { return lanes_[check_lane(i)]; }

  const circuits::SizingProblem& problem() const {
    return lanes_.front().problem();
  }

 private:
  std::size_t check_lane(int lane) const;
  /// Begin a reset on each lane, batch-evaluate, finish; lanes RUNNING.
  std::vector<std::vector<double>> do_reset(const std::vector<int>& lanes);

  std::shared_ptr<const circuits::SizingProblem> problem_;
  std::vector<SizingEnv> lanes_;
  std::vector<util::Rng> rngs_;
  std::vector<char> running_;  // char, not bool: lanes mutate independently
  std::shared_ptr<spec::TargetSampler> sampler_;  // optional
};

}  // namespace autockt::env
