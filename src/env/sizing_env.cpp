#include "env/sizing_env.hpp"

#include <algorithm>
#include <stdexcept>

#include "spec/target_sampler.hpp"

namespace autockt::env {

using circuits::ParamVector;
using circuits::SpecVector;

SizingEnv::SizingEnv(std::shared_ptr<const circuits::SizingProblem> problem,
                     EnvConfig config)
    : problem_(std::move(problem)), config_(config) {
  if (!problem_) throw std::invalid_argument("SizingEnv: null problem");
  // The default target is the spec-space midpoint — derived from the same
  // SpecSpace the samplers use, so the two can never drift (and invalid
  // spec definitions are rejected here, at construction).
  target_ = spec::SpecSpace(*problem_).midpoint();
}

int SizingEnv::obs_size() const {
  return static_cast<int>(2 * problem_->specs.size() +
                          problem_->params.size());
}

int SizingEnv::num_params() const {
  return static_cast<int>(problem_->params.size());
}

void SizingEnv::set_target(SpecVector target) {
  if (target.size() != problem_->specs.size()) {
    throw std::invalid_argument("SizingEnv: target size mismatch");
  }
  target_ = std::move(target);
}

std::vector<double> SizingEnv::reset() {
  return finish_reset(problem_->evaluate(begin_reset(), pending_hint()));
}

const ParamVector& SizingEnv::begin_reset() {
  params_ = problem_->center_params();
  steps_ = 0;
  // Episodes cold-start: warm hints never leak across episode boundaries,
  // so a trajectory's simulations depend only on its own history.
  hint_.invalidate();
  return params_;
}

std::vector<double> SizingEnv::finish_reset(eval::EvalResult result) {
  apply_eval(std::move(result));
  return observe();
}

void SizingEnv::apply_eval(eval::EvalResult result) {
  ++sims_;
  if (result.ok()) {
    cur_specs_ = std::move(result).value();
    last_eval_failed_ = false;
  } else {
    cur_specs_ = problem_->fail_specs();
    last_eval_failed_ = true;
  }
}

double SizingEnv::current_reward() const {
  const bool goal = problem_->goal_met(cur_specs_, target_);
  if (config_.eq1_shaping) {
    // Non-terminal steps: the clamped violation sum (<= 0), so there is no
    // incentive to linger in an episode. The terminal bonus is the paper's
    // "10 + r" with the full Eq. 1 value, whose unclamped minimize term
    // rewards finishing *below* the power budget.
    if (goal) {
      return config_.goal_bonus + problem_->reward_eq1(cur_specs_, target_);
    }
    return problem_->hard_violation(cur_specs_, target_);
  }
  // Sparse ablation: +bonus on goal, small per-step penalty otherwise.
  return goal ? config_.goal_bonus : -1.0 / std::max(config_.horizon, 1);
}

bool SizingEnv::current_goal_met() const {
  return problem_->goal_met(cur_specs_, target_);
}

SizingEnv::StepResult SizingEnv::step(const std::vector<int>& action) {
  return finish_step(problem_->evaluate(begin_step(action), pending_hint()));
}

const ParamVector& SizingEnv::begin_step(const std::vector<int>& action) {
  if (action.size() != problem_->params.size()) {
    throw std::invalid_argument("SizingEnv: action size mismatch");
  }
  for (std::size_t i = 0; i < action.size(); ++i) {
    const int delta = action[i] - 1;  // {0,1,2} -> {-1,0,+1}
    const int hi = problem_->params[i].grid_size() - 1;
    params_[i] = std::clamp(params_[i] + delta, 0, hi);
  }
  ++steps_;
  return params_;
}

SizingEnv::StepResult SizingEnv::finish_step(eval::EvalResult result) {
  apply_eval(std::move(result));
  StepResult out;
  out.goal_met = current_goal_met();
  out.reward = current_reward();
  out.done = out.goal_met || steps_ >= config_.horizon;
  out.obs = observe();
  return out;
}

std::vector<double> SizingEnv::observe() const {
  std::vector<double> obs;
  obs.reserve(static_cast<std::size_t>(obs_size()));
  for (std::size_t i = 0; i < problem_->specs.size(); ++i) {
    obs.push_back(
        circuits::lookup_norm(cur_specs_[i], problem_->specs[i].norm_const));
  }
  for (std::size_t i = 0; i < problem_->specs.size(); ++i) {
    obs.push_back(
        circuits::lookup_norm(target_[i], problem_->specs[i].norm_const));
  }
  for (std::size_t i = 0; i < problem_->params.size(); ++i) {
    const int hi = problem_->params[i].grid_size() - 1;
    obs.push_back(hi == 0 ? 0.0
                          : 2.0 * static_cast<double>(params_[i]) /
                                    static_cast<double>(hi) -
                                1.0);
  }
  return obs;
}

SpecVector sample_target(const circuits::SizingProblem& problem,
                         util::Rng& rng) {
  return spec::UniformSampler(spec::SpecSpace(problem)).sample(rng);
}

std::vector<SpecVector> sample_targets(const circuits::SizingProblem& problem,
                                       std::size_t count, util::Rng& rng) {
  spec::UniformSampler sampler{spec::SpecSpace(problem)};
  std::vector<SpecVector> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(sampler.sample(rng));
  return out;
}

}  // namespace autockt::env
