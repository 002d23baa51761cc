#pragma once
// SpecSuite: a named set of target specifications.
//
// The paper's experiments all revolve around fixed target sets ("50
// randomly sampled target specifications" for training, "1000 unseen
// targets" for generalization). A SpecSuite makes such a set a value: it
// is generated from a SpecSpace through any TargetSampler and handed to
// the trainer, deploy_agent and the baseline harnesses.
//
// Determinism contract: generation consumes only the suite seed, never the
// training seed, so the holdout set an agent is scored on is invariant
// under everything about how the agent was trained. Seeded regeneration is
// also the cross-process contract: RL, GA and GA+ML runs in different
// binaries score against identical targets by regenerating the suite from
// the same (sampler, count, suite seed) (see core::make_deploy_suite).

#include <cstdint>
#include <string>
#include <vector>

#include "circuits/sizing_problem.hpp"
#include "spec/spec_space.hpp"
#include "spec/target_sampler.hpp"

namespace autockt::spec {

class SpecSuite {
 public:
  SpecSuite() = default;
  /// Throws when any target's arity disagrees with spec_names.
  SpecSuite(std::string name, std::vector<std::string> spec_names,
            std::vector<circuits::SpecVector> targets);

  /// Draw `count` targets from `sampler` using a stream derived from
  /// `suite_seed` only.
  static SpecSuite generate(const SpecSpace& space, TargetSampler& sampler,
                            std::size_t count, std::uint64_t suite_seed,
                            std::string name);

  const std::string& name() const { return name_; }
  const std::vector<std::string>& spec_names() const { return spec_names_; }
  const std::vector<circuits::SpecVector>& targets() const {
    return targets_;
  }
  std::size_t size() const { return targets_.size(); }
  bool empty() const { return targets_.empty(); }
  const circuits::SpecVector& operator[](std::size_t i) const {
    return targets_[i];
  }

  /// The first min(n, size()) targets as a sub-suite — lets an expensive
  /// baseline (GA at thousands of sims per target) score on a prefix of
  /// the exact suite a cheap method covered in full.
  SpecSuite head(std::size_t n) const;

  bool operator==(const SpecSuite& other) const {
    return name_ == other.name_ && spec_names_ == other.spec_names_ &&
           targets_ == other.targets_;
  }

 private:
  std::string name_;
  std::vector<std::string> spec_names_;
  std::vector<circuits::SpecVector> targets_;
};

}  // namespace autockt::spec
