#include "spec/spec_suite.hpp"

#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace autockt::spec {

SpecSuite::SpecSuite(std::string name, std::vector<std::string> spec_names,
                     std::vector<circuits::SpecVector> targets)
    : name_(std::move(name)),
      spec_names_(std::move(spec_names)),
      targets_(std::move(targets)) {
  for (const auto& t : targets_) {
    if (t.size() != spec_names_.size()) {
      throw std::invalid_argument("SpecSuite '" + name_ +
                                  "': target arity mismatch");
    }
  }
}

SpecSuite SpecSuite::generate(const SpecSpace& space, TargetSampler& sampler,
                              std::size_t count, std::uint64_t suite_seed,
                              std::string name) {
  util::Rng rng(suite_seed);
  std::vector<circuits::SpecVector> targets;
  targets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) targets.push_back(sampler.sample(rng));
  return SpecSuite(std::move(name), space.names(), std::move(targets));
}

SpecSuite SpecSuite::head(std::size_t n) const {
  if (n >= targets_.size()) return *this;
  return SpecSuite(
      name_ + "[0:" + std::to_string(n) + ")", spec_names_,
      std::vector<circuits::SpecVector>(targets_.begin(),
                                        targets_.begin() +
                                            static_cast<std::ptrdiff_t>(n)));
}

}  // namespace autockt::spec
