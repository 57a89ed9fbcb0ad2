#include "fairness/registry.h"

#include "fairness/agglomerative.h"
#include "fairness/balanced.h"
#include "fairness/baselines.h"
#include "fairness/beam.h"
#include "fairness/unbalanced.h"

namespace fairrank {

StatusOr<std::unique_ptr<PartitioningAlgorithm>> MakeAlgorithmByName(
    const std::string& name, const AlgorithmConfig& config) {
  if (name == "balanced") {
    return MakeBalancedAlgorithm("balanced", std::nullopt);
  }
  if (name == "unbalanced") {
    return MakeUnbalancedAlgorithm("unbalanced", std::nullopt);
  }
  if (name == "r-balanced") {
    return MakeBalancedAlgorithm("r-balanced", config.seed);
  }
  if (name == "r-unbalanced") {
    return MakeUnbalancedAlgorithm("r-unbalanced", config.seed);
  }
  if (name == "all-attributes") {
    return MakeAllAttributesAlgorithm();
  }
  if (name == "exhaustive") {
    return MakeExhaustiveAlgorithm(config.exhaustive);
  }
  if (name == "beam") {
    return MakeBeamAlgorithm(config.beam_width);
  }
  if (name == "merge") {
    return MakeAgglomerativeAlgorithm();
  }
  return Status::NotFound("unknown algorithm '" + name + "'");
}

std::vector<std::string> PaperAlgorithmNames() {
  return {"unbalanced", "r-unbalanced", "balanced", "r-balanced",
          "all-attributes"};
}

std::vector<std::string> KnownAlgorithmNames() {
  std::vector<std::string> names = PaperAlgorithmNames();
  names.push_back("exhaustive");
  names.push_back("beam");
  names.push_back("merge");
  return names;
}

}  // namespace fairrank
