#ifndef FAIRRANK_FAIRNESS_UNBALANCED_H_
#define FAIRRANK_FAIRNESS_UNBALANCED_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "fairness/algorithm.h"

namespace fairrank {

/// Algorithm 2 of the paper (`unbalanced`): after an initial global split,
/// recursively decides per partition whether to split further, comparing the
/// partition's average divergence with its siblings against that of its
/// potential children with the same siblings. Produces an unbalanced
/// partitioning tree — different leaves may use different attributes.
///
/// Each step is ChooseGlobalSplit (the root) or ChooseLocalSplit (below it);
/// r-unbalanced draws its unconditional root split without scoring it.
/// `name` lets the registry reuse this implementation for "unbalanced" and
/// "r-unbalanced"; a `random_seed` makes it r-unbalanced. The algorithm owns
/// that stream, so repeated Run calls continue it.
std::unique_ptr<PartitioningAlgorithm> MakeUnbalancedAlgorithm(
    std::string name, std::optional<uint64_t> random_seed);

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_UNBALANCED_H_
