#ifndef FAIRRANK_FAIRNESS_BALANCED_H_
#define FAIRRANK_FAIRNESS_BALANCED_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "fairness/algorithm.h"

namespace fairrank {

/// Algorithm 1 of the paper (`balanced`): repeatedly split *every* current
/// partition on the attribute ChooseGlobalSplit picks (the worst attribute
/// for the paper's variant, a random one for r-balanced), stopping when the
/// average pairwise divergence no longer increases. Produces a balanced
/// partitioning tree — all leaves share the same split attributes.
///
/// `name` lets the registry reuse this implementation for "balanced" and
/// "r-balanced"; a `random_seed` makes it r-balanced. The algorithm owns
/// that stream, so repeated Run calls continue it.
std::unique_ptr<PartitioningAlgorithm> MakeBalancedAlgorithm(
    std::string name, std::optional<uint64_t> random_seed);

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_BALANCED_H_
