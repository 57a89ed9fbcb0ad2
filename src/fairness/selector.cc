#include <optional>

#include "fairness/algorithm.h"
#include "fairness/splitter.h"

namespace fairrank {

namespace {

/// The greedy step shared by both scopes. `split(attr)` builds a candidate
/// and `score(histograms)` rates it; each candidate is split, binned and
/// scored exactly once.
template <typename SplitFn, typename ScoreFn>
StatusOr<SplitChoice> Choose(const UnfairnessEvaluator& eval,
                             const std::vector<size_t>& attrs, Rng* random,
                             const SplitFn& split, const ScoreFn& score) {
  if (attrs.empty()) {
    return Status::InvalidArgument("no attributes to select from");
  }
  auto candidate = [&](size_t pos) -> StatusOr<SplitChoice> {
    SplitChoice choice;
    choice.pos = pos;
    choice.partitions = split(attrs[pos]);
    choice.histograms = eval.BuildHistograms(choice.partitions);
    FAIRRANK_ASSIGN_OR_RETURN(choice.score, score(choice.histograms));
    return choice;
  };
  if (random != nullptr) return candidate(random->UniformIndex(attrs.size()));
  std::optional<SplitChoice> best;
  for (size_t pos = 0; pos < attrs.size(); ++pos) {
    FAIRRANK_ASSIGN_OR_RETURN(SplitChoice next, candidate(pos));
    if (!best.has_value() || next.score > best->score) best = std::move(next);
  }
  return std::move(*best);
}

}  // namespace

StatusOr<SplitChoice> ChooseGlobalSplit(const UnfairnessEvaluator& eval,
                                        const Partitioning& current,
                                        const std::vector<size_t>& attrs,
                                        Rng* random) {
  return Choose(
      eval, attrs, random,
      [&](size_t attr) { return SplitAll(eval.table(), current, attr); },
      [&](const std::vector<Histogram>& histograms) {
        return eval.AveragePairwise(histograms);
      });
}

StatusOr<SplitChoice> ChooseLocalSplit(const UnfairnessEvaluator& eval,
                                       const Partition& current,
                                       const std::vector<Histogram>& siblings,
                                       const std::vector<size_t>& attrs,
                                       Rng* random) {
  return Choose(
      eval, attrs, random,
      [&](size_t attr) { return SplitPartition(eval.table(), current, attr); },
      [&](const std::vector<Histogram>& histograms) {
        return eval.AverageChildrenWithSiblings(histograms, siblings);
      });
}

}  // namespace fairrank
