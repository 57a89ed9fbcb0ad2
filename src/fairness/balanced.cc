#include "fairness/balanced.h"

#include "common/trace.h"

namespace fairrank {

namespace {

class BalancedAlgorithm : public PartitioningAlgorithm {
 public:
  BalancedAlgorithm(std::string name, std::optional<uint64_t> random_seed)
      : name_(std::move(name)) {
    if (random_seed.has_value()) random_.emplace(*random_seed);
  }

  std::string Name() const override { return name_; }

  using PartitioningAlgorithm::Run;

  StatusOr<SearchResult> Run(const UnfairnessEvaluator& eval,
                             std::vector<size_t> attrs,
                             const ExecutionContext& context) override {
    SearchResult result;
    result.partitioning = {MakeRootPartition(eval.table().num_rows())};
    if (attrs.empty()) return result;

    // Algorithm 1: the first split is unconditional (lines 1-4); each later
    // level is kept only while the average pairwise divergence improves
    // (lines 5-16). One selection round evaluates a candidate split per
    // remaining attribute — charge them as nodes up front so a node budget
    // bounds the EMD evaluations actually performed.
    Partitioning& current = result.partitioning;
    double current_avg = 0.0;
    bool first = true;
    while (!attrs.empty()) {
      ExhaustionReason why = context.CheckNodes(attrs.size());
      if (why != ExhaustionReason::kNone) {
        return TruncatedResult(std::move(result), why);
      }
      result.nodes_visited += attrs.size();

      ScopedSpan expand_span(context.trace(), "expand",
                             context.trace_parent());
      StatusOr<SplitChoice> choice =
          ChooseGlobalSplit(eval, current, attrs, rng());
      if (!choice.ok()) {
        return DegradeOnExhaustion(std::move(result), choice.status());
      }
      attrs.erase(attrs.begin() + static_cast<ptrdiff_t>(choice->pos));
      if (!first && current_avg >= choice->score) break;
      current = std::move(choice->partitions);
      current_avg = choice->score;
      first = false;
    }
    return result;
  }

 private:
  Rng* rng() { return random_.has_value() ? &*random_ : nullptr; }

  std::string name_;
  /// Set for r-balanced: one draw per level, continuing across Run calls.
  std::optional<Rng> random_;
};

}  // namespace

std::unique_ptr<PartitioningAlgorithm> MakeBalancedAlgorithm(
    std::string name, std::optional<uint64_t> random_seed) {
  return std::make_unique<BalancedAlgorithm>(std::move(name), random_seed);
}

}  // namespace fairrank
