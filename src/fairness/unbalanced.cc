#include "fairness/unbalanced.h"

#include "common/trace.h"
#include "fairness/splitter.h"

namespace fairrank {

namespace {

class UnbalancedAlgorithm : public PartitioningAlgorithm {
 public:
  UnbalancedAlgorithm(std::string name, std::optional<uint64_t> random_seed)
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

    // Initial split on the worst (or random) attribute, "as in the case of
    // balanced"; Algorithm 2 is then invoked once per resulting partition.
    ExhaustionReason why = context.CheckNodes(attrs.size());
    if (why != ExhaustionReason::kNone) {
      return TruncatedResult(std::move(result), why);
    }
    result.nodes_visited += attrs.size();
    StatusOr<SplitChoice> choice = [&]() -> StatusOr<SplitChoice> {
      ScopedSpan expand_span(context.trace(), "expand",
                             context.trace_parent());
      if (!random_.has_value()) {
        return ChooseGlobalSplit(eval, result.partitioning, attrs, nullptr);
      }
      // The root split is unconditional and Algorithm 2 reads no score of
      // it, so the random baseline draws, splits and bins it unscored.
      SplitChoice drawn;
      drawn.pos = random_->UniformIndex(attrs.size());
      drawn.partitions =
          SplitAll(eval.table(), result.partitioning, attrs[drawn.pos]);
      drawn.histograms = eval.BuildHistograms(drawn.partitions);
      return drawn;
    }();
    if (!choice.ok()) {
      return DegradeOnExhaustion(std::move(result), choice.status());
    }
    attrs.erase(attrs.begin() + static_cast<ptrdiff_t>(choice->pos));
    const Partitioning& children = choice->partitions;
    const std::vector<Histogram>& histograms = choice->histograms;

    RunState state{&context, &result};
    Partitioning output;
    for (size_t i = 0; i < children.size(); ++i) {
      FAIRRANK_RETURN_NOT_OK(Recurse(eval, children[i], histograms[i],
                                     SiblingsOf(histograms, i), attrs, &state,
                                     &output));
    }
    result.partitioning = std::move(output);
    return result;
  }

 private:
  /// Truncation state shared across the recursion. Once `tripped`, every
  /// pending branch immediately closes its partition as a leaf — the output
  /// is then still a valid full partitioning, just shallower than the
  /// untruncated run would have produced.
  struct RunState {
    const ExecutionContext* context;
    SearchResult* result;

    bool tripped() const { return result->truncated; }
    void Trip(ExhaustionReason reason) {
      *result = TruncatedResult(std::move(*result), reason);
    }
  };

  /// The histograms of every partition but `skip`: siblings travel as
  /// histograms only, never as row sets.
  static std::vector<Histogram> SiblingsOf(const std::vector<Histogram>& all,
                                           size_t skip) {
    std::vector<Histogram> siblings;
    siblings.reserve(all.size() - 1);
    for (size_t i = 0; i < all.size(); ++i) {
      if (i != skip) siblings.push_back(all[i]);
    }
    return siblings;
  }

  /// Degradation path for a failed evaluator / choice call inside the
  /// recursion: exhaustion trips the run state and closes `current` as a
  /// leaf; real errors propagate.
  static Status CloseOrFail(const Status& status, const Partition& current,
                            RunState* state, Partitioning* output) {
    if (!IsExhaustion(status)) return status;
    state->Trip(ExhaustionReasonFromStatus(status));
    output->push_back(current);
    return Status::OK();
  }

  /// Algorithm 2. `histogram` is `current`'s, built once when its parent
  /// was split. `attrs` is passed by value: each branch of the recursion
  /// consumes its own copy, so sibling subtrees may split on different
  /// attributes (the "unbalanced" tree).
  Status Recurse(const UnfairnessEvaluator& eval, const Partition& current,
                 const Histogram& histogram,
                 const std::vector<Histogram>& siblings,
                 std::vector<size_t> attrs, RunState* state,
                 Partitioning* output) {
    if (attrs.empty() || state->tripped()) {  // Line 1-2 (or degrading).
      output->push_back(current);
      return Status::OK();
    }
    ExhaustionReason why = state->context->CheckNodes(attrs.size());
    if (why != ExhaustionReason::kNone) {
      state->Trip(why);
      output->push_back(current);
      return Status::OK();
    }
    state->result->nodes_visited += attrs.size();
    TraceContext* trace = state->context->trace();
    const int64_t trace_parent = state->context->trace_parent();
    StatusOr<double> current_avg = [&] {
      ScopedSpan evaluate_span(trace, "evaluate", trace_parent);
      return eval.AverageWithSiblings(histogram, siblings);
    }();
    if (!current_avg.ok()) {
      return CloseOrFail(current_avg.status(), current, state, output);
    }
    StatusOr<SplitChoice> choice = [&] {
      ScopedSpan expand_span(trace, "expand", trace_parent);
      return ChooseLocalSplit(eval, current, siblings, attrs, rng());
    }();
    if (!choice.ok()) {
      return CloseOrFail(choice.status(), current, state, output);
    }
    attrs.erase(attrs.begin() + static_cast<ptrdiff_t>(choice->pos));
    const Partitioning& children = choice->partitions;
    const std::vector<Histogram>& histograms = choice->histograms;
    if (*current_avg >= choice->score) {  // Line 9-10.
      output->push_back(current);
      return Status::OK();
    }
    for (size_t i = 0; i < children.size(); ++i) {  // Lines 12-14.
      FAIRRANK_RETURN_NOT_OK(Recurse(eval, children[i], histograms[i],
                                     SiblingsOf(histograms, i), attrs, state,
                                     output));
    }
    return Status::OK();
  }

  Rng* rng() { return random_.has_value() ? &*random_ : nullptr; }

  std::string name_;
  /// Set for r-unbalanced: one draw per step, continuing across Run calls.
  std::optional<Rng> random_;
};

}  // namespace

std::unique_ptr<PartitioningAlgorithm> MakeUnbalancedAlgorithm(
    std::string name, std::optional<uint64_t> random_seed) {
  return std::make_unique<UnbalancedAlgorithm>(std::move(name), random_seed);
}

}  // namespace fairrank
