#include "fairness/exhaustive.h"

#include "common/trace.h"
#include "fairness/beam.h"
#include "fairness/splitter.h"

namespace fairrank {

namespace {

/// Beam width of the fallback search.
constexpr int kFallbackBeamWidth = 4;

/// One unresolved node of the partitioning tree being enumerated: a
/// partition plus the attributes still allowed on its subtree.
struct PendingNode {
  Partition partition;
  std::vector<size_t> attrs;
};

/// A PendingNode of the search, carrying the partition's histogram: built
/// once when the partition is split off its parent, then reused by every
/// partitioning that closes the node as a leaf.
struct SearchNode {
  Partition partition;
  Histogram histogram;
  std::vector<size_t> attrs;
};

class ExhaustiveAlgorithm : public PartitioningAlgorithm {
 public:
  explicit ExhaustiveAlgorithm(const ExhaustiveOptions& options)
      : options_(options) {}

  std::string Name() const override { return "exhaustive"; }

  using PartitioningAlgorithm::Run;

  StatusOr<SearchResult> Run(const UnfairnessEvaluator& eval,
                             std::vector<size_t> attrs,
                             const ExecutionContext& context) override {
    evaluated_ = 0;
    best_avg_ = -1.0;
    best_.clear();
    trip_ = ExhaustionReason::kNone;
    context_ = &context;

    Partition root = MakeRootPartition(eval.table().num_rows());
    std::vector<size_t> attrs_copy = attrs;  // For the beam fallback.
    std::vector<SearchNode> pending;
    pending.push_back({root, eval.BuildHistogram(root), std::move(attrs)});
    Leaves leaves;
    FAIRRANK_RETURN_NOT_OK(Recurse(eval, &pending, &leaves));

    SearchResult result;
    result.nodes_visited = evaluated_;
    // The root partitioning is the first one enumerated, so best_ is only
    // empty when the budget tripped before a single evaluation.
    if (best_.empty()) best_ = Partitioning{root};
    if (trip_ == ExhaustionReason::kNone) {
      result.partitioning = std::move(best_);
      return result;
    }
    result.truncated = true;
    result.reason = trip_;
    if (options_.fallback_to_beam && trip_ == ExhaustionReason::kNodeBudget) {
      FallbackToBeam(eval, std::move(attrs_copy), context, &result);
    }
    if (result.partitioning.empty()) result.partitioning = std::move(best_);
    return result;
  }

 private:
  /// Reruns the search as a width-bounded beam under the same deadline and
  /// cancellation but without the exhausted node budget, keeping whichever
  /// of {enumeration best-so-far, beam result} scores higher. Fallback
  /// failures are swallowed: the enumeration's best-so-far already stands.
  void FallbackToBeam(const UnfairnessEvaluator& eval,
                      std::vector<size_t> attrs,
                      const ExecutionContext& context, SearchResult* result) {
    std::unique_ptr<PartitioningAlgorithm> beam =
        MakeBeamAlgorithm(kFallbackBeamWidth);
    StatusOr<SearchResult> beam_result =
        beam->Run(eval, std::move(attrs), context.WithoutBudget());
    if (!beam_result.ok()) return;
    result->nodes_visited += beam_result->nodes_visited;
    StatusOr<double> beam_avg =
        eval.AveragePairwiseUnfairness(beam_result->partitioning);
    if (!beam_avg.ok()) return;
    if (*beam_avg > best_avg_) {
      result->partitioning = std::move(beam_result->partitioning);
    }
  }

  /// The leaves of the partitioning being built. `partitions` point into
  /// the Recurse frames that closed them, which outlive the entries.
  struct Leaves {
    std::vector<const Partition*> partitions;
    std::vector<Histogram> histograms;
  };

  Status Recurse(const UnfairnessEvaluator& eval,
                 std::vector<SearchNode>* pending, Leaves* leaves) {
    if (trip_ != ExhaustionReason::kNone) return Status::OK();  // Unwinding.
    if (pending->empty()) {
      // A complete partitioning: score it against the incumbent.
      ++evaluated_;
      ExhaustionReason why = context_->CheckNodes(1);
      if (why == ExhaustionReason::kNone &&
          evaluated_ > options_.max_partitionings) {
        why = ExhaustionReason::kNodeBudget;
      }
      if (why != ExhaustionReason::kNone) {
        trip_ = why;
        return Status::OK();
      }
      ScopedSpan evaluate_span(context_->trace(), "evaluate",
                               context_->trace_parent());
      StatusOr<double> avg = eval.AveragePairwise(leaves->histograms);
      if (!avg.ok()) {
        if (!IsExhaustion(avg.status())) return avg.status();
        trip_ = ExhaustionReasonFromStatus(avg.status());
        return Status::OK();
      }
      if (*avg > best_avg_) {
        best_avg_ = *avg;
        best_.clear();
        for (const Partition* leaf : leaves->partitions) {
          best_.push_back(*leaf);
        }
      }
      return Status::OK();
    }

    SearchNode node = std::move(pending->back());
    pending->pop_back();

    // Option 1: close this node as a leaf.
    leaves->partitions.push_back(&node.partition);
    leaves->histograms.push_back(node.histogram);
    FAIRRANK_RETURN_NOT_OK(Recurse(eval, pending, leaves));
    leaves->partitions.pop_back();
    leaves->histograms.pop_back();

    // Option 2: split on each remaining attribute with >= 2 represented
    // values (single-child splits would re-enumerate the same partitioning).
    for (size_t pos = 0;
         pos < node.attrs.size() && trip_ == ExhaustionReason::kNone; ++pos) {
      std::vector<Partition> children;
      {
        ScopedSpan expand_span(context_->trace(), "expand",
                               context_->trace_parent());
        children = SplitPartition(eval.table(), node.partition,
                                  node.attrs[pos]);
      }
      if (children.size() < 2) continue;
      std::vector<size_t> remaining = node.attrs;
      remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pos));
      size_t old_size = pending->size();
      for (Partition& child : children) {
        Histogram histogram = eval.BuildHistogram(child);
        pending->push_back(
            {std::move(child), std::move(histogram), remaining});
      }
      FAIRRANK_RETURN_NOT_OK(Recurse(eval, pending, leaves));
      pending->erase(pending->begin() + static_cast<ptrdiff_t>(old_size),
                     pending->end());
    }

    pending->push_back(std::move(node));
    return Status::OK();
  }

  ExhaustiveOptions options_;
  const ExecutionContext* context_ = nullptr;
  ExhaustionReason trip_ = ExhaustionReason::kNone;
  uint64_t evaluated_ = 0;
  double best_avg_ = -1.0;
  Partitioning best_;
};

uint64_t CountRecurse(const Table& table, std::vector<PendingNode>* pending,
                      uint64_t cap, uint64_t count_so_far) {
  if (count_so_far >= cap) return cap;
  if (pending->empty()) return count_so_far + 1;

  PendingNode node = std::move(pending->back());
  pending->pop_back();

  uint64_t count = CountRecurse(table, pending, cap, count_so_far);

  for (size_t pos = 0; pos < node.attrs.size() && count < cap; ++pos) {
    std::vector<Partition> children =
        SplitPartition(table, node.partition, node.attrs[pos]);
    if (children.size() < 2) continue;
    std::vector<size_t> remaining = node.attrs;
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pos));
    size_t old_size = pending->size();
    for (Partition& child : children) {
      pending->push_back({std::move(child), remaining});
    }
    count = CountRecurse(table, pending, cap, count);
    pending->resize(old_size);
  }

  pending->push_back(std::move(node));
  return count;
}

}  // namespace

std::unique_ptr<PartitioningAlgorithm> MakeExhaustiveAlgorithm(
    const ExhaustiveOptions& options) {
  return std::make_unique<ExhaustiveAlgorithm>(options);
}

uint64_t CountHierarchicalPartitionings(const UnfairnessEvaluator& eval,
                                        std::vector<size_t> attrs,
                                        uint64_t cap) {
  std::vector<PendingNode> pending;
  pending.push_back(
      {MakeRootPartition(eval.table().num_rows()), std::move(attrs)});
  return CountRecurse(eval.table(), &pending, cap, 0);
}

}  // namespace fairrank
