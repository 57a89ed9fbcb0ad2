#include "fairness/algorithm.h"
#include "fairness/splitter.h"

namespace fairrank {

namespace {

class WorstAttributeSelector : public AttributeSelector {
 public:
  StatusOr<size_t> SelectGlobal(const UnfairnessEvaluator& eval,
                                const Partitioning& current,
                                const std::vector<size_t>& attrs) override {
    if (attrs.empty()) {
      return Status::InvalidArgument("no attributes to select from");
    }
    size_t best_pos = 0;
    double best_avg = -1.0;
    for (size_t pos = 0; pos < attrs.size(); ++pos) {
      Partitioning candidate = SplitAll(eval.table(), current, attrs[pos]);
      FAIRRANK_ASSIGN_OR_RETURN(double avg,
                                eval.AveragePairwiseUnfairness(candidate));
      if (avg > best_avg) {
        best_avg = avg;
        best_pos = pos;
      }
    }
    return best_pos;
  }

  StatusOr<size_t> SelectLocal(const UnfairnessEvaluator& eval,
                               const Partition& current,
                               const std::vector<Histogram>& siblings,
                               const std::vector<size_t>& attrs) override {
    if (attrs.empty()) {
      return Status::InvalidArgument("no attributes to select from");
    }
    size_t best_pos = 0;
    double best_avg = -1.0;
    for (size_t pos = 0; pos < attrs.size(); ++pos) {
      std::vector<Histogram> children = eval.BuildHistograms(
          SplitPartition(eval.table(), current, attrs[pos]));
      FAIRRANK_ASSIGN_OR_RETURN(
          double avg, eval.AverageChildrenWithSiblings(children, siblings));
      if (avg > best_avg) {
        best_avg = avg;
        best_pos = pos;
      }
    }
    return best_pos;
  }
};

class RandomAttributeSelector : public AttributeSelector {
 public:
  explicit RandomAttributeSelector(uint64_t seed) : rng_(seed) {}

  StatusOr<size_t> SelectGlobal(const UnfairnessEvaluator& eval,
                                const Partitioning& current,
                                const std::vector<size_t>& attrs) override {
    (void)eval;
    (void)current;
    if (attrs.empty()) {
      return Status::InvalidArgument("no attributes to select from");
    }
    return rng_.UniformIndex(attrs.size());
  }

  StatusOr<size_t> SelectLocal(const UnfairnessEvaluator& eval,
                               const Partition& current,
                               const std::vector<Histogram>& siblings,
                               const std::vector<size_t>& attrs) override {
    (void)eval;
    (void)current;
    (void)siblings;
    if (attrs.empty()) {
      return Status::InvalidArgument("no attributes to select from");
    }
    return rng_.UniformIndex(attrs.size());
  }

 private:
  Rng rng_;
};

}  // namespace

std::unique_ptr<AttributeSelector> MakeWorstAttributeSelector() {
  return std::make_unique<WorstAttributeSelector>();
}

std::unique_ptr<AttributeSelector> MakeRandomAttributeSelector(uint64_t seed) {
  return std::make_unique<RandomAttributeSelector>(seed);
}

}  // namespace fairrank
