#include "fairness/evaluator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>

#include "common/fault_injection.h"
#include "common/parallel.h"
#include "common/telemetry.h"

namespace fairrank {

namespace {

/// Always-on pipeline counters (relaxed atomic adds, batched per call —
/// cheap next to the histogram/EMD work itself). `/metrics` serves them as
/// the per-phase pipeline families.
struct PipelineMetrics {
  MetricCounter* histogram_builds;
  MetricCounter* emd_computations;

  static const PipelineMetrics& Get() {
    static const PipelineMetrics* metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      auto* m = new PipelineMetrics();
      m->histogram_builds = registry.GetCounter(
          "fairrank_pipeline_histogram_builds_total",
          "Per-partition score histograms built");
      m->emd_computations = registry.GetCounter(
          "fairrank_pipeline_emd_computations_total",
          "Pairwise divergences computed");
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

void EvalCacheStats::Add(const EvalCacheStats& other) {
  histogram_hits += other.histogram_hits;
  histogram_misses += other.histogram_misses;
  divergence_hits += other.divergence_hits;
  divergence_misses += other.divergence_misses;
  bytes_used += other.bytes_used;
}

namespace {

/// The checks Make and MakeFromHistograms share: a table, one input per
/// row, and a usable bin configuration.
Status CheckInputs(const Table* table, size_t inputs, const char* what,
                   const EvaluatorOptions& options) {
  if (table == nullptr) {
    return Status::InvalidArgument("table is null");
  }
  if (inputs != table->num_rows()) {
    return Status::InvalidArgument(
        "got " + std::to_string(inputs) + " " + what + " for " +
        std::to_string(table->num_rows()) + " rows");
  }
  if (options.num_bins < 1) {
    return Status::InvalidArgument("num_bins must be >= 1");
  }
  if (!(options.score_lo < options.score_hi)) {
    return Status::InvalidArgument("empty score range");
  }
  return Status::OK();
}

}  // namespace

StatusOr<UnfairnessEvaluator> UnfairnessEvaluator::Make(
    const Table* table, std::vector<double> scores,
    const EvaluatorOptions& options) {
  FAIRRANK_RETURN_NOT_OK(CheckInputs(table, scores.size(), "scores", options));
  size_t num_out_of_range = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (!std::isfinite(scores[i])) {
      return Status::InvalidArgument("score " + std::to_string(i) +
                                     " is not finite");
    }
    if (scores[i] < options.score_lo || scores[i] > options.score_hi) {
      ++num_out_of_range;
      if (options.out_of_range == OutOfRangePolicy::kReject) {
        return Status::InvalidArgument(
            "score " + std::to_string(i) + " (" + std::to_string(scores[i]) +
            ") is outside [" + std::to_string(options.score_lo) + ", " +
            std::to_string(options.score_hi) +
            "] and out_of_range is kReject");
      }
    }
  }
  FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<Divergence> divergence,
                            MakeDivergenceByName(options.divergence));
  return UnfairnessEvaluator(table, std::move(scores), {}, options,
                             std::move(divergence), num_out_of_range);
}

StatusOr<UnfairnessEvaluator> UnfairnessEvaluator::MakeFromHistograms(
    const Table* table, std::vector<Histogram> row_histograms,
    const EvaluatorOptions& options) {
  FAIRRANK_RETURN_NOT_OK(
      CheckInputs(table, row_histograms.size(), "histograms", options));
  const Histogram shape(options.num_bins, options.score_lo, options.score_hi);
  double clamped = 0.0;
  for (size_t i = 0; i < row_histograms.size(); ++i) {
    if (!row_histograms[i].SameShape(shape)) {
      return Status::InvalidArgument(
          "histogram " + std::to_string(i) +
          " does not match the evaluator's bin configuration");
    }
    clamped += row_histograms[i].clamped_count();
  }
  if (clamped > 0.0 && options.out_of_range == OutOfRangePolicy::kReject) {
    return Status::InvalidArgument(
        "histograms hold scores outside the range and out_of_range is "
        "kReject");
  }
  FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<Divergence> divergence,
                            MakeDivergenceByName(options.divergence));
  return UnfairnessEvaluator(table, {}, std::move(row_histograms), options,
                             std::move(divergence),
                             static_cast<size_t>(clamped));
}

Histogram UnfairnessEvaluator::BuildHistogram(
    const Partition& partition) const {
  const uint64_t start_ns =
      options_.trace != nullptr ? TraceNowNanos() : 0;
  Histogram histogram(options_.num_bins, options_.score_lo,
                      options_.score_hi);
  if (row_histograms_.empty()) {
    for (size_t row : partition.rows) histogram.Add(scores_[row]);
  } else {
    // Shapes were checked by MakeFromHistograms, so the merge cannot fail.
    for (size_t row : partition.rows) {
      (void)histogram.MergeWith(row_histograms_[row]);
    }
  }
  work_->histograms.fetch_add(1, std::memory_order_relaxed);
  PipelineMetrics::Get().histogram_builds->Increment();
  if (options_.trace != nullptr) {
    options_.trace->AddEvent("histogram", options_.trace_parent,
                             TraceNowNanos() - start_ns);
  }
  return histogram;
}

std::vector<Histogram> UnfairnessEvaluator::BuildHistograms(
    const Partitioning& partitioning) const {
  std::vector<Histogram> histograms;
  histograms.reserve(partitioning.size());
  for (const Partition& p : partitioning) {
    histograms.push_back(BuildHistogram(p));
  }
  return histograms;
}

StatusOr<double> UnfairnessEvaluator::ComputeDistance(
    const Histogram& a, const Histogram& b) const {
  if (fault::OnDivergenceEval()) {
    return Status::Internal("fault injection: divergence evaluation failed");
  }
  if (options_.trace == nullptr) return divergence_->Distance(a, b);
  const uint64_t start_ns = TraceNowNanos();
  StatusOr<double> d = divergence_->Distance(a, b);
  options_.trace->AddEvent("emd", options_.trace_parent,
                           TraceNowNanos() - start_ns);
  return d;
}

void UnfairnessEvaluator::CountDivergences(uint64_t n) const {
  if (n == 0) return;
  work_->divergences.fetch_add(n, std::memory_order_relaxed);
  PipelineMetrics::Get().emd_computations->Increment(n);
}

EvalCacheStats UnfairnessEvaluator::cache_stats() const {
  EvalCacheStats stats;
  stats.histogram_misses = work_->histograms.load(std::memory_order_relaxed);
  stats.divergence_misses = work_->divergences.load(std::memory_order_relaxed);
  return stats;
}

StatusOr<double> UnfairnessEvaluator::Distance(const Histogram& a,
                                               const Histogram& b) const {
  StatusOr<double> d = ComputeDistance(a, b);
  CountDivergences(1);
  return d;
}

StatusOr<double> UnfairnessEvaluator::Distance(const Partition& a,
                                               const Partition& b) const {
  return Distance(BuildHistogram(a), BuildHistogram(b));
}

StatusOr<std::vector<double>> UnfairnessEvaluator::PairwiseDistances(
    const std::vector<Histogram>& histograms) const {
  std::vector<double> distances;
  const size_t k = histograms.size();
  if (k < 2) return distances;
  const size_t num_pairs = k * (k - 1) / 2;
  if (context_.has_value()) {
    // The verdict is not needed here: exhaustion latches on the budget and
    // the search truncates at its next checkpoint.
    (void)context_->CheckMemory(num_pairs * sizeof(double));
  }
  // Flatten the upper triangle so pair m maps to (i, j) and distances land
  // in a fixed slot — the final reduction order is deterministic regardless
  // of thread count.
  distances.assign(num_pairs, 0.0);
  Status first_error;
  std::mutex error_mutex;
  // Once any pair fails, sibling chunks stop at their next iteration instead
  // of burning through the rest of their range — the result is discarded
  // anyway.
  std::atomic<bool> abort{false};
  bool complete = true;
  try {
    complete = ParallelForCancellable(
        num_pairs, options_.num_threads, options_.cancel, options_.deadline,
        [&](size_t begin, size_t end) {
          // Locate (i, j) for `begin`, then walk forward.
          size_t m = 0;
          size_t i = 0;
          size_t j = 1;
          // Advance row-by-row; k is small relative to pair count.
          while (m + (k - 1 - i) <= begin) {
            m += k - 1 - i;
            ++i;
          }
          j = i + 1 + (begin - m);
          size_t computed = 0;
          for (size_t p = begin; p < end; ++p) {
            if (abort.load(std::memory_order_relaxed)) break;
            StatusOr<double> d = ComputeDistance(histograms[i], histograms[j]);
            ++computed;
            if (!d.ok()) {
              abort.store(true, std::memory_order_relaxed);
              std::lock_guard<std::mutex> lock(error_mutex);
              if (first_error.ok()) first_error = d.status();
              break;
            }
            distances[p] = *d;
            if (++j == k) {
              ++i;
              j = i + 1;
            }
          }
          CountDivergences(computed);
        });
  } catch (const std::exception& e) {
    // Worker exceptions (including injected faults) are captured by
    // ParallelFor and rethrown here; keep them inside the Status API.
    return Status::Internal(std::string("pairwise unfairness worker: ") +
                            e.what());
  }
  FAIRRANK_RETURN_NOT_OK(first_error);
  if (!complete) {
    return options_.cancel.cancel_requested()
               ? Status::Cancelled("pairwise unfairness cancelled")
               : Status::DeadlineExceeded(
                     "deadline expired during pairwise unfairness");
  }
  return distances;
}

StatusOr<double> UnfairnessEvaluator::AveragePairwiseUnfairness(
    const Partitioning& partitioning) const {
  if (partitioning.size() < 2) return 0.0;
  return AveragePairwise(BuildHistograms(partitioning));
}

StatusOr<double> UnfairnessEvaluator::AveragePairwise(
    const std::vector<Histogram>& histograms) const {
  if (histograms.size() < 2) return 0.0;
  FAIRRANK_ASSIGN_OR_RETURN(std::vector<double> distances,
                            PairwiseDistances(histograms));
  double sum = 0.0;
  for (double d : distances) sum += d;
  return sum / static_cast<double>(distances.size());
}

StatusOr<std::vector<DivergentPair>> TopDivergentPairs(
    const UnfairnessEvaluator& eval, const Partitioning& partitioning,
    size_t k) {
  std::vector<DivergentPair> pairs;
  if (partitioning.size() < 2 || k == 0) return pairs;
  // Same flattened upper triangle as AveragePairwiseUnfairness.
  FAIRRANK_ASSIGN_OR_RETURN(
      std::vector<double> distances,
      eval.PairwiseDistances(eval.BuildHistograms(partitioning)));
  pairs.reserve(distances.size());
  size_t m = 0;
  for (size_t i = 0; i < partitioning.size(); ++i) {
    for (size_t j = i + 1; j < partitioning.size(); ++j) {
      pairs.push_back({i, j, distances[m++]});
    }
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const DivergentPair& a, const DivergentPair& b) {
                     return a.distance > b.distance;
                   });
  if (pairs.size() > k) pairs.resize(k);
  return pairs;
}

StatusOr<double> UnfairnessEvaluator::AverageWithSiblings(
    const Histogram& current, const std::vector<Histogram>& siblings) const {
  if (siblings.empty()) return 0.0;
  double sum = 0.0;
  for (const Histogram& s : siblings) {
    FAIRRANK_ASSIGN_OR_RETURN(double d, ComputeDistance(current, s));
    sum += d;
  }
  CountDivergences(siblings.size());
  return sum / static_cast<double>(siblings.size());
}

StatusOr<double> UnfairnessEvaluator::AverageChildrenWithSiblings(
    const std::vector<Histogram>& children,
    const std::vector<Histogram>& siblings) const {
  double sum = 0.0;
  size_t pairs = 0;
  auto add = [&](const Histogram& a, const Histogram& b) -> Status {
    FAIRRANK_ASSIGN_OR_RETURN(double d, ComputeDistance(a, b));
    sum += d;
    ++pairs;
    return Status::OK();
  };
  // Child-child pairs.
  for (size_t i = 0; i < children.size(); ++i) {
    for (size_t j = i + 1; j < children.size(); ++j) {
      FAIRRANK_RETURN_NOT_OK(add(children[i], children[j]));
    }
  }
  // Child-sibling pairs.
  for (const Histogram& child : children) {
    for (const Histogram& sibling : siblings) {
      FAIRRANK_RETURN_NOT_OK(add(child, sibling));
    }
  }
  if (options_.sibling_comparison == SiblingComparison::kAllPairs) {
    // Also count sibling-sibling pairs: the result is then the average
    // pairwise unfairness of (children ∪ siblings).
    for (size_t i = 0; i < siblings.size(); ++i) {
      for (size_t j = i + 1; j < siblings.size(); ++j) {
        FAIRRANK_RETURN_NOT_OK(add(siblings[i], siblings[j]));
      }
    }
  }
  CountDivergences(pairs);
  if (pairs == 0) return 0.0;
  return sum / static_cast<double>(pairs);
}

}  // namespace fairrank
