#include "fairness/evaluator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>

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

Status UnfairnessEvaluator::CheckPairs(
    const std::vector<Histogram>& histograms) const {
  // Pair (0, j) touches every histogram, so the first failing pair in
  // upper-triangle order is (0, j) for the least bad j, or (0, 1) when
  // histograms[0] itself is empty.
  const Histogram& first = histograms[0];
  for (size_t j = 1; j < histograms.size(); ++j) {
    const Histogram& h = histograms[j];
    if (first.empty() || h.empty() || !first.SameShape(h)) {
      StatusOr<double> d = divergence_->Distance(first, h);
      if (!d.ok()) return d.status();
    }
  }
  return Status::OK();
}

void UnfairnessEvaluator::ChargeMemory(uint64_t bytes) const {
  if (context_.has_value()) (void)context_->CheckMemory(bytes);
}

Status UnfairnessEvaluator::CheckStop() const {
  if (options_.cancel.cancel_requested()) {
    return Status::Cancelled("pairwise unfairness cancelled");
  }
  if (options_.deadline.Expired()) {
    return Status::DeadlineExceeded(
        "deadline expired during pairwise unfairness");
  }
  return Status::OK();
}

Status UnfairnessEvaluator::RunCancellable(
    size_t n, const std::function<void(size_t, size_t)>& body) const {
  bool complete = true;
  try {
    complete = ParallelForCancellable(n, options_.num_threads, options_.cancel,
                                      options_.deadline, body);
  } catch (const std::exception& e) {
    // Worker exceptions (including injected faults) are captured by
    // ParallelForCancellable and rethrown here; keep them inside the Status
    // API.
    return Status::Internal(std::string("pairwise unfairness worker: ") +
                            e.what());
  }
  // A chunk stops early only once the cancellation or deadline fired.
  return complete ? Status::OK() : CheckStop();
}

StatusOr<std::vector<double>> UnfairnessEvaluator::PairwiseDistances(
    const std::vector<Histogram>& histograms) const {
  const size_t k = histograms.size();
  const size_t num_pairs = k * (k - 1) / 2;
  ChargeMemory(num_pairs * sizeof(double));
  // Flatten the upper triangle so pair m maps to (i, j) and distances land
  // in a fixed slot — the final reduction order is deterministic regardless
  // of thread count.
  std::vector<double> distances(num_pairs, 0.0);
  Status first_error;
  std::mutex error_mutex;
  // Once any pair fails, sibling chunks stop at their next iteration instead
  // of burning through the rest of their range — the result is discarded
  // anyway.
  std::atomic<bool> abort{false};
  Status run = RunCancellable(num_pairs, [&](size_t begin, size_t end) {
    // Locate (i, j) for `begin`, then walk forward.
    size_t m = 0;
    size_t i = 0;
    // Advance row-by-row; k is small relative to pair count.
    while (m + (k - 1 - i) <= begin) {
      m += k - 1 - i;
      ++i;
    }
    size_t j = i + 1 + (begin - m);
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
  // A worker exception outranks a failed pair.
  if (!run.ok() && run.code() == StatusCode::kInternal) return run;
  FAIRRANK_RETURN_NOT_OK(first_error);
  FAIRRANK_RETURN_NOT_OK(run);
  return distances;
}

namespace {

/// Bins-major features of `histograms`: entry [b * k + i] is histogram i's
/// probability mass in bin b (kPmf) or the running sum of those masses
/// (kCdf). Masses are counts[b] / total, the divisions Emd1D makes.
std::vector<double> FeatureMatrix(const std::vector<Histogram>& histograms,
                                  PerBinL1Form::Features features) {
  const size_t k = histograms.size();
  const size_t bins = histograms[0].counts().size();
  const bool cdf = features == PerBinL1Form::Features::kCdf;
  std::vector<double> matrix(k * bins);
  for (size_t i = 0; i < k; ++i) {
    const std::vector<double>& counts = histograms[i].counts();
    const double total = histograms[i].total();
    double running = 0.0;
    for (size_t b = 0; b < bins; ++b) {
      const double mass = counts[b] / total;
      running += mass;
      matrix[b * k + i] = cdf ? running : mass;
    }
  }
  return matrix;
}

/// Sum over i < j of |x_i - x_j| for the k values at `x`, which it sorts in
/// place: with x ascending the sum is sum_r (2r - k + 1) * x_r. Terms are
/// added with Neumaier compensation, because they cancel heavily (the
/// coefficients sum to 0) and grow with k.
double SumOfAbsoluteDifferences(double* x, size_t k) {
  std::sort(x, x + k);
  const double last = static_cast<double>(k - 1);
  double sum = 0.0;
  double compensation = 0.0;
  for (size_t r = 0; r < k; ++r) {
    const double term = (2.0 * static_cast<double>(r) - last) * x[r];
    const double t = sum + term;
    compensation += std::abs(sum) >= std::abs(term) ? (sum - t) + term
                                                    : (term - t) + sum;
    sum = t;
  }
  return sum + compensation;
}

/// Keeps the best `n` of the pairs offered, best first by (distance desc,
/// index_a, index_b), whatever order the pairs arrive in.
class TopPairsBuffer {
 public:
  /// Requires n >= 1.
  TopPairsBuffer(size_t n, size_t num_pairs) : n_(std::min(n, num_pairs)) {
    heap_.reserve(n_);
  }

  /// Offers pair (a, b) in either order; it is kept as (min, max).
  void Offer(size_t a, size_t b, double distance) {
    // Most pairs fall short of the worst kept; only a tie needs the key.
    if (full() && distance < worst()) return;
    const DivergentPair pair{std::min(a, b), std::max(a, b), distance};
    if (full() && !Better(pair, heap_.front())) return;
    Keep(pair);
  }

  /// True once `n` pairs are kept; worst() is then the distance to beat.
  bool full() const { return heap_.size() == n_; }
  double worst() const { return heap_.front().distance; }

  /// The kept pairs, best first.
  std::vector<DivergentPair> Take() && {
    std::sort_heap(heap_.begin(), heap_.end(), Better);
    return std::move(heap_);
  }

 private:
  static bool Better(const DivergentPair& a, const DivergentPair& b) {
    if (a.distance != b.distance) return a.distance > b.distance;
    if (a.index_a != b.index_a) return a.index_a < b.index_a;
    return a.index_b < b.index_b;
  }

  /// Adds `pair`, evicting the worst kept pair once full. Out of line, so
  /// Offer's rejection test inlines into the scan.
  [[gnu::noinline]] void Keep(const DivergentPair& pair) {
    if (full()) {
      std::pop_heap(heap_.begin(), heap_.end(), Better);
      heap_.pop_back();
    }
    heap_.push_back(pair);
    std::push_heap(heap_.begin(), heap_.end(), Better);
  }

  size_t n_;
  /// Heap under Better: front() is the worst pair kept.
  std::vector<DivergentPair> heap_;
};

/// The L1 distance of every histogram's features (a bins-major
/// FeatureMatrix) to the pivot made of their per-bin (lower) medians:
/// rho[i] = sum_b |x_i[b] - median_b|.
std::vector<double> PivotDistances(const std::vector<double>& features,
                                   size_t k, size_t bins) {
  std::vector<double> rho(k, 0.0);
  std::vector<double> column(k);
  const size_t mid = (k - 1) / 2;
  for (size_t b = 0; b < bins; ++b) {
    const double* x = &features[b * k];
    column.assign(x, x + k);
    std::nth_element(column.begin(), column.begin() + mid, column.end());
    const double median = column[mid];
    for (size_t i = 0; i < k; ++i) rho[i] += std::abs(x[i] - median);
  }
  return rho;
}

}  // namespace

StatusOr<double> UnfairnessEvaluator::SortedAverage(
    const std::vector<Histogram>& histograms, const PerBinL1Form& form) const {
  FAIRRANK_RETURN_NOT_OK(CheckPairs(histograms));
  if (fault::OnDivergenceEval()) {
    return Status::Internal("fault injection: divergence evaluation failed");
  }
  const uint64_t start_ns = options_.trace != nullptr ? TraceNowNanos() : 0;
  const size_t k = histograms.size();
  const size_t bins = histograms[0].counts().size();
  ChargeMemory(k * bins * sizeof(double));
  std::vector<double> features = FeatureMatrix(histograms, form.features);
  std::vector<double> per_bin(bins, 0.0);
  FAIRRANK_RETURN_NOT_OK(RunCancellable(bins, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      per_bin[b] = SumOfAbsoluteDifferences(&features[b * k], k);
    }
  }));
  // Bin order, whatever the thread count.
  double sum = 0.0;
  for (double s : per_bin) sum += s;
  const size_t num_pairs = k * (k - 1) / 2;
  CountDivergences(num_pairs);
  if (options_.trace != nullptr) {
    options_.trace->AddEvent("emd", options_.trace_parent,
                             TraceNowNanos() - start_ns);
  }
  return form.scale * sum / static_cast<double>(num_pairs);
}

StatusOr<double> UnfairnessEvaluator::AveragePairwiseUnfairness(
    const Partitioning& partitioning) const {
  if (partitioning.size() < 2) return 0.0;
  return AveragePairwise(BuildHistograms(partitioning));
}

StatusOr<double> UnfairnessEvaluator::AveragePairwise(
    const std::vector<Histogram>& histograms) const {
  if (histograms.size() < 2) return 0.0;
  if (std::optional<PerBinL1Form> form = divergence_->L1Form(histograms[0])) {
    return SortedAverage(histograms, *form);
  }
  FAIRRANK_ASSIGN_OR_RETURN(std::vector<double> distances,
                            PairwiseDistances(histograms));
  double sum = 0.0;
  for (double d : distances) sum += d;
  return sum / static_cast<double>(distances.size());
}

StatusOr<std::vector<DivergentPair>> UnfairnessEvaluator::TopPairs(
    const std::vector<Histogram>& histograms, size_t n) const {
  const size_t k = histograms.size();
  if (k < 2 || n == 0) return std::vector<DivergentPair>();
  const size_t num_pairs = k * (k - 1) / 2;
  TopPairsBuffer top(n, num_pairs);
  std::optional<PerBinL1Form> form = divergence_->L1Form(histograms[0]);
  if (!form.has_value()) {
    for (size_t i = 0; i + 1 < k; ++i) {
      FAIRRANK_RETURN_NOT_OK(CheckStop());
      for (size_t j = i + 1; j < k; ++j) {
        FAIRRANK_ASSIGN_OR_RETURN(double d,
                                  Distance(histograms[i], histograms[j]));
        top.Offer(i, j, d);
      }
    }
    return std::move(top).Take();
  }

  FAIRRANK_RETURN_NOT_OK(CheckPairs(histograms));
  if (fault::OnDivergenceEval()) {
    return Status::Internal("fault injection: divergence evaluation failed");
  }
  const uint64_t start_ns = options_.trace != nullptr ? TraceNowNanos() : 0;
  const size_t bins = histograms[0].counts().size();
  ChargeMemory((k * bins + 2 * k) * sizeof(double));
  // Rank the histograms by their L1 distance rho to a median pivot,
  // farthest first (index ascending among equals). The triangle inequality
  // bounds every pair by scale * (rho_p + rho_q), which falls along each
  // row of that order, so a row stops at its first candidate bounded below
  // the n-th best distance kept, and the scan stops at the first row whose
  // nearest candidate is.
  std::vector<double> rho;
  std::vector<size_t> order(k);
  {
    const std::vector<double> unsorted =
        PivotDistances(FeatureMatrix(histograms, form->features), k, bins);
    for (size_t i = 0; i < k; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (unsorted[a] != unsorted[b]) return unsorted[a] > unsorted[b];
      return a < b;
    });
    rho.resize(k);
    for (size_t p = 0; p < k; ++p) rho[p] = unsorted[order[p]];
  }
  // Masses in rho order, bins-major, with Emd1D's divisions.
  std::vector<double> pmf(k * bins);
  for (size_t p = 0; p < k; ++p) {
    const std::vector<double>& counts = histograms[order[p]].counts();
    const double total = histograms[order[p]].total();
    for (size_t b = 0; b < bins; ++b) pmf[b * k + p] = counts[b] / total;
  }
  const double scale = form->scale;
  // rho and the distances round differently from the same masses, by at
  // most a few (bins + 1)^2 ulps of scale; a bound prunes only when it
  // clears the n-th best by more than that, so every pruned pair's computed
  // distance is strictly below one kept and the result is exact.
  const double margin = 16.0 * static_cast<double>((bins + 1) * (bins + 1)) *
                        std::numeric_limits<double>::epsilon() * scale;
  auto pruned = [&](size_t p, size_t q) {
    return top.full() && scale * (rho[p] + rho[q]) < top.worst() - margin;
  };
  const bool cdf = form->features == PerBinL1Form::Features::kCdf;
  // Candidates (p, q0..q0+len) side by side: the inner loops run over q, so
  // they vectorize, while each pair still takes Emd1D's (or tv's)
  // operations in Emd1D's order — the same double as Distance, since
  // swapping a pair only negates every difference exactly.
  constexpr size_t kBlock = 64;
  double diff[kBlock];
  double sum[kBlock];
  uint64_t evaluated = 0;
  for (size_t p = 0; p + 1 < k && !pruned(p, p + 1); ++p) {
    FAIRRANK_RETURN_NOT_OK(CheckStop());
    for (size_t q0 = p + 1; q0 < k; q0 += kBlock) {
      size_t len = std::min(kBlock, k - q0);
      while (len > 0 && pruned(p, q0 + len - 1)) --len;
      if (len == 0) break;
      std::fill(diff, diff + len, 0.0);
      std::fill(sum, sum + len, 0.0);
      for (size_t b = 0; b < bins; ++b) {
        const double x = pmf[b * k + p];
        const double* y = &pmf[b * k + q0];
        if (cdf) {
          for (size_t jj = 0; jj < len; ++jj) {
            diff[jj] += x - y[jj];
            sum[jj] += std::abs(diff[jj]);
          }
        } else {
          for (size_t jj = 0; jj < len; ++jj) sum[jj] += std::abs(x - y[jj]);
        }
      }
      evaluated += len;
      for (size_t jj = 0; jj < len; ++jj) sum[jj] *= scale;
      // Skip the block when none of it reaches the worst pair kept.
      if (top.full() && std::none_of(sum, sum + len, [&](double d) {
            return d >= top.worst();
          })) {
        continue;
      }
      for (size_t jj = 0; jj < len; ++jj) {
        top.Offer(order[p], order[q0 + jj], sum[jj]);
      }
    }
  }
  CountDivergences(evaluated);
  if (options_.trace != nullptr) {
    options_.trace->AddEvent("emd", options_.trace_parent,
                             TraceNowNanos() - start_ns);
  }
  return std::move(top).Take();
}

StatusOr<std::vector<DivergentPair>> TopDivergentPairs(
    const UnfairnessEvaluator& eval, const Partitioning& partitioning,
    size_t k) {
  if (partitioning.size() < 2 || k == 0) return std::vector<DivergentPair>();
  return eval.TopPairs(eval.BuildHistograms(partitioning), k);
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
