#include "decomposed_audit.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "fairness/algorithm.h"
#include "fairness/evaluator.h"
#include "fairness/registry.h"
#include "fairness/report.h"

namespace ledger {

using fairrank::AuditOptions;
using fairrank::AuditResult;
using fairrank::Partition;
using fairrank::Partitioning;
using fairrank::StatusOr;

namespace {

/// Ends a span when destroyed. Declared before the evaluators, it outlives
/// them, so the span it closes covers their destruction (the memo caches).
class EndOnExit {
 public:
  explicit EndOnExit(SpanLog* log) : log_(log) {}
  ~EndOnExit() { log_->End(id); }
  EndOnExit(const EndOnExit&) = delete;
  EndOnExit& operator=(const EndOnExit&) = delete;
  int64_t id = -1;

 private:
  SpanLog* log_;
};

/// FormatAuditJson with the wall-clock fields ("seconds", "nodes_per_sec")
/// zeroed, so two runs of one computation render identically.
std::string JsonWithoutWallClock(AuditResult result) {
  result.seconds = 0.0;
  result.nodes_per_sec = 0.0;
  return fairrank::FormatAuditJson(result);
}

}  // namespace

StatusOr<AuditResult> RunDecomposedAudit(const fairrank::Table& table,
                                         const fairrank::ScoringFunction& fn,
                                         const AuditOptions& options,
                                         SpanLog* log,
                                         DecomposedStats* stats) {
  ScopedSpan op(log, "op");
  const fairrank::Schema& schema = table.schema();

  std::vector<double> scores;
  {
    ScopedSpan span(log, "marketplace.score", op.id());
    FAIRRANK_ASSIGN_OR_RETURN(scores, fn.ScoreAll(table));
  }
  if (table.num_rows() == 0) {
    return fairrank::Status::FailedPrecondition("cannot audit an empty table");
  }
  std::vector<size_t> attrs = schema.ProtectedIndices();
  if (!options.protected_attributes.empty()) {
    attrs.clear();
    for (const std::string& name : options.protected_attributes) {
      FAIRRANK_ASSIGN_OR_RETURN(size_t index, schema.FindIndex(name));
      attrs.push_back(index);
    }
  }

  fairrank::ResourceBudget budget = options.limits.MakeBudget();
  fairrank::ExecutionContext context = options.limits.MakeContext(&budget);

  // Evaluators in AuditScores' order: the search one carries the deadline
  // and cancellation, the reporting one stays unbounded.
  EndOnExit teardown(log);
  fairrank::EvaluatorOptions search_options = options.evaluator;
  search_options.deadline = context.deadline();
  search_options.cancel = context.cancel();
  fairrank::EvaluatorOptions report_options = options.evaluator;

  int64_t make_span = log->Begin("search.evaluator_make", op.id());
  std::vector<double> scores_copy = scores;
  FAIRRANK_ASSIGN_OR_RETURN(
      fairrank::UnfairnessEvaluator search_eval,
      fairrank::UnfairnessEvaluator::Make(&table, std::move(scores_copy),
                                          search_options));
  FAIRRANK_ASSIGN_OR_RETURN(
      fairrank::UnfairnessEvaluator eval,
      fairrank::UnfairnessEvaluator::Make(&table, std::move(scores),
                                          report_options));
  const bool shared_cache = options.evaluator.shared_cache != nullptr;
  if (!shared_cache) search_eval.AttachExecutionContext(context);
  log->End(make_span);

  fairrank::AlgorithmConfig config;
  config.seed = options.seed;
  config.exhaustive = options.exhaustive;
  config.beam_width = options.beam_width;
  FAIRRANK_ASSIGN_OR_RETURN(
      std::unique_ptr<fairrank::PartitioningAlgorithm> algorithm,
      fairrank::MakeAlgorithmByName(options.algorithm, config));

  const uint64_t search_start = NowNanos();
  int64_t run_span = log->Begin("search.run", op.id());
  FAIRRANK_ASSIGN_OR_RETURN(fairrank::SearchResult search,
                            algorithm->Run(search_eval, std::move(attrs),
                                           context));
  log->End(run_span);
  const double seconds = (NowNanos() - search_start) / 1e9;
  search.cache = search_eval.cache_stats();
  Partitioning partitioning = std::move(search.partitioning);

  AuditResult result;
  result.algorithm = algorithm->Name();
  result.scoring_function = fn.Name();
  result.seconds = seconds;
  result.truncated = search.truncated;
  result.exhaustion_reason = search.reason;
  result.nodes_visited = search.nodes_visited;
  result.nodes_per_sec =
      seconds > 0.0 ? static_cast<double>(search.nodes_visited) / seconds
                    : 0.0;
  result.out_of_range_scores = search_eval.num_out_of_range();

  {
    ScopedSpan span(log, "report.unfairness", op.id());
    FAIRRANK_ASSIGN_OR_RETURN(result.unfairness,
                              eval.AveragePairwiseUnfairness(partitioning));
  }
  result.attributes_used = fairrank::AttributesUsed(schema, partitioning);
  if (options.num_worst_pairs > 0) {
    ScopedSpan span(log, "report.top_pairs", op.id());
    FAIRRANK_ASSIGN_OR_RETURN(
        std::vector<fairrank::DivergentPair> pairs,
        fairrank::TopDivergentPairs(eval, partitioning,
                                    options.num_worst_pairs));
    for (const fairrank::DivergentPair& pair : pairs) {
      result.worst_pairs.push_back(
          {fairrank::PartitionLabel(schema, partitioning[pair.index_a]),
           fairrank::PartitionLabel(schema, partitioning[pair.index_b]),
           pair.distance});
    }
  }
  {
    ScopedSpan span(log, "report.summaries", op.id());
    result.partitions.reserve(partitioning.size());
    for (const Partition& p : partitioning) {
      fairrank::PartitionSummary summary;
      summary.label = fairrank::PartitionLabel(schema, p);
      summary.size = p.size();
      summary.histogram = eval.BuildHistogram(p);
      double sum = 0.0;
      for (size_t row : p.rows) sum += eval.scores()[row];
      summary.mean_score = p.rows.empty() ? 0.0 : sum / p.size();
      result.partitions.push_back(std::move(summary));
    }
    std::stable_sort(
        result.partitions.begin(), result.partitions.end(),
        [](const fairrank::PartitionSummary& a,
           const fairrank::PartitionSummary& b) { return a.size > b.size; });
  }
  result.partitioning = std::move(partitioning);
  if (shared_cache) {
    result.cache = eval.cache_stats();
  } else {
    result.cache = search.cache;
    result.cache.Add(eval.cache_stats());
  }
  {
    ScopedSpan span(log, "report.json", op.id());
    stats->json_bytes = fairrank::FormatAuditJson(result).size();
  }

  stats->search_cache = search.cache;
  stats->report_cache = eval.cache_stats();
  const uint64_t k = result.partitioning.size();
  stats->partitions = k;
  stats->pairs = k * (k > 0 ? k - 1 : 0) / 2;
  // The two evaluators and their caches are destroyed on return.
  teardown.id = log->Begin("search.evaluator_teardown", op.id());
  return result;
}


std::string CompareWithAudit(const AuditResult& decomposed,
                             const AuditResult& audited) {
  if (std::memcmp(&decomposed.unfairness, &audited.unfairness,
                  sizeof(double)) != 0) {
    return "unfairness differs";
  }
  const Partitioning& a = decomposed.partitioning;
  const Partitioning& b = audited.partitioning;
  if (a.size() != b.size()) return "partition count differs";
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rows != b[i].rows) return "partition row sets differ";
    if (a[i].path != b[i].path) return "partition paths differ";
  }
  if (JsonWithoutWallClock(decomposed) != JsonWithoutWallClock(audited)) {
    return "JSON reports differ";
  }
  return "";
}

}  // namespace ledger
