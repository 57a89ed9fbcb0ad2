#ifndef FAIRRANK_LEDGER_SRC_DECOMPOSED_AUDIT_H_
#define FAIRRANK_LEDGER_SRC_DECOMPOSED_AUDIT_H_

// FairnessAuditor::AuditScores taken apart into its public calls, in the
// same order, each wrapped in a benchmark-side span. The traced run uses it
// to split an audit's time across the layers; it must reproduce Audit()
// exactly (CompareWithAudit), or the run fails.

#include <string>

#include "common/status.h"
#include "data/table.h"
#include "fairness/auditor.h"
#include "harness.h"
#include "marketplace/scoring.h"

namespace ledger {

/// Counts the per-layer metrics read off one decomposed audit.
struct DecomposedStats {
  fairrank::EvalCacheStats search_cache;  ///< SearchResult.cache.
  fairrank::EvalCacheStats report_cache;  ///< Reporting evaluator only.
  uint64_t partitions = 0;                ///< Partitions reported on.
  uint64_t pairs = 0;                     ///< Partition pairs reported on.
  uint64_t json_bytes = 0;                ///< Size of the JSON report.
};

/// Runs the audit of `fn` over `table` the way AuditScores does, recording
/// spans into `log` under a root span named "op": marketplace.score,
/// search.evaluator_make, search.run, report.unfairness, report.top_pairs,
/// report.summaries, report.json, and search.evaluator_teardown (freeing
/// both evaluators' memo caches).
fairrank::StatusOr<fairrank::AuditResult> RunDecomposedAudit(
    const fairrank::Table& table, const fairrank::ScoringFunction& fn,
    const fairrank::AuditOptions& options, SpanLog* log,
    DecomposedStats* stats);

/// Empty when `decomposed` matches `audited` bit for bit (partitioning row
/// sets and paths, unfairness, and the JSON report with its wall-clock
/// fields zeroed); otherwise the first difference.
std::string CompareWithAudit(const fairrank::AuditResult& decomposed,
                             const fairrank::AuditResult& audited);

}  // namespace ledger

#endif  // FAIRRANK_LEDGER_SRC_DECOMPOSED_AUDIT_H_
