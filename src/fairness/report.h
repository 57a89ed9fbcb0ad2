#ifndef FAIRRANK_FAIRNESS_REPORT_H_
#define FAIRRANK_FAIRNESS_REPORT_H_

#include <string>
#include <vector>

#include "fairness/aggregate.h"
#include "fairness/auditor.h"

namespace fairrank {

/// Column-aligned plain-text table builder used by reports and the bench
/// harnesses that regenerate the paper's tables.
class TextTable {
 public:
  /// Sets the header row. Column count is fixed by the longest row.
  void SetHeader(std::vector<std::string> header);

  /// Appends a data row.
  void AddRow(std::vector<std::string> row);

  /// Renders with two-space column gaps and a dash rule under the header.
  std::string ToString() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Options controlling report rendering.
struct ReportOptions {
  /// Include an ASCII histogram per partition.
  bool include_histograms = false;
  /// Cap on the number of partitions listed (largest first); 0 = no cap.
  size_t max_partitions = 0;
};

/// Renders an audit result as a human-readable report: headline (algorithm,
/// function, unfairness, runtime, attributes used) plus a partition table.
std::string FormatAuditReport(const AuditResult& result,
                              const ReportOptions& options = ReportOptions());

/// Renders an audit result as a single CSV-ish machine-readable line:
/// algorithm,function,unfairness,seconds,num_partitions,attributes_used.
std::string FormatAuditCsvRow(const AuditResult& result);

/// Escapes a string for embedding in a JSON document (quotes, backslashes,
/// control characters). Exposed for testing.
std::string JsonEscape(const std::string& s);

/// Renders an audit result as a JSON object:
/// {
///   "algorithm": ..., "scoring_function": ..., "unfairness": ...,
///   "seconds": ..., "truncated": ..., "exhaustion_reason": ...,
///   "nodes_visited": ..., "attributes_used": [...],
///   "partitions": [{"label": ..., "size": ..., "mean_score": ...,
///                   "histogram": [counts...]}, ...]
/// }
std::string FormatAuditJson(const AuditResult& result);

/// Run metadata the aggregate formatters render alongside the result (the
/// CellStore itself carries no timing or provenance).
struct AggregateReportInfo {
  std::string scoring_function;
  std::string divergence = "emd";
  int ingest_threads = 1;
  double ingest_seconds = 0.0;
  double audit_seconds = 0.0;
};

/// Human-readable report of an aggregate (cell-store) audit: headline
/// (algorithm, function, unfairness, cells/observations, ingest + audit
/// timing, truncation) plus a partition table, mirroring FormatAuditReport.
std::string FormatAggregateAuditReport(
    const CellStore& store, const AggregateAuditResult& result,
    const AggregateReportInfo& info,
    const ReportOptions& options = ReportOptions());

/// JSON rendering of an aggregate audit:
/// {
///   "mode": "aggregate", "algorithm": ..., "scoring_function": ...,
///   "divergence": ..., "unfairness": ..., "truncated": ...,
///   "exhaustion_reason": ..., "ingest_threads": ..., "ingest_seconds": ...,
///   "audit_seconds": ..., "num_cells": ..., "num_observations": ...,
///   "attributes_used": [names...],
///   "partitions": [{"label": ..., "size": ..., "histogram": [counts...]}]
/// }
std::string FormatAggregateAuditJson(const CellStore& store,
                                     const AggregateAuditResult& result,
                                     const AggregateReportInfo& info);

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_REPORT_H_
