#include "fairness/report.h"

#include <algorithm>

#include "common/str_util.h"

namespace fairrank {

void TextTable::SetHeader(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TextTable::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string TextTable::ToString() const {
  size_t num_columns = header_.size();
  for (const auto& row : rows_) num_columns = std::max(num_columns, row.size());
  std::vector<size_t> widths(num_columns, 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  auto render = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += "  ";
      line += row[i];
      if (i + 1 < row.size()) {
        line.append(widths[i] - row[i].size(), ' ');
      }
    }
    line += "\n";
    return line;
  };

  std::string out;
  if (!header_.empty()) {
    out += render(header_);
    size_t rule_width = 0;
    for (size_t i = 0; i < num_columns; ++i) {
      rule_width += widths[i] + (i > 0 ? 2 : 0);
    }
    out.append(rule_width, '-');
    out += "\n";
  }
  for (const auto& row : rows_) out += render(row);
  return out;
}

std::string FormatAuditReport(const AuditResult& result,
                              const ReportOptions& options) {
  std::string out;
  out += "Audit: " + result.scoring_function + " via " + result.algorithm +
         "\n";
  out += "  unfairness (avg pairwise divergence): " +
         FormatDouble(result.unfairness, 4) + "\n";
  out += "  runtime: " + FormatDouble(result.seconds, 4) + " s\n";
  if (result.nodes_visited > 0) {
    out += "  nodes visited: " + std::to_string(result.nodes_visited);
    if (result.nodes_per_sec > 0.0) {
      out += " (" + FormatDouble(result.nodes_per_sec, 0) + " nodes/s)";
    }
    out += "\n";
  }
  // Work and range diagnostics print only when the audit recorded any, so
  // hand-built results render exactly as before.
  if (result.cache.histogram_misses > 0 || result.cache.divergence_misses > 0) {
    out += "  work: " + std::to_string(result.cache.histogram_misses) +
           " histograms built, " +
           std::to_string(result.cache.divergence_misses) +
           " divergences computed\n";
  }
  if (result.out_of_range_scores > 0) {
    out += "  warning: " + std::to_string(result.out_of_range_scores) +
           " scores fell outside the histogram range and were clamped into "
           "edge bins\n";
  }
  if (result.truncated) {
    out += "  truncated: search stopped early (" +
           std::string(ExhaustionReasonToString(result.exhaustion_reason)) +
           " after " + std::to_string(result.nodes_visited) +
           " nodes); showing best partitioning found so far\n";
  }
  out += "  partitions: " + std::to_string(result.partitions.size()) + "\n";
  out += "  attributes used: " +
         (result.attributes_used.empty()
              ? std::string("<none>")
              : Join(result.attributes_used, ", ")) +
         "\n";
  if (!result.worst_pairs.empty()) {
    out += "  most divergent pairs:\n";
    for (const DivergentPairSummary& pair : result.worst_pairs) {
      out += "    " + pair.label_a + "  vs  " + pair.label_b + "  (" +
             FormatDouble(pair.distance, 3) + ")\n";
    }
  }
  out += "\n";

  TextTable table;
  table.SetHeader({"partition", "size", "mean score"});
  size_t limit = options.max_partitions == 0
                     ? result.partitions.size()
                     : std::min(options.max_partitions,
                                result.partitions.size());
  for (size_t i = 0; i < limit; ++i) {
    const PartitionSummary& p = result.partitions[i];
    table.AddRow({p.label, std::to_string(p.size),
                  FormatDouble(p.mean_score, 3)});
  }
  out += table.ToString();
  if (limit < result.partitions.size()) {
    out += "... (" + std::to_string(result.partitions.size() - limit) +
           " more partitions)\n";
  }

  if (options.include_histograms) {
    for (size_t i = 0; i < limit; ++i) {
      const PartitionSummary& p = result.partitions[i];
      out += "\n" + p.label + ":\n" + p.histogram.ToAscii();
    }
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string FormatAuditJson(const AuditResult& result) {
  std::string out = "{";
  out += "\"algorithm\":\"" + JsonEscape(result.algorithm) + "\",";
  out += "\"scoring_function\":\"" + JsonEscape(result.scoring_function) +
         "\",";
  out += "\"unfairness\":" + FormatDouble(result.unfairness, 6) + ",";
  out += "\"seconds\":" + FormatDouble(result.seconds, 6) + ",";
  out += std::string("\"truncated\":") +
         (result.truncated ? "true" : "false") + ",";
  out += "\"exhaustion_reason\":\"" +
         std::string(ExhaustionReasonToString(result.exhaustion_reason)) +
         "\",";
  out += "\"nodes_visited\":" + std::to_string(result.nodes_visited) + ",";
  out += "\"nodes_per_sec\":" + FormatDouble(result.nodes_per_sec, 1) + ",";
  out += "\"out_of_range_scores\":" +
         std::to_string(result.out_of_range_scores) + ",";
  out += "\"work\":{\"histograms_built\":" +
         std::to_string(result.cache.histogram_misses) +
         ",\"divergences_computed\":" +
         std::to_string(result.cache.divergence_misses) + "},";
  out += "\"attributes_used\":[";
  for (size_t i = 0; i < result.attributes_used.size(); ++i) {
    if (i > 0) out += ",";
    // Stepwise append: chained operator+ trips GCC 12's -Wrestrict false
    // positive (PR105651) under -Werror.
    out += "\"";
    out += JsonEscape(result.attributes_used[i]);
    out += "\"";
  }
  out += "],\"partitions\":[";
  for (size_t i = 0; i < result.partitions.size(); ++i) {
    const PartitionSummary& p = result.partitions[i];
    if (i > 0) out += ",";
    out += "{\"label\":\"" + JsonEscape(p.label) + "\",";
    out += "\"size\":" + std::to_string(p.size) + ",";
    out += "\"mean_score\":" + FormatDouble(p.mean_score, 6) + ",";
    out += "\"histogram\":[";
    for (size_t b = 0; b < p.histogram.counts().size(); ++b) {
      if (b > 0) out += ",";
      out += FormatDouble(p.histogram.counts()[b], 0);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string FormatAggregateAuditReport(const CellStore& store,
                                       const AggregateAuditResult& result,
                                       const AggregateReportInfo& info,
                                       const ReportOptions& options) {
  std::string out;
  out += "aggregate audit (cell store)\n";
  out += "  algorithm:      " + result.algorithm + "\n";
  out += "  function:       " + info.scoring_function + "\n";
  out += "  divergence:     " + info.divergence + "\n";
  out += "  unfairness:     " + FormatDouble(result.unfairness, 6) + "\n";
  out += "  observations:   " + std::to_string(store.num_observations()) +
         " in " + std::to_string(store.num_cells()) + " cells\n";
  out += "  ingest:         " + FormatDouble(info.ingest_seconds, 3) + "s (" +
         std::to_string(info.ingest_threads) + " thread" +
         (info.ingest_threads == 1 ? "" : "s") + ")\n";
  out += "  audit:          " + FormatDouble(info.audit_seconds, 3) + "s\n";
  if (result.truncated) {
    out += "  truncated:      search stopped early (" +
           std::string(ExhaustionReasonToString(result.exhaustion_reason)) +
           " after " + std::to_string(result.nodes_visited) +
           " nodes); showing best partitioning found so far\n";
  }
  std::vector<std::string> attr_names;
  attr_names.reserve(result.attributes_used.size());
  for (size_t index : result.attributes_used) {
    attr_names.push_back(store.specs()[index].name());
  }
  out += "  attributes:     " +
         (attr_names.empty() ? std::string("(none)") : Join(attr_names, ", ")) +
         "\n\n";

  TextTable table;
  table.SetHeader({"partition", "size"});
  size_t limit = options.max_partitions == 0
                     ? result.partitions.size()
                     : std::min(options.max_partitions,
                                result.partitions.size());
  for (size_t i = 0; i < limit; ++i) {
    const AggregatePartition& p = result.partitions[i];
    table.AddRow({p.label, std::to_string(p.size)});
  }
  out += table.ToString();
  if (limit < result.partitions.size()) {
    out += "... (" + std::to_string(result.partitions.size() - limit) +
           " more partitions)\n";
  }
  if (options.include_histograms) {
    for (size_t i = 0; i < limit; ++i) {
      const AggregatePartition& p = result.partitions[i];
      out += "\n" + p.label + ":\n" + p.histogram.ToAscii();
    }
  }
  return out;
}

std::string FormatAggregateAuditJson(const CellStore& store,
                                     const AggregateAuditResult& result,
                                     const AggregateReportInfo& info) {
  std::string out = "{";
  out += "\"mode\":\"aggregate\",";
  out += "\"algorithm\":\"" + JsonEscape(result.algorithm) + "\",";
  out += "\"scoring_function\":\"" + JsonEscape(info.scoring_function) +
         "\",";
  out += "\"divergence\":\"" + JsonEscape(info.divergence) + "\",";
  out += "\"unfairness\":" + FormatDouble(result.unfairness, 6) + ",";
  out += std::string("\"truncated\":") +
         (result.truncated ? "true" : "false") + ",";
  out += "\"exhaustion_reason\":\"" +
         std::string(ExhaustionReasonToString(result.exhaustion_reason)) +
         "\",";
  out += "\"ingest_threads\":" + std::to_string(info.ingest_threads) + ",";
  out += "\"ingest_seconds\":" + FormatDouble(info.ingest_seconds, 6) + ",";
  out += "\"audit_seconds\":" + FormatDouble(info.audit_seconds, 6) + ",";
  out += "\"num_cells\":" + std::to_string(store.num_cells()) + ",";
  out += "\"num_observations\":" + std::to_string(store.num_observations()) +
         ",";
  out += "\"attributes_used\":[";
  for (size_t i = 0; i < result.attributes_used.size(); ++i) {
    if (i > 0) out += ",";
    // Stepwise append: chained operator+ trips GCC 12's -Wrestrict false
    // positive (PR105651) under -Werror.
    out += "\"";
    out += JsonEscape(store.specs()[result.attributes_used[i]].name());
    out += "\"";
  }
  out += "],\"partitions\":[";
  for (size_t i = 0; i < result.partitions.size(); ++i) {
    const AggregatePartition& p = result.partitions[i];
    if (i > 0) out += ",";
    out += "{\"label\":\"" + JsonEscape(p.label) + "\",";
    out += "\"size\":" + std::to_string(p.size) + ",";
    out += "\"histogram\":[";
    for (size_t b = 0; b < p.histogram.counts().size(); ++b) {
      if (b > 0) out += ",";
      out += FormatDouble(p.histogram.counts()[b], 0);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string FormatAuditCsvRow(const AuditResult& result) {
  // RFC-4180: every field is escaped — algorithm and function names are
  // caller-supplied and may contain commas or quotes, and the |-joined
  // attribute list is escaped as one field.
  std::vector<std::string> fields = {
      CsvEscape(result.algorithm),
      CsvEscape(result.scoring_function),
      FormatDouble(result.unfairness, 6),
      FormatDouble(result.seconds, 6),
      std::to_string(result.partitions.size()),
      CsvEscape(Join(result.attributes_used, "|")),
  };
  return Join(fields, ",");
}

}  // namespace fairrank
