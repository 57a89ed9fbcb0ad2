#include "fairness/suite.h"

#include <exception>
#include <utility>

#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "fairness/report.h"

namespace fairrank {

namespace {

/// Everything one scoring-function column shares across its algorithm
/// cells: the scores (computed once, not once per cell) and the scoring
/// status poisoning the column's cells when ScoreAll failed.
struct ColumnState {
  Status status;
  std::vector<double> scores;
};

}  // namespace

StatusOr<SuiteResult> AuditSuite::Run(
    const std::vector<const ScoringFunction*>& functions,
    const SuiteOptions& options) const {
  if (functions.empty()) {
    return Status::InvalidArgument("suite needs at least one function");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  SuiteResult result;
  result.algorithms = options.algorithms.empty() ? PaperAlgorithmNames()
                                                 : options.algorithms;
  for (const ScoringFunction* fn : functions) {
    if (fn == nullptr) {
      return Status::InvalidArgument("null scoring function");
    }
    result.functions.push_back(fn->Name());
  }
  // Unknown algorithm names are a configuration error of the whole grid, so
  // they fail the run up-front instead of failing A cells one by one.
  AlgorithmConfig config;
  config.seed = options.audit.seed;
  config.exhaustive = options.audit.exhaustive;
  config.beam_width = options.audit.beam_width;
  for (const std::string& name : result.algorithms) {
    FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<PartitioningAlgorithm> probe,
                              MakeAlgorithmByName(name, config));
    (void)probe;  // Only the name resolution matters here.
  }

  const size_t num_algorithms = result.algorithms.size();
  const size_t num_functions = functions.size();

  // Arm the suite deadline once so every cell shares it; cells reached
  // after expiry degrade instantly instead of each getting a fresh
  // allowance. A caller-armed deadline and timeout_ms compose — the earlier
  // of the two wins (see SuiteOptions::audit).
  const Deadline deadline = options.audit.limits.EffectiveDeadline();

  // One parent budget bounds the aggregate work: every cell gets a
  // locally-unlimited child charging through to it, so the grid
  // respects the user's total --max-nodes/--max-memory-mb while the child
  // counters keep per-cell observability.
  ResourceBudget parent_budget = options.audit.limits.MakeBudget();

  // Score each function once per column.
  std::vector<ColumnState> columns(num_functions);
  for (size_t f = 0; f < num_functions; ++f) {
    StatusOr<std::vector<double>> scores = functions[f]->ScoreAll(*table_);
    if (scores.ok()) {
      columns[f].scores = std::move(scores).value();
    } else {
      columns[f].status = scores.status();
    }
  }

  result.cells.assign(num_algorithms, std::vector<SuiteCell>(num_functions));

  FairnessAuditor auditor(table_);
  Stopwatch wall;
  // Dispatch the cells onto a dynamically scheduled pool. Every cell writes
  // only its own pre-allocated slot, so the grid assembles in deterministic
  // (algorithm, function) order no matter which cells finish first, and one
  // failing cell degrades that cell alone — completed cells are kept.
  ParallelForEach(
      num_algorithms * num_functions, options.num_threads, [&](size_t job) {
        const size_t a = job / num_functions;
        const size_t f = job % num_functions;
        SuiteCell& cell = result.cells[a][f];
        cell.algorithm = result.algorithms[a];
        cell.function = result.functions[f];
        if (!columns[f].status.ok()) {
          cell.error = columns[f].status;
          return;
        }
        AuditOptions audit_options = options.audit;
        audit_options.algorithm = result.algorithms[a];
        audit_options.seed = options.audit.seed + f;
        audit_options.num_worst_pairs = 0;
        // The grid-wide limits are already in `deadline` and
        // `parent_budget`; the cell's own caps stay 0 (unlimited).
        audit_options.limits = ExecutionLimits();
        audit_options.limits.deadline = deadline;
        audit_options.limits.cancel = options.audit.limits.cancel;
        // Spans from every cell land on the caller's trace (the recorder is
        // thread-safe); each cell's "audit" root carries its own subtree.
        audit_options.limits.trace = options.audit.limits.trace;
        audit_options.limits.parent_budget = &parent_budget;
        StatusOr<AuditResult> audit = Status::Internal("audit not run");
        try {
          audit = auditor.AuditScores(columns[f].scores,
                                      result.functions[f], audit_options);
        } catch (const std::exception& e) {
          audit = Status::Internal(std::string("audit threw: ") + e.what());
        } catch (...) {
          audit = Status::Internal("audit threw a non-standard exception");
        }
        if (!audit.ok()) {
          cell.error = audit.status();
          return;
        }
        cell.unfairness = audit->unfairness;
        cell.seconds = audit->seconds;
        cell.num_partitions = audit->partitions.size();
        cell.attributes_used = std::move(audit->attributes_used);
        cell.truncated = audit->truncated;
        cell.exhaustion_reason = audit->exhaustion_reason;
        cell.nodes_visited = audit->nodes_visited;
        cell.nodes_per_sec = audit->nodes_per_sec;
        cell.cache = audit->cache;
      });
  result.summary.wall_seconds = wall.ElapsedSeconds();

  for (const auto& row : result.cells) {
    for (const SuiteCell& cell : row) {
      result.summary.cache.Add(cell.cache);
      result.summary.cell_seconds += cell.seconds;
      result.summary.total_nodes += cell.nodes_visited;
      if (cell.truncated) ++result.summary.cells_truncated;
      if (!cell.error.ok()) ++result.summary.cells_failed;
    }
  }
  result.summary.nodes_per_sec =
      result.summary.wall_seconds > 0.0
          ? static_cast<double>(result.summary.total_nodes) /
                result.summary.wall_seconds
          : 0.0;
  return result;
}

namespace {

std::string FormatGrid(const SuiteResult& result, bool runtime) {
  TextTable table;
  std::vector<std::string> header = {"Algorithm"};
  header.insert(header.end(), result.functions.begin(),
                result.functions.end());
  table.SetHeader(header);
  for (size_t a = 0; a < result.algorithms.size(); ++a) {
    std::vector<std::string> row = {result.algorithms[a]};
    for (const SuiteCell& cell : result.cells[a]) {
      row.push_back(cell.error.ok() ? FormatDouble(
                                          runtime ? cell.seconds
                                                  : cell.unfairness,
                                          3)
                                    : std::string("ERR"));
    }
    table.AddRow(row);
  }
  return table.ToString();
}

}  // namespace

std::string FormatSuiteUnfairness(const SuiteResult& result) {
  return FormatGrid(result, /*runtime=*/false);
}

std::string FormatSuiteRuntime(const SuiteResult& result) {
  return FormatGrid(result, /*runtime=*/true);
}

std::string FormatSuiteCsv(const SuiteResult& result) {
  std::string out =
      "algorithm,function,unfairness,seconds,num_partitions,attributes,"
      "truncated,exhaustion_reason,nodes_visited,nodes_per_sec,"
      "histograms_built,divergences_computed,error\n";
  for (const auto& row : result.cells) {
    for (const SuiteCell& cell : row) {
      std::vector<std::string> fields = {
          CsvEscape(cell.algorithm),
          CsvEscape(cell.function),
          FormatDouble(cell.unfairness, 6),
          FormatDouble(cell.seconds, 6),
          std::to_string(cell.num_partitions),
          CsvEscape(Join(cell.attributes_used, "|")),
          cell.truncated ? "true" : "false",
          ExhaustionReasonToString(cell.exhaustion_reason),
          std::to_string(cell.nodes_visited),
          FormatDouble(cell.nodes_per_sec, 1),
          std::to_string(cell.cache.histogram_misses),
          std::to_string(cell.cache.divergence_misses),
          CsvEscape(cell.error.ok() ? "" : cell.error.ToString()),
      };
      out += Join(fields, ",");
      out += "\n";
    }
  }
  return out;
}

std::string FormatSuiteSummary(const SuiteResult& result) {
  const SuiteSummary& s = result.summary;
  const size_t cells = result.algorithms.size() * result.functions.size();
  std::string out;
  out += "suite: ";
  out += std::to_string(cells);
  out += " cells in ";
  out += FormatDouble(s.wall_seconds, 3);
  out += " s wall (";
  out += FormatDouble(s.cell_seconds, 3);
  out += " s serial-equivalent";
  if (s.wall_seconds > 0.0) {
    out += ", ";
    out += FormatDouble(s.cell_seconds / s.wall_seconds, 2);
    out += "x speedup";
  }
  out += ")\n";
  out += "search: ";
  out += std::to_string(s.total_nodes);
  out += " nodes (";
  out += FormatDouble(s.nodes_per_sec, 0);
  out += " nodes/s), ";
  out += std::to_string(s.cells_truncated);
  out += " cells truncated, ";
  out += std::to_string(s.cells_failed);
  out += " failed\n";
  out += "work: ";
  out += std::to_string(s.cache.histogram_misses);
  out += " histograms built, ";
  out += std::to_string(s.cache.divergence_misses);
  out += " divergences computed\n";
  return out;
}

std::string FormatSuiteSummaryCsv(const SuiteResult& result) {
  const SuiteSummary& s = result.summary;
  std::string out =
      "wall_seconds,cell_seconds,total_nodes,nodes_per_sec,cells_truncated,"
      "cells_failed,histograms_built,divergences_computed\n";
  std::vector<std::string> fields = {
      FormatDouble(s.wall_seconds, 6),
      FormatDouble(s.cell_seconds, 6),
      std::to_string(s.total_nodes),
      FormatDouble(s.nodes_per_sec, 1),
      std::to_string(s.cells_truncated),
      std::to_string(s.cells_failed),
      std::to_string(s.cache.histogram_misses),
      std::to_string(s.cache.divergence_misses),
  };
  out += Join(fields, ",");
  out += "\n";
  return out;
}

namespace {

void AppendWorkJson(std::string& out, const EvalCacheStats& work) {
  out += "{\"histograms_built\":";
  out += std::to_string(work.histogram_misses);
  out += ",\"divergences_computed\":";
  out += std::to_string(work.divergence_misses);
  out += "}";
}

}  // namespace

std::string FormatSuiteJson(const SuiteResult& result) {
  std::string out = "{\"algorithms\":[";
  for (size_t a = 0; a < result.algorithms.size(); ++a) {
    if (a > 0) out += ",";
    out += "\"";
    out += JsonEscape(result.algorithms[a]);
    out += "\"";
  }
  out += "],\"functions\":[";
  for (size_t f = 0; f < result.functions.size(); ++f) {
    if (f > 0) out += ",";
    out += "\"";
    out += JsonEscape(result.functions[f]);
    out += "\"";
  }
  out += "],\"cells\":[";
  for (size_t a = 0; a < result.cells.size(); ++a) {
    if (a > 0) out += ",";
    out += "[";
    for (size_t f = 0; f < result.cells[a].size(); ++f) {
      const SuiteCell& cell = result.cells[a][f];
      if (f > 0) out += ",";
      out += "{\"algorithm\":\"";
      out += JsonEscape(cell.algorithm);
      out += "\",\"function\":\"";
      out += JsonEscape(cell.function);
      out += "\",\"unfairness\":";
      out += FormatDouble(cell.unfairness, 6);
      out += ",\"seconds\":";
      out += FormatDouble(cell.seconds, 6);
      out += ",\"num_partitions\":";
      out += std::to_string(cell.num_partitions);
      out += ",\"attributes_used\":[";
      for (size_t i = 0; i < cell.attributes_used.size(); ++i) {
        if (i > 0) out += ",";
        out += "\"";
        out += JsonEscape(cell.attributes_used[i]);
        out += "\"";
      }
      out += "],\"truncated\":";
      out += cell.truncated ? "true" : "false";
      out += ",\"exhaustion_reason\":\"";
      out += ExhaustionReasonToString(cell.exhaustion_reason);
      out += "\",\"nodes_visited\":";
      out += std::to_string(cell.nodes_visited);
      out += ",\"nodes_per_sec\":";
      out += FormatDouble(cell.nodes_per_sec, 1);
      out += ",\"work\":";
      AppendWorkJson(out, cell.cache);
      out += ",\"error\":\"";
      out += JsonEscape(cell.error.ok() ? "" : cell.error.ToString());
      out += "\"}";
    }
    out += "]";
  }
  const SuiteSummary& s = result.summary;
  out += "],\"summary\":{\"wall_seconds\":";
  out += FormatDouble(s.wall_seconds, 6);
  out += ",\"cell_seconds\":";
  out += FormatDouble(s.cell_seconds, 6);
  out += ",\"total_nodes\":";
  out += std::to_string(s.total_nodes);
  out += ",\"nodes_per_sec\":";
  out += FormatDouble(s.nodes_per_sec, 1);
  out += ",\"cells_truncated\":";
  out += std::to_string(s.cells_truncated);
  out += ",\"cells_failed\":";
  out += std::to_string(s.cells_failed);
  out += ",\"work\":";
  AppendWorkJson(out, s.cache);
  out += "}}";
  return out;
}

}  // namespace fairrank
