#include "fairness/suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/fault_injection.h"
#include "marketplace/biased_scoring.h"
#include "marketplace/generator.h"
#include "marketplace/scoring.h"

namespace fairrank {
namespace {

Table Workers(size_t n = 150) {
  GeneratorOptions options;
  options.num_workers = n;
  options.seed = 8;
  return GenerateWorkers(options).value();
}

TEST(AuditSuiteTest, DefaultGridShape) {
  Table workers = Workers();
  AuditSuite suite(&workers);
  auto f1 = MakeAlphaFunction("f1", 0.5);
  auto f4 = MakeAlphaFunction("f4", 1.0);
  auto result = suite.Run({f1.get(), f4.get()});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->algorithms, PaperAlgorithmNames());
  EXPECT_EQ(result->functions.size(), 2u);
  ASSERT_EQ(result->cells.size(), 5u);
  for (const auto& row : result->cells) {
    ASSERT_EQ(row.size(), 2u);
    for (const SuiteCell& cell : row) {
      EXPECT_GE(cell.unfairness, 0.0);
      EXPECT_GE(cell.seconds, 0.0);
      EXPECT_GE(cell.num_partitions, 1u);
    }
  }
}

TEST(AuditSuiteTest, CustomAlgorithms) {
  Table workers = Workers();
  AuditSuite suite(&workers);
  auto f6 = MakeF6(3);
  SuiteOptions options;
  options.algorithms = {"balanced", "beam"};
  auto result = suite.Run({f6.get()}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cells.size(), 2u);
  EXPECT_EQ(result->cells[0][0].algorithm, "balanced");
  EXPECT_EQ(result->cells[1][0].algorithm, "beam");
}

TEST(AuditSuiteTest, RestrictedAttributesFlowThrough) {
  Table workers = Workers();
  AuditSuite suite(&workers);
  auto f7 = MakeF7(3);
  SuiteOptions options;
  options.algorithms = {"all-attributes"};
  options.audit.protected_attributes = {"Gender"};
  auto result = suite.Run({f7.get()}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cells[0][0].num_partitions, 2u);
}

TEST(AuditSuiteTest, EmptyFunctionsFails) {
  Table workers = Workers();
  AuditSuite suite(&workers);
  EXPECT_FALSE(suite.Run({}).ok());
}

TEST(AuditSuiteTest, NullFunctionFails) {
  Table workers = Workers();
  AuditSuite suite(&workers);
  EXPECT_FALSE(suite.Run({nullptr}).ok());
}

TEST(AuditSuiteTest, UnknownAlgorithmFails) {
  Table workers = Workers();
  AuditSuite suite(&workers);
  auto f1 = MakeAlphaFunction("f1", 0.5);
  SuiteOptions options;
  options.algorithms = {"bogus"};
  EXPECT_EQ(suite.Run({f1.get()}, options).status().code(),
            StatusCode::kNotFound);
}

TEST(AuditSuiteTest, FormattersRenderGrid) {
  Table workers = Workers();
  AuditSuite suite(&workers);
  auto f1 = MakeAlphaFunction("f1", 0.5);
  auto f6 = MakeF6(3);
  SuiteOptions options;
  options.algorithms = {"balanced", "unbalanced"};
  SuiteResult result = suite.Run({f1.get(), f6.get()}, options).value();
  std::string unfairness = FormatSuiteUnfairness(result);
  EXPECT_NE(unfairness.find("balanced"), std::string::npos);
  EXPECT_NE(unfairness.find("f6"), std::string::npos);
  std::string runtime = FormatSuiteRuntime(result);
  EXPECT_NE(runtime.find("Algorithm"), std::string::npos);
  std::string csv = FormatSuiteCsv(result);
  // Header + 4 cells.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
}

// Regression: a failing cell must degrade that cell alone, never abort the
// grid (the scheduler used to FAIRRANK_ASSIGN_OR_RETURN out of the loop on
// the first failed audit, dropping every other cell's finished work).
TEST(AuditSuiteTest, FailedCellDoesNotAbortGrid) {
  Table workers = Workers();
  AuditSuite suite(&workers);
  auto f1 = MakeAlphaFunction("f1", 0.5);
  SuiteOptions options;
  options.algorithms = {"balanced", "unbalanced"};
  options.num_threads = 1;  // Deterministic cell order: the fault is one-shot.
  fault::FaultPlan plan;
  plan.fail_divergence_eval = 1;  // First divergence computation fails.
  fault::ScopedFaultPlan armed(plan);
  auto result = suite.Run({f1.get()}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->cells[0][0].error.ok());
  EXPECT_TRUE(result->cells[1][0].error.ok());
  EXPECT_GE(result->cells[1][0].num_partitions, 1u);
  EXPECT_EQ(result->summary.cells_failed, 1u);
  EXPECT_NE(FormatSuiteUnfairness(*result).find("ERR"), std::string::npos);
  EXPECT_NE(FormatSuiteCsv(*result).find("Internal"), std::string::npos);
}

// A deadline expiring mid-grid truncates the cells it catches; no cell goes
// missing and none turns into an error.
TEST(AuditSuiteTest, DeadlineExpiryMidGridTruncatesLateCells) {
  Table workers = Workers();
  AuditSuite suite(&workers);
  auto f1 = MakeAlphaFunction("f1", 0.5);
  auto f4 = MakeAlphaFunction("f4", 1.0);
  SuiteOptions options;
  options.algorithms = {"balanced", "unbalanced", "all-attributes"};
  options.audit.limits.deadline = Deadline::AfterMillis(0);  // Already expired.
  auto result = suite.Run({f1.get(), f4.get()}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const auto& row : result->cells) {
    for (const SuiteCell& cell : row) {
      EXPECT_TRUE(cell.error.ok()) << cell.error.ToString();
      EXPECT_TRUE(cell.truncated);
      EXPECT_EQ(cell.exhaustion_reason, ExhaustionReason::kDeadline);
      EXPECT_GE(cell.num_partitions, 1u);  // Best-so-far, not missing.
    }
  }
  EXPECT_EQ(result->summary.cells_truncated, 6u);
}

// One hierarchical budget bounds the *aggregate* node work of the grid —
// the whole point of the suite-level budget layer. Before it, a 10-cell
// grid with --max-nodes=K could spend 10*K.
TEST(AuditSuiteTest, HierarchicalNodeBudgetCapsAggregate) {
  Table workers = Workers(300);
  AuditSuite suite(&workers);
  auto f1 = MakeAlphaFunction("f1", 0.5);
  auto f6 = MakeF6(3);
  constexpr uint64_t kMaxNodes = 40;
  for (int threads : {1, 4}) {
    SuiteOptions options;
    options.num_threads = threads;
    options.audit.limits.max_nodes = kMaxNodes;
    auto result = suite.Run({f1.get(), f6.get()}, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    uint64_t total_nodes = 0;
    size_t node_truncated = 0;
    for (const auto& row : result->cells) {
      for (const SuiteCell& cell : row) {
        EXPECT_TRUE(cell.error.ok()) << cell.error.ToString();
        total_nodes += cell.nodes_visited;
        if (cell.exhaustion_reason == ExhaustionReason::kNodeBudget) {
          ++node_truncated;
        }
      }
    }
    EXPECT_LE(total_nodes, kMaxNodes) << "threads=" << threads;
    EXPECT_EQ(result->summary.total_nodes, total_nodes);
    EXPECT_GT(node_truncated, 0u) << "threads=" << threads;
  }
}

// The acceptance bar of the parallel scheduler: without budgets every
// algorithm here is deterministic, so the grid must be bit-identical across
// thread counts.
TEST(AuditSuiteTest, ParallelMatchesSerialBitIdentical) {
  Table workers = Workers(200);
  AuditSuite suite(&workers);
  auto f1 = MakeAlphaFunction("f1", 0.5);
  auto f6 = MakeF6(3);
  SuiteOptions serial;
  serial.audit.seed = 11;
  serial.num_threads = 1;
  SuiteResult base = suite.Run({f1.get(), f6.get()}, serial).value();
  SuiteOptions parallel = serial;
  parallel.num_threads = 4;
  SuiteResult par = suite.Run({f1.get(), f6.get()}, parallel).value();
  ASSERT_EQ(base.cells.size(), par.cells.size());
  for (size_t a = 0; a < base.cells.size(); ++a) {
    for (size_t f = 0; f < base.cells[a].size(); ++f) {
      const SuiteCell& lhs = base.cells[a][f];
      const SuiteCell& rhs = par.cells[a][f];
      EXPECT_EQ(lhs.unfairness, rhs.unfairness) << lhs.algorithm;
      EXPECT_EQ(lhs.num_partitions, rhs.num_partitions) << lhs.algorithm;
      EXPECT_EQ(lhs.attributes_used, rhs.attributes_used) << lhs.algorithm;
      EXPECT_EQ(lhs.nodes_visited, rhs.nodes_visited) << lhs.algorithm;
      // Cells own their evaluators, so their work counters are exact too.
      EXPECT_EQ(lhs.cache.histogram_misses, rhs.cache.histogram_misses)
          << lhs.algorithm;
      EXPECT_EQ(lhs.cache.divergence_misses, rhs.cache.divergence_misses)
          << lhs.algorithm;
    }
  }
}

// RFC-4180: a function name carrying the CSV metacharacters must come back
// quoted with doubled quotes, leaving the row parseable.
TEST(AuditSuiteTest, CsvEscapesHostileFunctionNames) {
  Table workers = Workers();
  AuditSuite suite(&workers);
  auto hostile = MakeAlphaFunction("f,1\"x", 0.5);
  SuiteOptions options;
  options.algorithms = {"balanced"};
  SuiteResult result = suite.Run({hostile.get()}, options).value();
  std::string csv = FormatSuiteCsv(result);
  EXPECT_NE(csv.find("\"f,1\"\"x\""), std::string::npos) << csv;
  // Header + 1 cell: the hostile name must not add rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(AuditSuiteTest, SummaryAndJsonReportTheGrid) {
  Table workers = Workers();
  AuditSuite suite(&workers);
  auto f1 = MakeAlphaFunction("f1", 0.5);
  SuiteOptions options;
  options.algorithms = {"balanced", "unbalanced"};
  SuiteResult result = suite.Run({f1.get()}, options).value();
  uint64_t nodes = 0;
  uint64_t divergences = 0;
  for (const auto& row : result.cells) {
    for (const SuiteCell& cell : row) {
      nodes += cell.nodes_visited;
      EXPECT_GT(cell.cache.histogram_misses, 0u) << cell.algorithm;
      divergences += cell.cache.divergence_misses;
    }
  }
  EXPECT_EQ(result.summary.total_nodes, nodes);
  EXPECT_EQ(result.summary.cache.divergence_misses, divergences);
  EXPECT_GT(result.summary.wall_seconds, 0.0);
  EXPECT_EQ(result.summary.cells_failed, 0u);
  std::string summary = FormatSuiteSummary(result);
  EXPECT_NE(summary.find("2 cells"), std::string::npos) << summary;
  std::string summary_csv = FormatSuiteSummaryCsv(result);
  EXPECT_EQ(std::count(summary_csv.begin(), summary_csv.end(), '\n'), 2);
  std::string json = FormatSuiteJson(result);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"cells\""), std::string::npos);
  EXPECT_NE(json.find("\"total_nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"divergences_computed\""), std::string::npos);
}

// Every cell audits a copy of SuiteOptions::audit, so template fields the
// suite does not own reach the cells: a beam cell at width W is the direct
// beam audit at width W.
TEST(AuditSuiteTest, BeamCellsHonourTheTemplateBeamWidth) {
  Table workers = Workers(300);
  AuditSuite suite(&workers);
  auto f6 = MakeF6(3);
  auto f7 = MakeF7(3);
  const std::vector<const ScoringFunction*> functions = {f6.get(), f7.get()};
  FairnessAuditor auditor(&workers);
  for (int width : {1, 8}) {
    SuiteOptions options;
    options.algorithms = {"beam"};
    options.audit.beam_width = width;
    options.audit.seed = 5;
    SuiteResult result = suite.Run(functions, options).value();
    for (size_t f = 0; f < functions.size(); ++f) {
      AuditOptions direct_options;
      direct_options.algorithm = "beam";
      direct_options.beam_width = width;
      direct_options.seed = 5 + f;
      direct_options.num_worst_pairs = 0;
      AuditResult direct =
          auditor.Audit(*functions[f], direct_options).value();
      const SuiteCell& cell = result.cells[0][f];
      EXPECT_EQ(cell.nodes_visited, direct.nodes_visited)
          << "width " << width << " " << cell.function;
      EXPECT_EQ(std::memcmp(&cell.unfairness, &direct.unfairness,
                            sizeof(double)),
                0)
          << "width " << width << " " << cell.function;
      EXPECT_EQ(cell.num_partitions, direct.partitions.size());
    }
  }
}

// A cell replaces the template's algorithm and worst-pair count and keeps
// the rest (here the bin count).
TEST(AuditSuiteTest, CellsReplaceOnlyAlgorithmSeedAndWorstPairs) {
  Table workers = Workers();
  AuditSuite suite(&workers);
  auto f6 = MakeF6(3);
  SuiteOptions options;
  options.algorithms = {"balanced"};
  options.audit.algorithm = "no-such-algorithm";  // Replaced per cell.
  options.audit.num_worst_pairs = 7;              // Replaced by 0.
  options.audit.evaluator.num_bins = 4;           // Kept.
  SuiteResult result = suite.Run({f6.get()}, options).value();
  AuditOptions direct_options;
  direct_options.algorithm = "balanced";
  direct_options.evaluator.num_bins = 4;
  FairnessAuditor auditor(&workers);
  AuditResult direct = auditor.Audit(*f6, direct_options).value();
  EXPECT_EQ(result.cells[0][0].algorithm, "balanced");
  EXPECT_EQ(std::memcmp(&result.cells[0][0].unfairness, &direct.unfairness,
                        sizeof(double)),
            0);
}

TEST(AuditSuiteTest, BiasedColumnDominatesRandomColumn) {
  Table workers = Workers(300);
  AuditSuite suite(&workers);
  auto f1 = MakeAlphaFunction("f1", 0.5);
  auto f6 = MakeF6(3);
  SuiteOptions options;
  options.algorithms = {"balanced"};
  SuiteResult result = suite.Run({f1.get(), f6.get()}, options).value();
  EXPECT_GT(result.cells[0][1].unfairness, result.cells[0][0].unfairness);
}

}  // namespace
}  // namespace fairrank
