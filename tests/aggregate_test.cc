#include "fairness/aggregate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/deadline.h"
#include "common/fault_injection.h"
#include "fairness/auditor.h"
#include "fairness/registry.h"
#include "marketplace/biased_scoring.h"
#include "marketplace/generator.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

std::vector<AttributeSpec> ProtectedSpecs(const Table& table) {
  std::vector<AttributeSpec> specs;
  for (size_t i : table.schema().ProtectedIndices()) {
    specs.push_back(table.schema().attribute(i));
  }
  return specs;
}

AuditOptions BalancedOptions(const std::string& divergence = "emd") {
  AuditOptions options;
  options.algorithm = "balanced";
  options.evaluator.divergence = divergence;
  return options;
}

AggregateAuditResult AuditBalanced(const CellStore& store) {
  return AuditAggregate(store, BalancedOptions()).value();
}

CellStore FillStore(const Table& table, const std::vector<double>& scores) {
  CellStore store(ProtectedSpecs(table), 10, 0.0, 1.0);
  for (size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_TRUE(store.AddRow(table, row, scores[row]).ok());
  }
  return store;
}

TEST(CellStoreTest, AddValidation) {
  Schema schema = MakeToySchema().value();
  std::vector<AttributeSpec> specs = {schema.attribute(0),
                                      schema.attribute(1)};
  CellStore store(specs, 10, 0.0, 1.0);
  EXPECT_TRUE(store.Add({0, 1}, 0.5).ok());
  EXPECT_FALSE(store.Add({0}, 0.5).ok());          // Wrong arity.
  EXPECT_FALSE(store.Add({0, 5}, 0.5).ok());       // Group out of range.
  EXPECT_FALSE(store.Add({-1, 0}, 0.5).ok());      // Negative group.
  EXPECT_EQ(store.num_observations(), 1u);
  EXPECT_EQ(store.num_cells(), 1u);
}

TEST(CellStoreTest, MakeValidatesConfiguration) {
  Schema schema = MakeToySchema().value();
  std::vector<AttributeSpec> specs = {schema.attribute(0)};
  EXPECT_TRUE(CellStore::Make(specs, 10, 0.0, 1.0).ok());
  // Degenerate bin configs used to flow through the constructor unchecked
  // and every Add built broken Histograms.
  EXPECT_EQ(CellStore::Make(specs, 0, 0.0, 1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CellStore::Make(specs, -3, 0.0, 1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CellStore::Make(specs, 10, 1.0, 1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CellStore::Make(specs, 10, 0.7, 0.2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CellStore::Make({}, 10, 0.0, 1.0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CellStoreTest, MergeFromRejectsIncompatibleStores) {
  Schema schema = MakeToySchema().value();
  std::vector<AttributeSpec> specs = {schema.attribute(0),
                                      schema.attribute(1)};
  CellStore store = CellStore::Make(specs, 10, 0.0, 1.0).value();
  ASSERT_TRUE(store.Add({0, 0}, 0.5).ok());

  CellStore other_bins = CellStore::Make(specs, 5, 0.0, 1.0).value();
  ASSERT_TRUE(other_bins.Add({0, 0}, 0.5).ok());
  Status bins = store.MergeFrom(other_bins);
  EXPECT_EQ(bins.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bins.message().find("bins"), std::string::npos);

  CellStore other_range = CellStore::Make(specs, 10, 0.0, 2.0).value();
  EXPECT_EQ(store.MergeFrom(other_range).code(),
            StatusCode::kInvalidArgument);

  CellStore other_specs =
      CellStore::Make({schema.attribute(0)}, 10, 0.0, 1.0).value();
  EXPECT_EQ(store.MergeFrom(other_specs).code(),
            StatusCode::kInvalidArgument);

  // The store is untouched by the failed merges.
  EXPECT_EQ(store.num_observations(), 1u);
}

TEST(CellStoreTest, MergeCellRejectsMismatchedHistogram) {
  Schema schema = MakeToySchema().value();
  CellStore store =
      CellStore::Make({schema.attribute(0)}, 10, 0.0, 1.0).value();
  Histogram wrong_shape(5, 0.0, 1.0);
  wrong_shape.Add(0.5);
  Status status = store.MergeCell({0}, wrong_shape, 1);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The enriched MergeWith message names both bin configurations.
  EXPECT_NE(status.message().find("10 bins"), std::string::npos);
  EXPECT_NE(status.message().find("5 bins"), std::string::npos);
  EXPECT_EQ(store.num_observations(), 0u);
}

TEST(CellStoreTest, MergeFromCombinesCells) {
  GeneratorOptions gen;
  gen.num_workers = 400;
  gen.seed = 21;
  Table workers = GenerateWorkers(gen).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  std::vector<double> scores = fn->ScoreAll(workers).value();

  CellStore whole = FillStore(workers, scores);
  CellStore first =
      CellStore::Make(ProtectedSpecs(workers), 10, 0.0, 1.0).value();
  CellStore second =
      CellStore::Make(ProtectedSpecs(workers), 10, 0.0, 1.0).value();
  for (size_t row = 0; row < workers.num_rows(); ++row) {
    CellStore& half = (row < workers.num_rows() / 2) ? first : second;
    ASSERT_TRUE(half.AddRow(workers, row, scores[row]).ok());
  }
  ASSERT_TRUE(first.MergeFrom(second).ok());

  ASSERT_EQ(first.num_cells(), whole.num_cells());
  ASSERT_EQ(first.num_observations(), whole.num_observations());
  auto merged_it = first.cells().begin();
  for (const auto& [key, cell] : whole.cells()) {
    ASSERT_EQ(merged_it->first, key);
    EXPECT_EQ(merged_it->second.count, cell.count);
    // Bit-identical bin counts: unit weights, integer sums.
    for (int b = 0; b < cell.histogram.num_bins(); ++b) {
      EXPECT_EQ(merged_it->second.histogram.counts()[b],
                cell.histogram.counts()[b]);
    }
    ++merged_it;
  }
}

TEST(CellStoreTest, CellsDeduplicate) {
  Schema schema = MakeToySchema().value();
  CellStore store({schema.attribute(0), schema.attribute(1)}, 10, 0.0, 1.0);
  ASSERT_TRUE(store.Add({0, 0}, 0.1).ok());
  ASSERT_TRUE(store.Add({0, 0}, 0.2).ok());
  ASSERT_TRUE(store.Add({1, 0}, 0.3).ok());
  EXPECT_EQ(store.num_cells(), 2u);
  EXPECT_EQ(store.num_observations(), 3u);
}

TEST(BuildCellStoreParallelTest, ShardedIngestMatchesSerialBitIdentical) {
  // The acceptance property: sharded parallel ingest must be *bit-identical*
  // to serial AddRow ingest — same cells, same exact counts, identical bin
  // doubles — and therefore produce an identical audit (all observation
  // weights are 1.0, so bin-wise sums are exact integers in any merge
  // order).
  GeneratorOptions gen;
  gen.num_workers = 2000;
  gen.seed = 77;
  Table workers = GenerateWorkers(gen).value();
  auto f6 = MakeF6(9);
  std::vector<double> scores = f6->ScoreAll(workers).value();

  CellStore serial = FillStore(workers, scores);
  AggregateAuditResult serial_audit = AuditBalanced(serial);

  for (int threads : {1, 2, 8}) {
    CellStoreIngestOptions options;
    options.num_threads = threads;
    CellStore sharded =
        BuildCellStoreParallel(workers, scores, options).value();

    ASSERT_EQ(sharded.num_cells(), serial.num_cells()) << threads;
    ASSERT_EQ(sharded.num_observations(), serial.num_observations())
        << threads;
    auto sharded_it = sharded.cells().begin();
    for (const auto& [key, cell] : serial.cells()) {
      ASSERT_EQ(sharded_it->first, key) << threads;
      EXPECT_EQ(sharded_it->second.count, cell.count) << threads;
      EXPECT_EQ(sharded_it->second.histogram.clamped_count(),
                cell.histogram.clamped_count())
          << threads;
      for (int b = 0; b < cell.histogram.num_bins(); ++b) {
        EXPECT_EQ(sharded_it->second.histogram.counts()[b],
                  cell.histogram.counts()[b])
            << threads << " bin " << b;
      }
      ++sharded_it;
    }

    AggregateAuditResult audit = AuditBalanced(sharded);
    EXPECT_EQ(audit.unfairness, serial_audit.unfairness) << threads;
    EXPECT_EQ(audit.partitions.size(), serial_audit.partitions.size())
        << threads;
    EXPECT_EQ(audit.attributes_used, serial_audit.attributes_used) << threads;
    for (size_t i = 0; i < audit.partitions.size(); ++i) {
      EXPECT_EQ(audit.partitions[i].size, serial_audit.partitions[i].size)
          << threads << " partition " << i;
    }
  }
}

TEST(BuildCellStoreParallelTest, ValidatesInput) {
  GeneratorOptions gen;
  gen.num_workers = 50;
  gen.seed = 4;
  Table workers = GenerateWorkers(gen).value();
  std::vector<double> too_few(10, 0.5);
  EXPECT_EQ(BuildCellStoreParallel(workers, too_few).status().code(),
            StatusCode::kInvalidArgument);

  std::vector<double> scores(workers.num_rows(), 0.5);
  CellStoreIngestOptions bad_bins;
  bad_bins.num_bins = 0;
  EXPECT_EQ(
      BuildCellStoreParallel(workers, scores, bad_bins).status().code(),
      StatusCode::kInvalidArgument);
  CellStoreIngestOptions bad_range;
  bad_range.score_lo = 1.0;
  bad_range.score_hi = 0.0;
  EXPECT_EQ(
      BuildCellStoreParallel(workers, scores, bad_range).status().code(),
      StatusCode::kInvalidArgument);
  CellStoreIngestOptions bad_attr;
  bad_attr.protected_attributes = {"NoSuchColumn"};
  EXPECT_EQ(
      BuildCellStoreParallel(workers, scores, bad_attr).status().code(),
      StatusCode::kNotFound);
}

TEST(BuildCellStoreParallelTest, RestrictsToNamedAttributes) {
  GeneratorOptions gen;
  gen.num_workers = 300;
  gen.seed = 12;
  Table workers = GenerateWorkers(gen).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  std::vector<double> scores = fn->ScoreAll(workers).value();
  CellStoreIngestOptions options;
  options.protected_attributes = {"Gender"};
  options.num_threads = 2;
  CellStore store = BuildCellStoreParallel(workers, scores, options).value();
  ASSERT_EQ(store.specs().size(), 1u);
  EXPECT_EQ(store.specs()[0].name(), "Gender");
  EXPECT_LE(store.num_cells(),
            static_cast<size_t>(store.specs()[0].num_groups()));
  EXPECT_EQ(store.num_observations(), workers.num_rows());
}

TEST(BuildCellStoreParallelTest, FaultedShardSurfacesOneErrorCleanly) {
  // A shard that throws (fault injection standing in for a production
  // failure) must surface exactly one structured error without poisoning
  // sibling shards — and the very next build must succeed untainted.
  GeneratorOptions gen;
  gen.num_workers = 600;
  gen.seed = 33;
  Table workers = GenerateWorkers(gen).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  std::vector<double> scores = fn->ScoreAll(workers).value();

  CellStoreIngestOptions options;
  options.num_threads = 4;
  {
    fault::FaultPlan plan;
    plan.throw_in_chunk = 2;  // Shard 2 of 4 throws at its start.
    fault::ScopedFaultPlan armed(plan);
    StatusOr<CellStore> store =
        BuildCellStoreParallel(workers, scores, options);
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::kInternal);
    EXPECT_NE(store.status().ToString().find("ingest shard failed"),
              std::string::npos);
  }
  // Disarmed: the same inputs build cleanly and match serial ingest.
  CellStore rebuilt = BuildCellStoreParallel(workers, scores, options).value();
  CellStore serial = FillStore(workers, scores);
  EXPECT_EQ(rebuilt.num_observations(), serial.num_observations());
  EXPECT_EQ(rebuilt.num_cells(), serial.num_cells());
  EXPECT_EQ(AuditBalanced(rebuilt).unfairness,
            AuditBalanced(serial).unfairness);
}

TEST(BuildCellStoreParallelTest, HonorsDeadlineAndMemoryBudget) {
  GeneratorOptions gen;
  gen.num_workers = 200;
  gen.seed = 6;
  Table workers = GenerateWorkers(gen).value();
  std::vector<double> scores(workers.num_rows(), 0.5);

  // Already-expired deadline: the shard's first checkpoint refuses.
  ExecutionContext expired(Deadline::AfterMillis(0), CancellationToken(),
                          nullptr);
  CellStoreIngestOptions options;
  options.num_threads = 2;
  EXPECT_EQ(BuildCellStoreParallel(workers, scores, options, expired)
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);

  // A 1-byte memory budget trips the shard's up-front array charge.
  ResourceBudget budget(0, 1);
  ExecutionContext strapped(Deadline(), CancellationToken(), &budget);
  EXPECT_EQ(BuildCellStoreParallel(workers, scores, options, strapped)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(AggregateAuditTest, EmptyStoreFails) {
  Schema schema = MakeToySchema().value();
  CellStore store({schema.attribute(0)}, 10, 0.0, 1.0);
  EXPECT_EQ(AuditAggregate(store, BalancedOptions()).status().code(),
            StatusCode::kFailedPrecondition);
}

// The shared engine is exact: every registered algorithm, run on the cells,
// returns the row-level audit bit for bit — the same unfairness bits, the
// same partitions (labels and sizes, in order), the same search work.
TEST(AggregateAuditTest, EveryAlgorithmMatchesRowAuditBitForBit) {
  GeneratorOptions gen;
  gen.num_workers = 400;
  gen.seed = 77;
  Table workers = GenerateWorkers(gen).value();
  std::vector<std::unique_ptr<ScoringFunction>> functions;
  functions.push_back(MakeF6(9));
  functions.push_back(MakeF7(9));
  functions.push_back(MakeAlphaFunction("alpha=0.5", 0.5));
  FairnessAuditor auditor(&workers);
  for (const auto& fn : functions) {
    std::vector<double> scores = fn->ScoreAll(workers).value();
    CellStore store = FillStore(workers, scores);
    for (const std::string& name : KnownAlgorithmNames()) {
      SCOPED_TRACE(fn->Name() + " / " + name);
      AuditOptions options;
      options.algorithm = name;
      options.seed = 5;
      if (name == "exhaustive") {
        options.protected_attributes = {"Gender", "Country", "Language"};
      }
      AuditResult rows =
          auditor.AuditScores(scores, fn->Name(), options).value();
      AggregateAuditResult cells = AuditAggregate(store, options).value();

      EXPECT_EQ(cells.algorithm, rows.algorithm);
      EXPECT_EQ(std::memcmp(&cells.unfairness, &rows.unfairness,
                            sizeof(double)),
                0)
          << cells.unfairness << " vs " << rows.unfairness;
      EXPECT_EQ(cells.nodes_visited, rows.nodes_visited);
      EXPECT_EQ(cells.truncated, rows.truncated);
      ASSERT_EQ(cells.partitions.size(), rows.partitioning.size());
      for (size_t i = 0; i < cells.partitions.size(); ++i) {
        const Partition& row_partition = rows.partitioning[i];
        EXPECT_EQ(cells.partitions[i].label,
                  PartitionLabel(workers.schema(), row_partition))
            << i;
        EXPECT_EQ(cells.partitions[i].size, row_partition.size()) << i;
      }
      std::vector<std::string> used;
      for (size_t spec : cells.attributes_used) {
        used.push_back(store.specs()[spec].name());
      }
      std::sort(used.begin(), used.end());
      std::vector<std::string> row_used = rows.attributes_used;
      std::sort(row_used.begin(), row_used.end());
      EXPECT_EQ(used, row_used);
    }
  }
}

TEST(AggregateAuditTest, UnknownAlgorithmIsNotFound) {
  GeneratorOptions gen;
  gen.num_workers = 100;
  gen.seed = 2;
  Table workers = GenerateWorkers(gen).value();
  CellStore store = FillStore(workers, MakeF6(1)->ScoreAll(workers).value());
  AuditOptions options;
  options.algorithm = "bogus";
  EXPECT_EQ(AuditAggregate(store, options).status().code(),
            StatusCode::kNotFound);
}

TEST(AggregateAuditTest, NodeBudgetTruncatesToACoveringAnswer) {
  // The cell route degrades like the row route: a one-node budget returns
  // the best partitioning so far, flagged, instead of an error.
  GeneratorOptions gen;
  gen.num_workers = 500;
  gen.seed = 19;
  Table workers = GenerateWorkers(gen).value();
  auto fn = MakeAlphaFunction("alpha=0.5", 0.5);
  CellStore store = FillStore(workers, fn->ScoreAll(workers).value());
  ResourceBudget budget(1, 0);
  ExecutionContext context(Deadline(), CancellationToken(), &budget);
  AggregateAuditResult result =
      AuditAggregate(store, BalancedOptions(), context).value();
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.exhaustion_reason, ExhaustionReason::kNodeBudget);
  size_t covered = 0;
  for (const AggregatePartition& p : result.partitions) covered += p.size;
  EXPECT_EQ(covered, store.num_observations());
}

TEST(AggregateAuditTest, F6RecoverGenderWithLabels) {
  GeneratorOptions gen;
  gen.num_workers = 400;
  gen.seed = 5;
  Table workers = GenerateWorkers(gen).value();
  auto f6 = MakeF6(11);
  std::vector<double> scores = f6->ScoreAll(workers).value();
  CellStore store = FillStore(workers, scores);
  AggregateAuditResult aggregate = AuditBalanced(store);
  ASSERT_EQ(aggregate.partitions.size(), 2u);
  EXPECT_NEAR(aggregate.unfairness, 0.8, 0.05);
  std::set<std::string> labels;
  for (const AggregatePartition& p : aggregate.partitions) {
    labels.insert(p.label);
  }
  EXPECT_TRUE(labels.count("Gender=Male"));
  EXPECT_TRUE(labels.count("Gender=Female"));
}

TEST(AggregateAuditTest, DivergenceOptionRespected) {
  GeneratorOptions gen;
  gen.num_workers = 200;
  gen.seed = 3;
  Table workers = GenerateWorkers(gen).value();
  auto f6 = MakeF6(2);
  std::vector<double> scores = f6->ScoreAll(workers).value();
  CellStore store = FillStore(workers, scores);
  double emd = AuditAggregate(store, BalancedOptions("emd")).value().unfairness;
  double ks = AuditAggregate(store, BalancedOptions("ks")).value().unfairness;
  EXPECT_NEAR(ks, 1.0, 1e-9);  // f6 fully separates genders.
  EXPECT_NEAR(emd, 0.8, 0.05);
  EXPECT_FALSE(AuditAggregate(store, BalancedOptions("bogus")).ok());
  // The balanced wrapper is the same audit.
  EXPECT_EQ(AuditAggregateBalanced(store, "ks").value().unfairness, ks);
}

TEST(AggregateAuditTest, PartitionSizesStayExactUnderClampedScores) {
  // Out-of-range scores get clamped into edge bins; partition sizes used to
  // be read off histogram mass (aggregate.cc:185 before the fix), which
  // future sketch mass would desync from the true population. Sizes must
  // come from exact per-cell counts and cover every observation.
  Schema schema = MakeToySchema().value();
  CellStore store =
      CellStore::Make({schema.attribute(0)}, 10, 0.0, 1.0).value();
  ASSERT_TRUE(store.Add({0}, 0.2).ok());
  ASSERT_TRUE(store.Add({0}, 1.7).ok());   // Clamped into the top bin.
  ASSERT_TRUE(store.Add({1}, -0.4).ok());  // Clamped into the bottom bin.
  ASSERT_TRUE(store.Add({1}, 0.9).ok());
  ASSERT_EQ(store.num_observations(), 4u);

  AggregateAuditResult result = AuditBalanced(store);
  size_t covered = 0;
  for (const AggregatePartition& p : result.partitions) covered += p.size;
  EXPECT_EQ(covered, store.num_observations());
  for (const AggregatePartition& p : result.partitions) {
    EXPECT_EQ(p.size, 2u);
  }
}

TEST(AggregateAuditTest, CompressionIsMassive) {
  // 5000 workers collapse into at most prod(num_groups) cells.
  GeneratorOptions gen;
  gen.num_workers = 5000;
  gen.seed = 8;
  Table workers = GenerateWorkers(gen).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  std::vector<double> scores = fn->ScoreAll(workers).value();
  CellStore store = FillStore(workers, scores);
  EXPECT_EQ(store.num_observations(), 5000u);
  EXPECT_LE(store.num_cells(), 2u * 3u * 5u * 3u * 4u * 5u);
}

}  // namespace
}  // namespace fairrank
