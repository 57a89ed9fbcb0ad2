#include "fairness/aggregate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/rng.h"
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

TEST(CellStoreTest, AddRejectsNonFiniteScores) {
  Schema schema = MakeToySchema().value();
  std::vector<AttributeSpec> specs = {schema.attribute(0),
                                      schema.attribute(1)};
  CellStore store(specs, 10, 0.0, 1.0);
  ASSERT_TRUE(store.Add({0, 1}, 0.5).ok());
  ASSERT_TRUE(store.Add({1, 0}, 2.0).ok());  // Clamped, but finite.
  const std::map<std::vector<int>, StoreCell> before = store.cells();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    // Into an existing cell and into a new one.
    for (const std::vector<int>& groups :
         {std::vector<int>{0, 1}, std::vector<int>{1, 1}}) {
      Status status = store.Add(groups, bad);
      ASSERT_FALSE(status.ok()) << bad;
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(status.message(), "score 2 is not finite");
    }
  }
  EXPECT_EQ(store.num_observations(), 2u);
  ASSERT_EQ(store.num_cells(), before.size());
  for (const auto& [key, cell] : before) {
    const StoreCell& now = store.cells().at(key);
    EXPECT_EQ(now.count, cell.count);
    EXPECT_EQ(now.histogram.counts(), cell.histogram.counts());
    EXPECT_EQ(now.histogram.clamped_count(), cell.histogram.clamped_count());
  }
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

/// Expects two stores to hold the same cells with bit-identical histograms.
void ExpectSameCellsBitForBit(const CellStore& got, const CellStore& want) {
  ASSERT_EQ(got.num_cells(), want.num_cells());
  ASSERT_EQ(got.num_observations(), want.num_observations());
  auto got_it = got.cells().begin();
  for (const auto& [key, cell] : want.cells()) {
    ASSERT_EQ(got_it->first, key);
    EXPECT_EQ(got_it->second.count, cell.count);
    const Histogram& a = got_it->second.histogram;
    const Histogram& b = cell.histogram;
    const double clamped_a = a.clamped_count();
    const double clamped_b = b.clamped_count();
    EXPECT_EQ(std::memcmp(&clamped_a, &clamped_b, sizeof(double)), 0);
    ASSERT_EQ(a.counts().size(), b.counts().size());
    EXPECT_EQ(std::memcmp(a.counts().data(), b.counts().data(),
                          a.counts().size() * sizeof(double)),
              0);
    ++got_it;
  }
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
    SCOPED_TRACE(threads);
    CellStoreIngestOptions options;
    options.num_threads = threads;
    CellStore sharded =
        BuildCellStoreParallel(workers, scores, options).value();
    ExpectSameCellsBitForBit(sharded, serial);

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

TEST(BuildCellStoreParallelTest, SparseFallbackMatchesSerialAndHonorsBudget) {
  // Three 50-group attributes span 125,000 cells, past the 65,536-cell cap
  // on dense shard arrays, so every shard accumulates into a private
  // CellStore map and charges memory as its cells appear.
  std::vector<std::string> groups;
  for (int g = 0; g < 50; ++g) groups.push_back(std::to_string(g));
  Schema schema;
  for (const char* name : {"A", "B", "C"}) {
    ASSERT_TRUE(schema
                    .AddAttribute(AttributeSpec::Categorical(
                        name, AttributeRole::kProtected, groups))
                    .ok());
  }
  Table table(schema);
  CellStore serial(ProtectedSpecs(table), 10, 0.0, 1.0);
  std::vector<double> scores;
  Rng rng(2024);
  for (size_t row = 0; row < 20000; ++row) {
    std::vector<int> key;
    std::vector<Cell> cells;
    for (int a = 0; a < 3; ++a) {
      key.push_back(static_cast<int>(rng.UniformInt(0, 49)));
      cells.emplace_back(static_cast<int64_t>(key.back()));
    }
    ASSERT_TRUE(table.AppendRow(cells).ok());
    // A tenth of the scores fall outside [0, 1] and clamp into edge bins.
    scores.push_back(rng.UniformDouble(-0.05, 1.05));
    ASSERT_TRUE(serial.Add(key, scores.back()).ok());
  }

  for (int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    CellStoreIngestOptions options;
    options.num_threads = threads;
    CellStore sharded = BuildCellStoreParallel(table, scores, options).value();
    ExpectSameCellsBitForBit(sharded, serial);
  }

  // ~18,000 cells at ~176 bytes each overrun a 1 MiB budget mid-ingest.
  ExecutionLimits limits;
  limits.max_memory_mb = 1;
  ResourceBudget budget = limits.MakeBudget();
  ExecutionContext context = limits.MakeContext(&budget);
  CellStoreIngestOptions options;
  options.num_threads = 3;
  StatusOr<CellStore> strapped =
      BuildCellStoreParallel(table, scores, options, context);
  ASSERT_FALSE(strapped.ok());
  EXPECT_STREQ(
      ExhaustionReasonToString(ExhaustionReasonFromStatus(strapped.status())),
      "memory-budget");

  // Sparse shards share the block checks: the first bad score is named.
  scores[9000] = std::numeric_limits<double>::quiet_NaN();
  scores[15000] = std::numeric_limits<double>::infinity();
  for (int threads : {1, 3}) {
    options.num_threads = threads;
    StatusOr<CellStore> bad = BuildCellStoreParallel(table, scores, options);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().message(), "score 9000 is not finite");
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

// The row audit refuses non-finite scores in UnfairnessEvaluator::Make;
// the cell ingest refuses them too, naming the first bad row, instead of
// binning NaN into an edge bin.
TEST(BuildCellStoreParallelTest, RejectsNonFiniteScores) {
  GeneratorOptions gen;
  gen.num_workers = 200;
  gen.seed = 4;
  Table workers = GenerateWorkers(gen).value();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    std::vector<double> scores(workers.num_rows(), 0.5);
    scores[137] = bad;
    scores[151] = bad;
    for (int threads : {1, 3}) {
      CellStoreIngestOptions options;
      options.num_threads = threads;
      StatusOr<CellStore> store =
          BuildCellStoreParallel(workers, scores, options);
      ASSERT_FALSE(store.ok()) << bad << " " << threads;
      EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(store.status().message(), "score 137 is not finite");
    }
  }
}

TEST(BuildCellStoreParallelTest, NamesTheFirstNonFiniteScorePastBlockEdges) {
  // Rows go in blocks of 4096: bad scores on, before and after block edges
  // must still be reported by their first row, for any shard split.
  GeneratorOptions gen;
  gen.num_workers = 10000;
  gen.seed = 9;
  Table workers = GenerateWorkers(gen).value();
  for (size_t first : {size_t{4095}, size_t{4096}, size_t{4097},
                       size_t{9999}}) {
    std::vector<double> scores(workers.num_rows(), 0.5);
    scores[first] = std::numeric_limits<double>::quiet_NaN();
    if (first + 1 < scores.size()) {
      scores[first + 1] = std::numeric_limits<double>::infinity();
    }
    for (int threads : {1, 2, 3}) {
      CellStoreIngestOptions options;
      options.num_threads = threads;
      StatusOr<CellStore> store =
          BuildCellStoreParallel(workers, scores, options);
      ASSERT_FALSE(store.ok()) << first << " " << threads;
      EXPECT_EQ(store.status().message(),
                "score " + std::to_string(first) + " is not finite");
    }
  }
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
