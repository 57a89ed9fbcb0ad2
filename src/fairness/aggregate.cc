#include "fairness/aggregate.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "common/bucket.h"
#include "common/fault_injection.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "fairness/registry.h"

namespace fairrank {
namespace {

/// Always-on ingest / aggregate-audit metrics, registered once (the
/// static-registration idiom of telemetry.h).
struct AggregateMetrics {
  MetricCounter* ingest_rows;
  MetricCounter* ingest_shards;
  MetricCounter* ingest_builds;
  MetricHistogram* ingest_seconds;
  MetricCounter* audits;

  static const AggregateMetrics& Get() {
    static const AggregateMetrics* metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      auto* m = new AggregateMetrics();
      m->ingest_rows = registry.GetCounter(
          "fairrank_ingest_rows_total",
          "Rows ingested into cell stores via BuildCellStoreParallel");
      m->ingest_shards = registry.GetCounter(
          "fairrank_ingest_shards_total",
          "Cell-store shards accumulated by parallel ingest");
      m->ingest_builds = registry.GetCounter(
          "fairrank_ingest_builds_total",
          "Completed BuildCellStoreParallel calls");
      m->ingest_seconds = registry.GetHistogram(
          "fairrank_ingest_seconds",
          "Wall-clock seconds of one parallel cell-store ingest");
      m->audits = registry.GetCounter(
          "fairrank_aggregate_audits_total",
          "Completed aggregate (cell-store) audits");
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

StatusOr<CellStore> CellStore::Make(std::vector<AttributeSpec> protected_specs,
                                    int num_bins, double score_lo,
                                    double score_hi) {
  if (protected_specs.empty()) {
    return Status::InvalidArgument(
        "cell store needs at least one protected attribute");
  }
  for (const AttributeSpec& spec : protected_specs) {
    FAIRRANK_RETURN_NOT_OK(spec.Validate());
  }
  if (num_bins < 1) {
    return Status::InvalidArgument(
        "cell store needs at least one histogram bin, got " +
        std::to_string(num_bins));
  }
  if (!(score_lo < score_hi)) {
    std::string message = "cell store score range is empty: [";
    message += FormatDouble(score_lo, 6);
    message += ", ";
    message += FormatDouble(score_hi, 6);
    message += "]";
    return Status::InvalidArgument(message);
  }
  return CellStore(std::move(protected_specs), num_bins, score_lo, score_hi);
}

CellStore::CellStore(std::vector<AttributeSpec> protected_specs, int num_bins,
                     double score_lo, double score_hi)
    : specs_(std::move(protected_specs)),
      num_bins_(num_bins),
      score_lo_(score_lo),
      score_hi_(score_hi) {
  assert(!specs_.empty() && num_bins >= 1 && score_lo < score_hi);
}

Status CellStore::CheckKey(const std::vector<int>& groups) const {
  if (groups.size() != specs_.size()) {
    return Status::InvalidArgument(
        "cell key has " + std::to_string(groups.size()) + " groups, store has " +
        std::to_string(specs_.size()) + " attributes");
  }
  for (size_t a = 0; a < groups.size(); ++a) {
    if (groups[a] < 0 || groups[a] >= specs_[a].num_groups()) {
      return Status::OutOfRange("group " + std::to_string(groups[a]) +
                                " out of range for attribute '" +
                                specs_[a].name() + "'");
    }
  }
  return Status::OK();
}

Status CellStore::Add(const std::vector<int>& groups, double score) {
  FAIRRANK_RETURN_NOT_OK(CheckKey(groups));
  // A NaN would land in bin 0 without counting as clamped; refuse it, and
  // +-Inf with it, numbered by the observation it would have been.
  if (!std::isfinite(score)) {
    return Status::InvalidArgument(
        "score " + std::to_string(observations_) + " is not finite");
  }
  auto it = cells_.find(groups);
  if (it == cells_.end()) {
    it = cells_.emplace(groups, StoreCell(num_bins_, score_lo_, score_hi_))
             .first;
  }
  it->second.histogram.Add(score);
  ++it->second.count;
  ++observations_;
  return Status::OK();
}

Status CellStore::AddRow(const Table& table, size_t row, double score) {
  std::vector<int> groups(specs_.size());
  for (size_t a = 0; a < specs_.size(); ++a) {
    FAIRRANK_ASSIGN_OR_RETURN(size_t index,
                              table.schema().FindIndex(specs_[a].name()));
    groups[a] = table.GroupIndex(row, index);
  }
  return Add(groups, score);
}

Status CellStore::MergeCell(const std::vector<int>& groups,
                            const Histogram& histogram, size_t count) {
  FAIRRANK_RETURN_NOT_OK(CheckKey(groups));
  auto it = cells_.find(groups);
  if (it == cells_.end()) {
    it = cells_.emplace(groups, StoreCell(num_bins_, score_lo_, score_hi_))
             .first;
  }
  // MergeWith rejects a bin-config mismatch, naming both shapes.
  FAIRRANK_RETURN_NOT_OK(it->second.histogram.MergeWith(histogram));
  it->second.count += count;
  observations_ += count;
  return Status::OK();
}

Status CellStore::MergeFrom(const CellStore& other) {
  if (other.specs_.size() != specs_.size()) {
    return Status::InvalidArgument(
        "cannot merge cell stores: " + std::to_string(specs_.size()) +
        " attributes here vs " + std::to_string(other.specs_.size()) +
        " there");
  }
  for (size_t a = 0; a < specs_.size(); ++a) {
    if (specs_[a].name() != other.specs_[a].name() ||
        specs_[a].num_groups() != other.specs_[a].num_groups()) {
      std::string message = "cannot merge cell stores: attribute ";
      message += std::to_string(a);
      message += " is '";
      message += specs_[a].name();
      message += "' (";
      message += std::to_string(specs_[a].num_groups());
      message += " groups) here vs '";
      message += other.specs_[a].name();
      message += "' (";
      message += std::to_string(other.specs_[a].num_groups());
      message += " groups) there";
      return Status::InvalidArgument(message);
    }
  }
  if (other.num_bins_ != num_bins_ || other.score_lo_ != score_lo_ ||
      other.score_hi_ != score_hi_) {
    std::string message = "cannot merge cell stores: ";
    message += std::to_string(num_bins_);
    message += " bins over [";
    message += FormatDouble(score_lo_, 6);
    message += ", ";
    message += FormatDouble(score_hi_, 6);
    message += "] here vs ";
    message += std::to_string(other.num_bins_);
    message += " bins over [";
    message += FormatDouble(other.score_lo_, 6);
    message += ", ";
    message += FormatDouble(other.score_hi_, 6);
    message += "] there";
    return Status::InvalidArgument(message);
  }
  for (const auto& [key, cell] : other.cells_) {
    FAIRRANK_RETURN_NOT_OK(MergeCell(key, cell.histogram, cell.count));
  }
  return Status::OK();
}

namespace {

/// Above this many dense cells (cross-product of group cardinalities) the
/// flat per-shard arrays stop being cheap and shards fall back to a private
/// CellStore map. The paper's worker schema has 1800 cells; the cap leaves
/// two orders of magnitude of headroom (64K cells * 10 bins * 8 B ≈ 5 MB
/// per shard).
constexpr size_t kDenseCellCap = size_t{1} << 16;

/// Row block between deadline / cancellation checks on the shard hot loop.
constexpr size_t kIngestCheckBlock = 4096;

/// Precomputed ingest plan shared read-only by every shard: resolved specs,
/// their table column indices, and the mixed-radix strides mapping a group
/// vector to a dense cell id (spec 0 most significant, so ascending dense
/// ids enumerate cell keys in lexicographic — i.e. std::map — order).
struct IngestPlan {
  std::vector<AttributeSpec> specs;
  std::vector<size_t> columns;
  std::vector<size_t> strides;
  size_t num_dense_cells = 0;  ///< 0 = too many, use the sparse fallback.
  int num_bins = 1;
  double score_lo = 0.0;
  double score_hi = 1.0;
};

StatusOr<IngestPlan> MakeIngestPlan(const Table& table,
                                    const CellStoreIngestOptions& options) {
  IngestPlan plan;
  plan.num_bins = options.num_bins;
  plan.score_lo = options.score_lo;
  plan.score_hi = options.score_hi;
  if (options.protected_attributes.empty()) {
    for (size_t index : table.schema().ProtectedIndices()) {
      plan.columns.push_back(index);
      plan.specs.push_back(table.schema().attribute(index));
    }
    if (plan.columns.empty()) {
      return Status::FailedPrecondition(
          "table schema declares no protected attributes");
    }
  } else {
    for (const std::string& name : options.protected_attributes) {
      FAIRRANK_ASSIGN_OR_RETURN(size_t index, table.schema().FindIndex(name));
      plan.columns.push_back(index);
      plan.specs.push_back(table.schema().attribute(index));
    }
  }
  size_t cells = 1;
  for (const AttributeSpec& spec : plan.specs) {
    size_t groups = static_cast<size_t>(spec.num_groups());
    if (groups == 0 || cells > kDenseCellCap / groups) {
      cells = 0;
      break;
    }
    cells *= groups;
  }
  plan.num_dense_cells = cells;
  plan.strides.assign(plan.specs.size(), 1);
  if (cells > 0) {
    for (size_t a = plan.specs.size(); a-- > 1;) {
      plan.strides[a - 1] =
          plan.strides[a] * static_cast<size_t>(plan.specs[a].num_groups());
    }
  }
  return plan;
}

/// One worker thread's private accumulator (no locks on the add path).
/// Dense schemas use flat arrays indexed by the mixed-radix cell id; huge
/// cross-products fall back to a private CellStore map.
struct CellStoreShard {
  std::vector<double> bins;     ///< num_dense_cells * num_bins.
  std::vector<size_t> counts;   ///< num_dense_cells.
  std::vector<double> clamped;  ///< num_dense_cells.
  std::optional<CellStore> sparse;
  Status status = Status::OK();
};

/// Approximate bytes one dense shard allocates, for the memory budget.
uint64_t DenseShardBytes(const IngestPlan& plan) {
  return static_cast<uint64_t>(plan.num_dense_cells) *
         (static_cast<uint64_t>(plan.num_bins) * sizeof(double) +
          sizeof(size_t) + sizeof(double));
}

/// Offset of the first group in g[0, n) outside [0, num_groups), or n.
size_t FirstGroupOutOfRange(const int* g, size_t n, int num_groups) {
  bool bad = false;
  for (size_t i = 0; i < n; ++i) {
    bad |= static_cast<unsigned>(g[i]) >= static_cast<unsigned>(num_groups);
  }
  if (!bad) return n;
  for (size_t i = 0; i < n; ++i) {
    if (g[i] < 0 || g[i] >= num_groups) return i;
  }
  return n;
}

/// Offset of the first non-finite score in s[0, n), or n.
size_t FirstNonFinite(const double* s, size_t n) {
  bool bad = false;
  for (size_t i = 0; i < n; ++i) bad |= !std::isfinite(s[i]);
  if (!bad) return n;
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(s[i])) return i;
  }
  return n;
}

/// Runs one shard over rows [begin, end), leaving the outcome in `shard`.
///
/// Rows go in blocks of kIngestCheckBlock, with the deadline checked between
/// blocks. Each block fills one group array per attribute
/// (Table::GroupIndices), then checks the groups and scores; the first bad
/// row fails the shard as a row-by-row pass would have met it (a group out of
/// range before its row's score). Only the accumulate step differs: a dense
/// shard folds the groups into mixed-radix cell ids and bins every score in
/// one pass, a sparse shard adds each row to its map.
void RunIngestShard(const Table& table, const std::vector<double>& scores,
                    const IngestPlan& plan, const ExecutionContext& context,
                    size_t begin, size_t end, CellStoreShard* shard) {
  const bool dense = plan.num_dense_cells > 0;
  uint64_t shard_bytes = dense ? DenseShardBytes(plan) : 0;
  ExhaustionReason reason = context.CheckMemory(shard_bytes);
  if (reason != ExhaustionReason::kNone) {
    shard->status = ExhaustionStatus(reason);
    return;
  }
  if (dense) {
    shard->bins.assign(plan.num_dense_cells * static_cast<size_t>(plan.num_bins),
                       0.0);
    shard->counts.assign(plan.num_dense_cells, 0);
    shard->clamped.assign(plan.num_dense_cells, 0.0);
  } else {
    shard->sparse.emplace(plan.specs, plan.num_bins, plan.score_lo,
                          plan.score_hi);
  }
  // Histogram::BinOf's formula and width, so the bins equal the serial
  // Histogram::Add path bit for bit.
  const double bin_width =
      Histogram(plan.num_bins, plan.score_lo, plan.score_hi).bin_width();
  const size_t num_attrs = plan.columns.size();
  // groups[a * kIngestCheckBlock + i]: attribute a's group of row i.
  std::vector<int> groups(num_attrs * kIngestCheckBlock);
  std::vector<uint32_t> cells(dense ? kIngestCheckBlock : 0);
  std::vector<int> key(num_attrs);
  size_t sparse_cells_charged = 0;
  for (size_t block = begin; block < end; block += kIngestCheckBlock) {
    if (block > begin) {
      reason = context.Check();
      if (reason != ExhaustionReason::kNone) {
        shard->status = ExhaustionStatus(reason);
        return;
      }
    }
    const size_t n = std::min(kIngestCheckBlock, end - block);
    size_t bad = n;
    size_t bad_attr = 0;
    for (size_t a = 0; a < num_attrs; ++a) {
      int* g = &groups[a * kIngestCheckBlock];
      table.GroupIndices(plan.columns[a], block, block + n, g);
      // Strictly earlier rows only: within a row the first attribute wins.
      size_t first = FirstGroupOutOfRange(g, bad, plan.specs[a].num_groups());
      if (first < bad) {
        bad = first;
        bad_attr = a;
      }
    }
    const double* s = scores.data() + block;
    size_t bad_score = FirstNonFinite(s, bad);
    if (bad_score < bad) {
      shard->status = Status::InvalidArgument(
          "score " + std::to_string(block + bad_score) + " is not finite");
      return;
    }
    if (bad < n) {
      shard->status = Status::OutOfRange(
          "row " + std::to_string(block + bad) + ": group " +
          std::to_string(groups[bad_attr * kIngestCheckBlock + bad]) +
          " out of range for attribute '" + plan.specs[bad_attr].name() + "'");
      return;
    }
    if (dense) {
      std::fill_n(cells.begin(), n, 0u);
      for (size_t a = 0; a < num_attrs; ++a) {
        const int* g = &groups[a * kIngestCheckBlock];
        const uint32_t stride = static_cast<uint32_t>(plan.strides[a]);
        for (size_t i = 0; i < n; ++i) {
          cells[i] += static_cast<uint32_t>(g[i]) * stride;
        }
      }
      for (size_t i = 0; i < n; ++i) {
        const double score = s[i];
        const size_t cell = cells[i];
        shard->bins[cell * static_cast<size_t>(plan.num_bins) +
                    static_cast<size_t>(EqualWidthBucket(
                        score, plan.score_lo, bin_width, plan.num_bins))] +=
            1.0;
        if (score < plan.score_lo || score > plan.score_hi) {
          shard->clamped[cell] += 1.0;
        }
        ++shard->counts[cell];
      }
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t a = 0; a < num_attrs; ++a) {
        key[a] = groups[a * kIngestCheckBlock + i];
      }
      shard->status = shard->sparse->Add(key, s[i]);
      if (!shard->status.ok()) return;
      // Sparse shards charge memory as cells materialize (the dense path
      // charged its arrays up front).
      size_t cells_now = shard->sparse->num_cells();
      if (cells_now > sparse_cells_charged) {
        uint64_t per_cell =
            static_cast<uint64_t>(plan.num_bins) * sizeof(double) + 96;
        reason = context.CheckMemory(
            (cells_now - sparse_cells_charged) * per_cell);
        sparse_cells_charged = cells_now;
        if (reason != ExhaustionReason::kNone) {
          shard->status = ExhaustionStatus(reason);
          return;
        }
      }
    }
  }
}

/// Converts a finished shard into a CellStore (dense arrays rehydrate via
/// Histogram::FromCounts; sparse shards already are one).
StatusOr<CellStore> ShardToStore(const IngestPlan& plan,
                                 CellStoreShard&& shard) {
  if (shard.sparse.has_value()) return std::move(*shard.sparse);
  FAIRRANK_ASSIGN_OR_RETURN(
      CellStore store, CellStore::Make(plan.specs, plan.num_bins,
                                       plan.score_lo, plan.score_hi));
  std::vector<int> key(plan.specs.size(), 0);
  for (size_t cell = 0; cell < plan.num_dense_cells; ++cell) {
    if (shard.counts[cell] == 0) continue;
    size_t rest = cell;
    for (size_t a = 0; a < plan.specs.size(); ++a) {
      key[a] = static_cast<int>(rest / plan.strides[a]);
      rest %= plan.strides[a];
    }
    std::vector<double> counts(
        shard.bins.begin() +
            static_cast<ptrdiff_t>(cell * static_cast<size_t>(plan.num_bins)),
        shard.bins.begin() + static_cast<ptrdiff_t>(
                                 (cell + 1) * static_cast<size_t>(plan.num_bins)));
    FAIRRANK_ASSIGN_OR_RETURN(
        Histogram histogram,
        Histogram::FromCounts(plan.num_bins, plan.score_lo, plan.score_hi,
                              std::move(counts), shard.clamped[cell]));
    FAIRRANK_RETURN_NOT_OK(store.MergeCell(key, histogram, shard.counts[cell]));
  }
  return store;
}

}  // namespace

StatusOr<CellStore> BuildCellStoreParallel(const Table& table,
                                           const std::vector<double>& scores,
                                           const CellStoreIngestOptions& options,
                                           const ExecutionContext& context) {
  if (scores.size() != table.num_rows()) {
    return Status::InvalidArgument(
        "scores has " + std::to_string(scores.size()) + " entries, table has " +
        std::to_string(table.num_rows()) + " rows");
  }
  FAIRRANK_ASSIGN_OR_RETURN(IngestPlan plan, MakeIngestPlan(table, options));
  // The factory validates the bin configuration once; shards inherit it.
  FAIRRANK_ASSIGN_OR_RETURN(
      CellStore result, CellStore::Make(plan.specs, options.num_bins,
                                        options.score_lo, options.score_hi));

  TraceContext* trace = context.trace();
  if (trace != nullptr && !trace->sampled()) trace = nullptr;
  ScopedSpan ingest_span(trace, "ingest", context.trace_parent());
  ExecutionContext bounded = context.WithTrace(trace, ingest_span.id());

  int threads = options.num_threads;
  if (threads <= 0) threads = HardwareThreads();
  size_t rows = table.num_rows();
  size_t num_shards =
      std::max<size_t>(1, std::min<size_t>(static_cast<size_t>(threads), rows));

  Stopwatch timer;
  std::vector<CellStoreShard> shards(num_shards);
  try {
    ParallelForEach(num_shards, threads, [&](size_t s) {
      // ParallelForEach doesn't run the chunk fault hook itself
      // (ParallelForCancellable does); call it here so armed FAIRRANK_FAULT_*
      // plans exercise the ingest shards like any other parallel stage.
      fault::OnParallelChunk(s, bounded.cancel());
      size_t begin = rows * s / num_shards;
      size_t end = rows * (s + 1) / num_shards;
      RunIngestShard(table, scores, plan, bounded, begin, end, &shards[s]);
    });
  } catch (const std::exception& e) {
    // A thrown shard (fault injection, bad_alloc) surfaces as one Status;
    // ParallelForEach already ran every other shard to completion.
    return Status::Internal(std::string("ingest shard failed: ") + e.what());
  }
  // First failing shard by index wins, deterministically; sibling shards
  // are unaffected (they completed on their private accumulators).
  for (const CellStoreShard& shard : shards) {
    FAIRRANK_RETURN_NOT_OK(shard.status);
  }
  {
    ScopedSpan merge_span(trace, "ingest_merge", ingest_span.id());
    for (CellStoreShard& shard : shards) {
      FAIRRANK_ASSIGN_OR_RETURN(CellStore store,
                                ShardToStore(plan, std::move(shard)));
      FAIRRANK_RETURN_NOT_OK(result.MergeFrom(store));
    }
  }
  if (result.num_observations() != rows) {
    return Status::Internal(
        "ingest accounting desync: " +
        std::to_string(result.num_observations()) + " observations from " +
        std::to_string(rows) + " rows");
  }

  const AggregateMetrics& metrics = AggregateMetrics::Get();
  metrics.ingest_rows->Increment(rows);
  metrics.ingest_shards->Increment(num_shards);
  metrics.ingest_builds->Increment();
  metrics.ingest_seconds->Observe(timer.ElapsedSeconds());
  return result;
}

namespace {

/// The cell table of an aggregate audit: one categorical protected attribute
/// per store spec (same name, labels GroupLabel(g)) and one row per cell in
/// cells() order, with each row's histogram and exact count alongside.
struct CellTable {
  Table table;
  std::vector<Histogram> histograms;
  std::vector<size_t> counts;
};

StatusOr<CellTable> MakeCellTable(const CellStore& store) {
  Schema schema;
  for (const AttributeSpec& spec : store.specs()) {
    std::vector<std::string> labels;
    for (int g = 0; g < spec.num_groups(); ++g) {
      labels.push_back(spec.GroupLabel(g));
    }
    FAIRRANK_RETURN_NOT_OK(schema.AddAttribute(AttributeSpec::Categorical(
        spec.name(), AttributeRole::kProtected, std::move(labels))));
  }
  CellTable cells{Table(std::move(schema)), {}, {}};
  cells.table.Reserve(store.num_cells());
  cells.histograms.reserve(store.num_cells());
  cells.counts.reserve(store.num_cells());
  std::vector<Cell> row(store.specs().size());
  for (const auto& [key, cell] : store.cells()) {
    for (size_t a = 0; a < key.size(); ++a) {
      row[a] = static_cast<int64_t>(key[a]);
    }
    FAIRRANK_RETURN_NOT_OK(cells.table.AppendRow(row));
    cells.histograms.push_back(cell.histogram);
    cells.counts.push_back(cell.count);
  }
  return cells;
}

/// Appends the attributes on `path` not yet in `used`, in path order.
void NoteAttributes(const std::vector<SplitStep>& path,
                    std::vector<size_t>* used) {
  for (const SplitStep& step : path) {
    if (std::find(used->begin(), used->end(), step.attr_index) ==
        used->end()) {
      used->push_back(step.attr_index);
    }
  }
}

}  // namespace

StatusOr<AggregateAuditResult> AuditAggregate(const CellStore& store,
                                              const AuditOptions& options,
                                              const ExecutionContext& context) {
  if (store.num_cells() == 0) {
    return Status::FailedPrecondition("cell store is empty");
  }
  FAIRRANK_ASSIGN_OR_RETURN(CellTable cells, MakeCellTable(store));
  const Schema& schema = cells.table.schema();
  std::vector<size_t> attrs;
  if (options.protected_attributes.empty()) {
    attrs = schema.ProtectedIndices();
  } else {
    for (const std::string& name : options.protected_attributes) {
      FAIRRANK_ASSIGN_OR_RETURN(size_t index, schema.FindIndex(name));
      attrs.push_back(index);
    }
  }

  TraceContext* trace = context.trace();
  if (trace != nullptr && !trace->sampled()) trace = nullptr;
  ScopedSpan audit_span(trace, "aggregate_audit", context.trace_parent());
  const ExecutionContext search_context =
      context.WithTrace(trace, audit_span.id());

  EvaluatorOptions report_options = options.evaluator;
  report_options.num_bins = store.num_bins();
  report_options.score_lo = store.score_lo();
  report_options.score_hi = store.score_hi();
  report_options.trace = trace;
  report_options.trace_parent = audit_span.id();
  EvaluatorOptions search_options = report_options;
  search_options.deadline = context.deadline();
  search_options.cancel = context.cancel();
  FAIRRANK_ASSIGN_OR_RETURN(
      UnfairnessEvaluator search_eval,
      UnfairnessEvaluator::MakeFromHistograms(&cells.table, cells.histograms,
                                              search_options));
  FAIRRANK_ASSIGN_OR_RETURN(
      UnfairnessEvaluator eval,
      UnfairnessEvaluator::MakeFromHistograms(
          &cells.table, std::move(cells.histograms), report_options));
  search_eval.AttachExecutionContext(search_context);

  AlgorithmConfig config;
  config.seed = options.seed;
  config.exhaustive = options.exhaustive;
  config.beam_width = options.beam_width;
  FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<PartitioningAlgorithm> algorithm,
                            MakeAlgorithmByName(options.algorithm, config));
  FAIRRANK_ASSIGN_OR_RETURN(SearchResult search,
                            algorithm->Run(search_eval, std::move(attrs),
                                           search_context));

  AggregateAuditResult result;
  result.algorithm = algorithm->Name();
  result.truncated = search.truncated;
  result.exhaustion_reason = search.reason;
  result.nodes_visited = search.nodes_visited;
  FAIRRANK_ASSIGN_OR_RETURN(
      result.unfairness, eval.AveragePairwiseUnfairness(search.partitioning));
  result.partitions.reserve(search.partitioning.size());
  size_t covered = 0;
  for (const Partition& p : search.partitioning) {
    AggregatePartition out;
    out.label = PartitionLabel(schema, p);
    out.histogram = eval.BuildHistogram(p);
    // Exact counts, not histogram mass: clamped out-of-range scores (or
    // future sketch mass) would silently desync the latter from
    // num_observations().
    for (size_t cell : p.rows) out.size += cells.counts[cell];
    covered += out.size;
    NoteAttributes(p.path, &result.attributes_used);
    for (const auto& path : p.merged_paths) {
      NoteAttributes(path, &result.attributes_used);
    }
    result.partitions.push_back(std::move(out));
  }
  if (covered != store.num_observations()) {
    return Status::Internal(
        "aggregate audit lost observations: partitions cover " +
        std::to_string(covered) + " of " +
        std::to_string(store.num_observations()));
  }
  AggregateMetrics::Get().audits->Increment();
  return result;
}

StatusOr<AggregateAudit> RunAggregateAudit(const Table& table,
                                           const ScoringFunction& fn,
                                           const AuditOptions& options) {
  FAIRRANK_ASSIGN_OR_RETURN(std::vector<double> scores, fn.ScoreAll(table));

  CellStoreIngestOptions ingest;
  ingest.num_bins = options.evaluator.num_bins;
  ingest.score_lo = options.evaluator.score_lo;
  ingest.score_hi = options.evaluator.score_hi;
  ingest.num_threads = options.evaluator.num_threads <= 0
                           ? HardwareThreads()
                           : options.evaluator.num_threads;
  ingest.protected_attributes = options.protected_attributes;

  ResourceBudget budget = options.limits.MakeBudget();
  ExecutionContext context = options.limits.MakeContext(&budget);

  AggregateReportInfo info;
  info.scoring_function = fn.Name();
  info.divergence = options.evaluator.divergence;
  info.ingest_threads = ingest.num_threads;

  Stopwatch ingest_timer;
  FAIRRANK_ASSIGN_OR_RETURN(
      CellStore store, BuildCellStoreParallel(table, scores, ingest, context));
  info.ingest_seconds = ingest_timer.ElapsedSeconds();

  Stopwatch audit_timer;
  FAIRRANK_ASSIGN_OR_RETURN(AggregateAuditResult result,
                            AuditAggregate(store, options, context));
  info.audit_seconds = audit_timer.ElapsedSeconds();
  return AggregateAudit{std::move(store), std::move(result), std::move(info)};
}

StatusOr<AggregateAuditResult> AuditAggregateBalanced(
    const CellStore& store, const std::string& divergence,
    const ExecutionContext& context) {
  AuditOptions options;
  options.algorithm = "balanced";
  options.evaluator.divergence = divergence;
  return AuditAggregate(store, options, context);
}

}  // namespace fairrank
