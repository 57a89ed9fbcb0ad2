// fairaudit — command-line front end for the fairrank library.
//
//   fairaudit generate --workers 2000 --seed 7 --out workers.csv
//                      [--realistic] [--bias 0.5]
//   fairaudit profile  --input workers.csv [--function alpha:0.5]
//   fairaudit audit    --input workers.csv --function alpha:0.5
//                      [--algorithm balanced] [--bins 10] [--divergence emd]
//                      [--attributes Gender,Country] [--json] [--histograms]
//                      [--timeout-ms 5000] [--max-nodes 100000]
//                      [--max-memory-mb 512] [--threads 4] [--beam-width 3]
//                      [--trace] [--aggregate]
//   fairaudit suite    --input workers.csv
//                      [--functions alpha:0.25,alpha:0.5,f6]
//                      [--algorithms balanced,unbalanced] [--csv] [--json]
//                      [--suite-threads 4]
//                      [+ the audit flags above]
//   fairaudit rank     --input workers.csv --function alpha:0.5 [--top 10]
//   fairaudit exposure --input workers.csv --function alpha:0.5
//                      [--bias log|reciprocal|topk] [--top 10]
//   fairaudit repair   --input workers.csv --function f6 --strategy quantile
//                      [--lambda 0.5] [--out repaired.csv]
//   fairaudit apply    --input workers.csv --spec partitioning.txt
//                      --function alpha:0.5 [--collect-rest]
//   fairaudit significance --input workers.csv --function f6
//                      [--iterations 99] [--algorithm balanced]
//   fairaudit catalog  --input workers.csv [--algorithm balanced]
//   fairaudit list
//
// `audit --save-partitioning file.txt` writes the found partitioning's
// structure; `apply` re-applies it to (possibly different) data — audit a
// sample, monitor the full population.
//
// Scoring function specs: "alpha:<a>" for the paper's linear family,
// "f6".."f9" for the biased-by-design functions (add ":<seed>" to reseed,
// e.g. "f7:99"), or "weights:Attr=0.7,Other=0.3" for an arbitrary linear
// function over observed attributes.
//
// `--timeout-ms`, `--max-nodes` and `--max-memory-mb` (accepted by audit,
// suite, repair, significance and catalog) bound the partition search; on
// exhaustion the search degrades to its best partitioning found so far and
// the report / JSON marks the result truncated with the reason. The command
// still exits 0 — a bounded audit is an answer, not an error.
//
// `suite` runs the full algorithms × functions grid (the paper's tables).
// Cells are dispatched onto `--suite-threads` workers; `--max-nodes` /
// `--max-memory-mb` bound the *aggregate* work of the whole grid via one
// hierarchical budget. A failing cell renders as ERR and never aborts the
// grid.
// `--functions` is comma-separated, so `weights:...` specs (which contain
// commas) are not accepted there — use `audit` for those.
//
// `audit --aggregate` first collapses the workers into per-demographic-cell
// score histograms (sharded over `--threads`), then runs the same
// `--algorithm` on a table whose rows are the cells. Every algorithm gives
// the row-level answer bit for bit; the limits truncate it the same way.
//
// Integer flags are range-checked before narrowing: `--bins` must lie in
// [1, 1000], `--workers` and `--iterations` must be at least 1, and the
// rest must fit in an int. The evaluator memoizes nothing: it builds each
// histogram where its partition is made and recomputes divergences, and the
// report prints how many of each it built and computed.
//
// `audit --trace` records spans through the pipeline (search, expand,
// evaluate, histogram, emd) and prints the span tree with
// per-name totals to stderr after the report — where the audit's time
// actually went, without a profiler.
//
// Input CSVs must carry the paper's worker schema columns (see
// `fairaudit generate`); extra columns are ignored.

#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "data/csv.h"
#include "data/profile.h"
#include "fairness/aggregate.h"
#include "fairness/auditor.h"
#include "fairness/exposure.h"
#include "fairness/option_flags.h"
#include "fairness/report.h"
#include "fairness/serialize.h"
#include "fairness/significance.h"
#include "fairness/suite.h"
#include "marketplace/generator.h"
#include "marketplace/ranking.h"
#include "marketplace/realistic.h"
#include "marketplace/tasks.h"
#include "marketplace/worker.h"
#include "repair/repair.h"
#include "stats/divergence.h"

namespace fairrank {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "fairaudit: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: fairaudit <generate|profile|audit|suite|rank|exposure|"
               "repair|apply|significance|list> [flags]\n"
               "run `fairaudit list` for algorithms, divergences and "
               "function specs\n");
  return 2;
}

/// Parses a scoring-function spec (see file header). Shared with
/// fairauditd so CLI and HTTP specs parse identically.
StatusOr<std::unique_ptr<ScoringFunction>> MakeFunction(
    const std::string& spec) {
  return MakeFunctionFromSpec(spec);
}

StatusOr<Table> LoadWorkers(const FlagParser& flags) {
  std::string input = flags.GetString("input", "");
  if (input.empty()) {
    return Status::InvalidArgument("--input <csv> is required");
  }
  FAIRRANK_ASSIGN_OR_RETURN(Schema schema, MakePaperWorkerSchema());
  return ReadCsvFile(input, schema);
}

int CmdGenerate(const FlagParser& flags) {
  StatusOr<int> workers = GetBoundedInt(flags, "workers", 500, 1, kIntMax);
  auto seed = flags.GetInt("seed", 42);
  auto realistic = flags.GetBool("realistic", false);
  if (!workers.ok()) return Fail(workers.status());
  if (!seed.ok()) return Fail(seed.status());
  if (!realistic.ok()) return Fail(realistic.status());

  StatusOr<Table> table = Status::Internal("unset");
  if (*realistic) {
    RealisticGeneratorOptions options;
    options.num_workers = static_cast<size_t>(*workers);
    options.seed = static_cast<uint64_t>(*seed);
    auto bias = flags.GetDouble("bias", 1.0);
    if (!bias.ok()) return Fail(bias.status());
    options.bias_strength = *bias;
    table = GenerateRealisticWorkers(options);
  } else {
    GeneratorOptions options;
    options.num_workers = static_cast<size_t>(*workers);
    options.seed = static_cast<uint64_t>(*seed);
    table = GenerateWorkers(options);
  }
  if (!table.ok()) return Fail(table.status());
  std::string out = flags.GetString("out", "workers.csv");
  Status written = WriteCsvFile(out, *table);
  if (!written.ok()) return Fail(written);
  std::printf("wrote %zu %s workers (seed %lld) to %s\n", table->num_rows(),
              *realistic ? "realistic" : "uniform",
              static_cast<long long>(*seed), out.c_str());
  return 0;
}

int CmdProfile(const FlagParser& flags) {
  StatusOr<Table> workers = LoadWorkers(flags);
  if (!workers.ok()) return Fail(workers.status());
  StatusOr<TableProfile> profile = ProfileTable(*workers);
  if (!profile.ok()) return Fail(profile.status());
  std::printf("%s", FormatTableProfile(*profile).c_str());

  // With a function, also print the single-attribute association screen.
  if (flags.Has("function")) {
    StatusOr<std::unique_ptr<ScoringFunction>> fn =
        MakeFunction(flags.GetString("function", "alpha:0.5"));
    if (!fn.ok()) return Fail(fn.status());
    StatusOr<std::vector<double>> scores = (*fn)->ScoreAll(*workers);
    if (!scores.ok()) return Fail(scores.status());
    StatusOr<std::vector<ScoreAssociation>> associations =
        ScoreAssociations(*workers, *scores);
    if (!associations.ok()) return Fail(associations.status());
    std::printf("\nscore association with %s (single-attribute screen):\n",
                (*fn)->Name().c_str());
    TextTable table;
    table.SetHeader({"attribute", "eta^2", "max mean gap"});
    for (const ScoreAssociation& a : *associations) {
      table.AddRow({a.attribute, FormatDouble(a.eta_squared, 4),
                    FormatDouble(a.max_mean_gap, 4)});
    }
    std::printf("%s", table.ToString().c_str());
    std::printf(
        "note: a weak screen does not mean fair — run `fairaudit audit` for "
        "subgroup combinations.\n");
  }
  return 0;
}

/// `audit --aggregate`: collapses the table into per-cell histograms with
/// the sharded ingest path (`--threads` shards) and runs the audit's
/// algorithm on the cells — the million-worker route (see DESIGN.md §12).
/// Shares the algorithm, evaluator, limit, and output flags with the
/// row-level audit.
int CmdAuditAggregate(const FlagParser& flags, const Table& workers,
                      const ScoringFunction& fn, const AuditOptions& options) {
  StatusOr<std::vector<double>> scores = fn.ScoreAll(workers);
  if (!scores.ok()) return Fail(scores.status());

  CellStoreIngestOptions ingest;
  ingest.num_bins = options.evaluator.num_bins;
  ingest.score_lo = options.evaluator.score_lo;
  ingest.score_hi = options.evaluator.score_hi;
  ingest.num_threads = options.evaluator.num_threads;
  ingest.protected_attributes = options.protected_attributes;

  ResourceBudget budget = options.limits.MakeBudget();
  ExecutionContext context = options.limits.MakeContext(&budget);

  Stopwatch ingest_timer;
  StatusOr<CellStore> store =
      BuildCellStoreParallel(workers, *scores, ingest, context);
  if (!store.ok()) return Fail(store.status());

  AggregateReportInfo info;
  info.scoring_function = fn.Name();
  info.divergence = options.evaluator.divergence;
  info.ingest_threads =
      ingest.num_threads <= 0 ? HardwareThreads() : ingest.num_threads;
  info.ingest_seconds = ingest_timer.ElapsedSeconds();

  Stopwatch audit_timer;
  StatusOr<AggregateAuditResult> result =
      AuditAggregate(*store, options, context);
  if (!result.ok()) return Fail(result.status());
  info.audit_seconds = audit_timer.ElapsedSeconds();

  StatusOr<bool> json = flags.GetBool("json", false);
  if (!json.ok()) return Fail(json.status());
  if (*json) {
    std::printf("%s\n",
                FormatAggregateAuditJson(*store, *result, info).c_str());
    return 0;
  }
  ReportOptions report;
  StatusOr<bool> histograms = flags.GetBool("histograms", false);
  if (!histograms.ok()) return Fail(histograms.status());
  report.include_histograms = *histograms;
  StatusOr<int> max_partitions =
      GetBoundedInt(flags, "max-partitions", 20, 0, kIntMax);
  if (!max_partitions.ok()) return Fail(max_partitions.status());
  report.max_partitions = static_cast<size_t>(*max_partitions);
  std::printf("%s",
              FormatAggregateAuditReport(*store, *result, info, report).c_str());
  return 0;
}

int CmdAudit(const FlagParser& flags) {
  StatusOr<Table> workers = LoadWorkers(flags);
  if (!workers.ok()) return Fail(workers.status());
  StatusOr<std::unique_ptr<ScoringFunction>> fn =
      MakeFunction(flags.GetString("function", "alpha:0.5"));
  if (!fn.ok()) return Fail(fn.status());
  StatusOr<AuditOptions> options = AuditOptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status());
  StatusOr<bool> traced = flags.GetBool("trace", false);
  if (!traced.ok()) return Fail(traced.status());
  std::unique_ptr<TraceContext> trace;
  if (*traced) {
    trace = std::make_unique<TraceContext>();
    options->limits.trace = trace.get();
  }

  StatusOr<bool> aggregate = flags.GetBool("aggregate", false);
  if (!aggregate.ok()) return Fail(aggregate.status());
  if (*aggregate) {
    if (flags.Has("save-partitioning")) {
      return Fail(Status::InvalidArgument(
          "--save-partitioning needs row-level partitions; it cannot be "
          "combined with --aggregate"));
    }
    int code = CmdAuditAggregate(flags, *workers, **fn, *options);
    if (trace != nullptr) {
      std::fprintf(stderr, "%s", trace->FormatTree().c_str());
    }
    return code;
  }

  FairnessAuditor auditor(&workers.value());
  StatusOr<AuditResult> result = auditor.Audit(**fn, *options);
  if (!result.ok()) return Fail(result.status());
  // The tree goes to stderr so `--json | jq` keeps working with --trace on.
  if (trace != nullptr) {
    std::fprintf(stderr, "%s", trace->FormatTree().c_str());
  }

  std::string save_path = flags.GetString("save-partitioning", "");
  if (!save_path.empty()) {
    std::string text =
        SerializePartitioning(workers->schema(), result->partitioning);
    FILE* f = std::fopen(save_path.c_str(), "w");
    if (f == nullptr) {
      return Fail(Status::IOError("cannot open '" + save_path + "'"));
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "saved partitioning structure to %s\n",
                 save_path.c_str());
  }

  StatusOr<bool> json = flags.GetBool("json", false);
  if (!json.ok()) return Fail(json.status());
  if (*json) {
    std::printf("%s\n", FormatAuditJson(*result).c_str());
    return 0;
  }
  ReportOptions report;
  StatusOr<bool> histograms = flags.GetBool("histograms", false);
  if (!histograms.ok()) return Fail(histograms.status());
  report.include_histograms = *histograms;
  StatusOr<int> max_partitions =
      GetBoundedInt(flags, "max-partitions", 20, 0, kIntMax);
  if (!max_partitions.ok()) return Fail(max_partitions.status());
  report.max_partitions = static_cast<size_t>(*max_partitions);
  std::printf("%s", FormatAuditReport(*result, report).c_str());
  return 0;
}

int CmdSuite(const FlagParser& flags) {
  StatusOr<Table> workers = LoadWorkers(flags);
  if (!workers.ok()) return Fail(workers.status());
  StatusOr<AuditOptions> audit_options = AuditOptionsFromFlags(flags);
  if (!audit_options.ok()) return Fail(audit_options.status());

  std::vector<std::unique_ptr<ScoringFunction>> owned;
  std::vector<const ScoringFunction*> functions;
  for (const std::string& spec :
       Split(flags.GetString("functions", "alpha:0.25,alpha:0.5,alpha:0.75"),
             ',')) {
    StatusOr<std::unique_ptr<ScoringFunction>> fn =
        MakeFunction(std::string(Trim(spec)));
    if (!fn.ok()) return Fail(fn.status());
    owned.push_back(std::move(fn).value());
    functions.push_back(owned.back().get());
  }

  SuiteOptions options;
  std::string algorithms = flags.GetString("algorithms", "");
  if (!algorithms.empty()) {
    for (const std::string& name : Split(algorithms, ',')) {
      options.algorithms.emplace_back(Trim(name));
    }
  }
  options.evaluator = audit_options->evaluator;
  options.seed = audit_options->seed;
  options.protected_attributes = audit_options->protected_attributes;
  options.limits = audit_options->limits;
  StatusOr<int> suite_threads =
      GetBoundedInt(flags, "suite-threads", 1, 0, kIntMax);
  if (!suite_threads.ok()) return Fail(suite_threads.status());
  options.num_threads = *suite_threads;
  AuditSuite suite(&workers.value());
  StatusOr<SuiteResult> result = suite.Run(functions, options);
  if (!result.ok()) return Fail(result.status());

  StatusOr<bool> json = flags.GetBool("json", false);
  if (!json.ok()) return Fail(json.status());
  StatusOr<bool> csv = flags.GetBool("csv", false);
  if (!csv.ok()) return Fail(csv.status());
  if (*json) {
    std::printf("%s\n", FormatSuiteJson(*result).c_str());
  } else if (*csv) {
    std::printf("%s\n%s", FormatSuiteCsv(*result).c_str(),
                FormatSuiteSummaryCsv(*result).c_str());
  } else {
    std::printf("Average unfairness:\n%s\ntime (in secs):\n%s\n%s",
                FormatSuiteUnfairness(*result).c_str(),
                FormatSuiteRuntime(*result).c_str(),
                FormatSuiteSummary(*result).c_str());
  }
  return 0;
}

int CmdRank(const FlagParser& flags) {
  StatusOr<Table> workers = LoadWorkers(flags);
  if (!workers.ok()) return Fail(workers.status());
  StatusOr<std::unique_ptr<ScoringFunction>> fn =
      MakeFunction(flags.GetString("function", "alpha:0.5"));
  if (!fn.ok()) return Fail(fn.status());
  StatusOr<int> top = GetBoundedInt(flags, "top", 10, 0, kIntMax);
  if (!top.ok()) return Fail(top.status());

  RankingEngine engine(&workers.value());
  StatusOr<std::vector<RankedWorker>> ranking =
      engine.TopK(**fn, static_cast<size_t>(*top));
  if (!ranking.ok()) return Fail(ranking.status());

  TextTable table;
  std::vector<std::string> header = {"rank", "row", "score"};
  for (size_t a = 0; a < workers->schema().num_attributes(); ++a) {
    if (workers->schema().attribute(a).is_protected()) {
      header.push_back(workers->schema().attribute(a).name());
    }
  }
  table.SetHeader(header);
  for (size_t i = 0; i < ranking->size(); ++i) {
    const RankedWorker& r = (*ranking)[i];
    std::vector<std::string> row = {std::to_string(i + 1),
                                    std::to_string(r.row),
                                    FormatDouble(r.score, 4)};
    for (size_t a = 0; a < workers->schema().num_attributes(); ++a) {
      if (workers->schema().attribute(a).is_protected()) {
        row.push_back(workers->CellToString(r.row, a));
      }
    }
    table.AddRow(row);
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int CmdExposure(const FlagParser& flags) {
  StatusOr<Table> workers = LoadWorkers(flags);
  if (!workers.ok()) return Fail(workers.status());
  StatusOr<std::unique_ptr<ScoringFunction>> fn =
      MakeFunction(flags.GetString("function", "alpha:0.5"));
  if (!fn.ok()) return Fail(fn.status());

  ExposureOptions options;
  std::string bias = flags.GetString("bias", "log");
  if (bias == "log") {
    options.bias = PositionBias::kLogarithmic;
  } else if (bias == "reciprocal") {
    options.bias = PositionBias::kReciprocal;
  } else if (bias == "topk") {
    options.bias = PositionBias::kTopK;
    StatusOr<int> top = GetBoundedInt(flags, "top", 10, 0, kIntMax);
    if (!top.ok()) return Fail(top.status());
    options.top_k = static_cast<size_t>(*top);
  } else {
    return Fail(Status::InvalidArgument("--bias must be log|reciprocal|topk"));
  }

  RankingEngine engine(&workers.value());
  StatusOr<std::vector<RankedWorker>> ranking = engine.Rank(**fn);
  if (!ranking.ok()) return Fail(ranking.status());
  StatusOr<std::vector<ExposureReport>> reports =
      ComputeAllExposures(*workers, *ranking, options);
  if (!reports.ok()) return Fail(reports.status());

  for (const ExposureReport& report : *reports) {
    std::printf("%s  (exposure gap %.4f, treatment disparity %.4f)\n",
                report.attribute.c_str(), report.exposure_gap,
                report.treatment_disparity);
    TextTable table;
    table.SetHeader({"group", "size", "mean exposure", "mean score"});
    for (const GroupExposure& g : report.groups) {
      table.AddRow({g.group_label, std::to_string(g.group_size),
                    FormatDouble(g.mean_exposure, 4),
                    FormatDouble(g.mean_score, 4)});
    }
    std::printf("%s\n", table.ToString().c_str());
  }
  return 0;
}

int CmdRepair(const FlagParser& flags) {
  StatusOr<Table> workers = LoadWorkers(flags);
  if (!workers.ok()) return Fail(workers.status());
  StatusOr<std::unique_ptr<ScoringFunction>> fn =
      MakeFunction(flags.GetString("function", "f6"));
  if (!fn.ok()) return Fail(fn.status());
  StatusOr<AuditOptions> options = AuditOptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status());

  std::string strategy_name = flags.GetString("strategy", "quantile");
  std::unique_ptr<RepairStrategy> strategy;
  if (strategy_name == "quantile") {
    strategy = MakeQuantileRepair();
  } else if (strategy_name == "affine") {
    strategy = MakeAffineRepair();
  } else if (strategy_name == "interpolation") {
    StatusOr<double> lambda = flags.GetDouble("lambda", 0.5);
    if (!lambda.ok()) return Fail(lambda.status());
    strategy = MakeInterpolationRepair(*lambda);
  } else {
    return Fail(Status::InvalidArgument(
        "--strategy must be quantile|affine|interpolation"));
  }

  FairnessAuditor auditor(&workers.value());
  StatusOr<AuditResult> audit = auditor.Audit(**fn, *options);
  if (!audit.ok()) return Fail(audit.status());
  StatusOr<std::vector<double>> scores = (*fn)->ScoreAll(*workers);
  if (!scores.ok()) return Fail(scores.status());

  StatusOr<RepairEvaluation> evaluation =
      EvaluateRepair(*workers, audit->partitioning, *scores, *strategy,
                     options->evaluator);
  if (!evaluation.ok()) return Fail(evaluation.status());
  std::printf(
      "repair=%s on %s/%s: unfairness %.4f -> %.4f  "
      "mean |delta score| %.4f  rank correlation %.4f\n",
      strategy->Name().c_str(), audit->algorithm.c_str(),
      audit->scoring_function.c_str(), evaluation->unfairness_before,
      evaluation->unfairness_after, evaluation->mean_score_change,
      evaluation->rank_correlation);

  std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    // Emit row,original,repaired per worker.
    std::string csv = "row,original_score,repaired_score\n";
    for (size_t i = 0; i < scores->size(); ++i) {
      csv += std::to_string(i) + "," + FormatDouble((*scores)[i], 6) + "," +
             FormatDouble(evaluation->repaired_scores[i], 6) + "\n";
    }
    FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      return Fail(Status::IOError("cannot open '" + out + "' for writing"));
    }
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
    std::printf("wrote repaired scores to %s\n", out.c_str());
  }
  return 0;
}

int CmdApply(const FlagParser& flags) {
  StatusOr<Table> workers = LoadWorkers(flags);
  if (!workers.ok()) return Fail(workers.status());
  std::string spec_path = flags.GetString("spec", "");
  if (spec_path.empty()) {
    return Fail(Status::InvalidArgument("--spec <file> is required"));
  }
  FILE* f = std::fopen(spec_path.c_str(), "r");
  if (f == nullptr) {
    return Fail(Status::IOError("cannot open '" + spec_path + "'"));
  }
  std::string text;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);

  StatusOr<bool> collect = flags.GetBool("collect-rest", false);
  if (!collect.ok()) return Fail(collect.status());
  StatusOr<Partitioning> partitioning = ApplyPartitioningSpec(
      *workers, text,
      *collect ? UnmatchedRowPolicy::kCollectRest
               : UnmatchedRowPolicy::kError);
  if (!partitioning.ok()) return Fail(partitioning.status());

  StatusOr<std::unique_ptr<ScoringFunction>> fn =
      MakeFunction(flags.GetString("function", "alpha:0.5"));
  if (!fn.ok()) return Fail(fn.status());
  StatusOr<std::vector<double>> scores = (*fn)->ScoreAll(*workers);
  if (!scores.ok()) return Fail(scores.status());
  EvaluatorOptions evaluator;
  StatusOr<int> bins = GetBoundedInt(flags, "bins", 10, 1, kMaxBins);
  if (!bins.ok()) return Fail(bins.status());
  evaluator.num_bins = *bins;
  evaluator.divergence = flags.GetString("divergence", "emd");
  StatusOr<UnfairnessEvaluator> eval =
      UnfairnessEvaluator::Make(&workers.value(), *scores, evaluator);
  if (!eval.ok()) return Fail(eval.status());
  StatusOr<double> unfairness =
      eval->AveragePairwiseUnfairness(*partitioning);
  if (!unfairness.ok()) return Fail(unfairness.status());

  std::printf("applied %zu partitions from %s to %zu workers\n",
              partitioning->size(), spec_path.c_str(), workers->num_rows());
  std::printf("unfairness of %s on this partitioning: %.4f\n",
              (*fn)->Name().c_str(), *unfairness);
  TextTable table;
  table.SetHeader({"partition", "size"});
  for (const Partition& p : *partitioning) {
    table.AddRow({PartitionLabel(workers->schema(), p),
                  std::to_string(p.size())});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int CmdSignificance(const FlagParser& flags) {
  StatusOr<Table> workers = LoadWorkers(flags);
  if (!workers.ok()) return Fail(workers.status());
  StatusOr<std::unique_ptr<ScoringFunction>> fn =
      MakeFunction(flags.GetString("function", "alpha:0.5"));
  if (!fn.ok()) return Fail(fn.status());
  StatusOr<AuditOptions> options = AuditOptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status());
  StatusOr<int> iterations =
      GetBoundedInt(flags, "iterations", 99, 1, kIntMax);
  if (!iterations.ok()) return Fail(iterations.status());

  FairnessAuditor auditor(&workers.value());
  StatusOr<AuditResult> audit = auditor.Audit(**fn, *options);
  if (!audit.ok()) return Fail(audit.status());
  StatusOr<std::vector<double>> scores = (*fn)->ScoreAll(*workers);
  if (!scores.ok()) return Fail(scores.status());
  StatusOr<UnfairnessEvaluator> eval = UnfairnessEvaluator::Make(
      &workers.value(), *scores, options->evaluator);
  if (!eval.ok()) return Fail(eval.status());

  StatusOr<PermutationResult> permutation = PermutationTestUnfairness(
      *eval, audit->partitioning, static_cast<size_t>(*iterations),
      options->seed + 1);
  if (!permutation.ok()) return Fail(permutation.status());
  StatusOr<BootstrapResult> bootstrap =
      BootstrapUnfairness(*eval, audit->partitioning,
                          static_cast<size_t>(*iterations), options->seed + 2);
  if (!bootstrap.ok()) return Fail(bootstrap.status());

  std::printf("audit: %s via %s -> unfairness %.4f (%zu partitions)%s\n",
              audit->scoring_function.c_str(), audit->algorithm.c_str(),
              audit->unfairness, audit->partitions.size(),
              audit->truncated ? " [search truncated]" : "");
  std::printf("permutation test (%lld iterations): null mean %.4f, "
              "p-value %.4f\n",
              static_cast<long long>(*iterations), permutation->null_mean,
              permutation->p_value);
  std::printf("bootstrap 95%% CI: [%.4f, %.4f] (mean %.4f)\n",
              bootstrap->ci_lo, bootstrap->ci_hi, bootstrap->mean);
  return 0;
}

int CmdCatalog(const FlagParser& flags) {
  StatusOr<Table> workers = LoadWorkers(flags);
  if (!workers.ok()) return Fail(workers.status());
  StatusOr<AuditOptions> options = AuditOptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status());
  TaskCatalog catalog = TaskCatalog::MakeDefaultCatalog();
  StatusOr<std::vector<CategoryAuditRow>> rows =
      AuditCatalog(*workers, catalog, *options);
  if (!rows.ok()) return Fail(rows.status());
  std::printf("per-category audit via %s (least fair first):\n",
              options->algorithm.c_str());
  TextTable table;
  table.SetHeader(
      {"category", "unfairness", "partitions", "attributes", "truncated"});
  bool any_truncated = false;
  for (const CategoryAuditRow& row : *rows) {
    any_truncated |= row.truncated;
    table.AddRow({row.category, FormatDouble(row.unfairness, 4),
                  std::to_string(row.num_partitions),
                  Join(row.attributes_used, ", "),
                  row.truncated ? "yes" : "no"});
  }
  std::printf("%s", table.ToString().c_str());
  if (any_truncated) {
    std::printf(
        "note: truncated rows hit the deadline or budget; their unfairness "
        "is a lower bound from the best partitioning found in time.\n");
  }
  return 0;
}

int CmdList() {
  std::printf("algorithms:\n");
  for (const std::string& name : KnownAlgorithmNames()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("divergences:\n");
  for (const std::string& name : KnownDivergenceNames()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf(
      "function specs:\n"
      "  alpha:<a>              a*LanguageTest + (1-a)*ApprovalRate\n"
      "  f6[:seed]..f9[:seed]   the paper's biased-by-design functions\n"
      "  weights:A=0.7,B=0.3    arbitrary linear function\n");
  return 0;
}

/// The exact flags each command accepts. A flag outside this set fails the
/// command (see ValidateKnownFlags) — a misspelled `--max-node` must not
/// silently run an unbounded audit.
StatusOr<std::vector<std::string>> KnownFlagsForCommand(
    const std::string& command) {
  std::vector<std::string> known;
  auto add = [&known](std::initializer_list<const char*> names) {
    for (const char* name : names) known.emplace_back(name);
  };
  auto add_audit_flags = [&known] {
    const std::vector<std::string>& names = AuditOptionFlagNames();
    known.insert(known.end(), names.begin(), names.end());
  };
  if (command == "generate") {
    add({"workers", "seed", "realistic", "bias", "out"});
  } else if (command == "profile") {
    add({"input", "function"});
  } else if (command == "audit") {
    add_audit_flags();
    add({"input", "function", "json", "histograms", "max-partitions",
         "save-partitioning", "trace", "aggregate"});
  } else if (command == "suite") {
    add_audit_flags();
    add({"input", "functions", "algorithms", "csv", "json",
         "suite-threads"});
  } else if (command == "rank") {
    add({"input", "function", "top"});
  } else if (command == "exposure") {
    add({"input", "function", "bias", "top"});
  } else if (command == "repair") {
    add_audit_flags();
    add({"input", "function", "strategy", "lambda", "out"});
  } else if (command == "apply") {
    add({"input", "spec", "function", "collect-rest", "bins", "divergence"});
  } else if (command == "significance") {
    add_audit_flags();
    add({"input", "function", "iterations"});
  } else if (command == "catalog") {
    add_audit_flags();
    add({"input"});
  } else if (command == "list") {
    // No flags.
  } else {
    return Status::InvalidArgument("unknown command '" + command + "'");
  }
  return known;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  StatusOr<FlagParser> flags = FlagParser::Parse(argc - 2, argv + 2);
  if (!flags.ok()) return Fail(flags.status());
  StatusOr<std::vector<std::string>> known = KnownFlagsForCommand(command);
  if (!known.ok()) return Usage();
  Status validated = ValidateKnownFlags(*flags, *known);
  if (!validated.ok()) return Fail(validated);
  if (command == "generate") return CmdGenerate(*flags);
  if (command == "profile") return CmdProfile(*flags);
  if (command == "audit") return CmdAudit(*flags);
  if (command == "suite") return CmdSuite(*flags);
  if (command == "rank") return CmdRank(*flags);
  if (command == "exposure") return CmdExposure(*flags);
  if (command == "repair") return CmdRepair(*flags);
  if (command == "apply") return CmdApply(*flags);
  if (command == "significance") return CmdSignificance(*flags);
  if (command == "catalog") return CmdCatalog(*flags);
  if (command == "list") return CmdList();
  return Usage();
}

}  // namespace
}  // namespace fairrank

int main(int argc, char** argv) { return fairrank::Main(argc, argv); }
