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
//                      [+ the audit flags above except --algorithm]
//   fairaudit rank     --input workers.csv --function alpha:0.5 [--top 10]
//   fairaudit exposure --input workers.csv --function alpha:0.5
//                      [--bias log|reciprocal|topk] [--top 10]
//   fairaudit repair   --input workers.csv --function f6 --strategy quantile
//                      [--lambda 0.5] [--out repaired.csv]
//   fairaudit apply    --input workers.csv --spec partitioning.txt
//                      --function alpha:0.5 [--collect-rest]
//                      [--bins 10] [--divergence emd]
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
// Every cell audits with the audit flags (so `--beam-width` reaches every
// beam cell) and sets only its own algorithm, `--seed` plus its column and
// no worst pairs. Cells are dispatched onto `--suite-threads` workers;
// `--max-nodes` / `--max-memory-mb` bound the *aggregate* work of the
// whole grid via one hierarchical budget. A failing cell renders as ERR and
// never aborts the grid.
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
//
// Each command is declared once, in Commands(): its name, its handler and
// the flags it accepts. Dispatch, unknown-flag rejection and the usage line
// all read that table.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
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

StatusOr<Table> LoadWorkers(const FlagParser& flags) {
  std::string input = flags.GetString("input", "");
  if (input.empty()) {
    return Status::InvalidArgument("--input <csv> is required");
  }
  FAIRRANK_ASSIGN_OR_RETURN(Schema schema, MakePaperWorkerSchema());
  return ReadCsvFile(input, schema);
}

StatusOr<std::unique_ptr<ScoringFunction>> FunctionFromFlags(
    const FlagParser& flags, const std::string& fallback = "alpha:0.5") {
  return MakeFunctionFromSpec(flags.GetString("function", fallback));
}

Status CmdGenerate(const FlagParser& flags) {
  FAIRRANK_ASSIGN_OR_RETURN(int workers,
                            GetBoundedInt(flags, "workers", 500, 1, kIntMax));
  FAIRRANK_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 42));
  FAIRRANK_ASSIGN_OR_RETURN(bool realistic, flags.GetBool("realistic", false));

  StatusOr<Table> table = Status::Internal("unset");
  if (realistic) {
    RealisticGeneratorOptions options;
    options.num_workers = static_cast<size_t>(workers);
    options.seed = static_cast<uint64_t>(seed);
    FAIRRANK_ASSIGN_OR_RETURN(options.bias_strength,
                              flags.GetDouble("bias", 1.0));
    table = GenerateRealisticWorkers(options);
  } else {
    GeneratorOptions options;
    options.num_workers = static_cast<size_t>(workers);
    options.seed = static_cast<uint64_t>(seed);
    table = GenerateWorkers(options);
  }
  FAIRRANK_RETURN_NOT_OK(table.status());
  std::string out = flags.GetString("out", "workers.csv");
  FAIRRANK_RETURN_NOT_OK(WriteCsvFile(out, *table));
  std::printf("wrote %zu %s workers (seed %lld) to %s\n", table->num_rows(),
              realistic ? "realistic" : "uniform",
              static_cast<long long>(seed), out.c_str());
  return Status::OK();
}

Status CmdProfile(const FlagParser& flags) {
  FAIRRANK_ASSIGN_OR_RETURN(Table workers, LoadWorkers(flags));
  FAIRRANK_ASSIGN_OR_RETURN(TableProfile profile, ProfileTable(workers));
  std::printf("%s", FormatTableProfile(profile).c_str());

  // With a function, also print the single-attribute association screen.
  if (flags.Has("function")) {
    FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<ScoringFunction> fn,
                              FunctionFromFlags(flags));
    FAIRRANK_ASSIGN_OR_RETURN(std::vector<double> scores,
                              fn->ScoreAll(workers));
    FAIRRANK_ASSIGN_OR_RETURN(std::vector<ScoreAssociation> associations,
                              ScoreAssociations(workers, scores));
    std::printf("\nscore association with %s (single-attribute screen):\n",
                fn->Name().c_str());
    TextTable table;
    table.SetHeader({"attribute", "eta^2", "max mean gap"});
    for (const ScoreAssociation& a : associations) {
      table.AddRow({a.attribute, FormatDouble(a.eta_squared, 4),
                    FormatDouble(a.max_mean_gap, 4)});
    }
    std::printf("%s", table.ToString().c_str());
    std::printf(
        "note: a weak screen does not mean fair — run `fairaudit audit` for "
        "subgroup combinations.\n");
  }
  return Status::OK();
}

Status CmdAudit(const FlagParser& flags) {
  FAIRRANK_ASSIGN_OR_RETURN(Table workers, LoadWorkers(flags));
  FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<ScoringFunction> fn,
                            FunctionFromFlags(flags));
  FAIRRANK_ASSIGN_OR_RETURN(AuditOptions options,
                            AuditOptionsFromFlags(flags));
  // The output flags serve the row and the --aggregate route alike.
  FAIRRANK_ASSIGN_OR_RETURN(bool json, flags.GetBool("json", false));
  ReportOptions report;
  FAIRRANK_ASSIGN_OR_RETURN(report.include_histograms,
                            flags.GetBool("histograms", false));
  FAIRRANK_ASSIGN_OR_RETURN(
      int max_partitions,
      GetBoundedInt(flags, "max-partitions", 20, 0, kIntMax));
  report.max_partitions = static_cast<size_t>(max_partitions);
  FAIRRANK_ASSIGN_OR_RETURN(bool traced, flags.GetBool("trace", false));
  std::unique_ptr<TraceContext> trace;
  if (traced) {
    trace = std::make_unique<TraceContext>();
    options.limits.trace = trace.get();
  }

  FAIRRANK_ASSIGN_OR_RETURN(bool aggregate, flags.GetBool("aggregate", false));
  if (aggregate) {
    if (flags.Has("save-partitioning")) {
      return Status::InvalidArgument(
          "--save-partitioning needs row-level partitions; it cannot be "
          "combined with --aggregate");
    }
    // Collapses the table into per-cell histograms with the sharded ingest
    // path (`--threads` shards) and runs the audit's algorithm on the
    // cells — the million-worker route (see DESIGN.md §12).
    StatusOr<AggregateAudit> audit = RunAggregateAudit(workers, *fn, options);
    if (audit.ok() && json) {
      std::printf(
          "%s\n",
          FormatAggregateAuditJson(audit->store, audit->result, audit->info)
              .c_str());
    } else if (audit.ok()) {
      std::printf("%s", FormatAggregateAuditReport(audit->store, audit->result,
                                                   audit->info, report)
                            .c_str());
    }
    if (trace != nullptr) {
      std::fprintf(stderr, "%s", trace->FormatTree().c_str());
    }
    return audit.status();
  }

  FairnessAuditor auditor(&workers);
  FAIRRANK_ASSIGN_OR_RETURN(AuditResult result, auditor.Audit(*fn, options));
  // The tree goes to stderr so `--json | jq` keeps working with --trace on.
  if (trace != nullptr) {
    std::fprintf(stderr, "%s", trace->FormatTree().c_str());
  }

  std::string save_path = flags.GetString("save-partitioning", "");
  if (!save_path.empty()) {
    std::string text =
        SerializePartitioning(workers.schema(), result.partitioning);
    FILE* f = std::fopen(save_path.c_str(), "w");
    if (f == nullptr) {
      return Status::IOError("cannot open '" + save_path + "'");
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "saved partitioning structure to %s\n",
                 save_path.c_str());
  }

  if (json) {
    std::printf("%s\n", FormatAuditJson(result).c_str());
  } else {
    std::printf("%s", FormatAuditReport(result, report).c_str());
  }
  return Status::OK();
}

Status CmdSuite(const FlagParser& flags) {
  FAIRRANK_ASSIGN_OR_RETURN(Table workers, LoadWorkers(flags));
  FAIRRANK_ASSIGN_OR_RETURN(SuiteOptions options,
                            SuiteOptionsFromFlags(flags));
  FAIRRANK_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<ScoringFunction>> owned,
      FunctionsFromFlags(flags));
  std::vector<const ScoringFunction*> functions;
  for (const auto& fn : owned) functions.push_back(fn.get());

  AuditSuite suite(&workers);
  FAIRRANK_ASSIGN_OR_RETURN(SuiteResult result, suite.Run(functions, options));
  FAIRRANK_ASSIGN_OR_RETURN(bool json, flags.GetBool("json", false));
  FAIRRANK_ASSIGN_OR_RETURN(bool csv, flags.GetBool("csv", false));
  if (json) {
    std::printf("%s\n", FormatSuiteJson(result).c_str());
  } else if (csv) {
    std::printf("%s\n%s", FormatSuiteCsv(result).c_str(),
                FormatSuiteSummaryCsv(result).c_str());
  } else {
    std::printf("Average unfairness:\n%s\ntime (in secs):\n%s\n%s",
                FormatSuiteUnfairness(result).c_str(),
                FormatSuiteRuntime(result).c_str(),
                FormatSuiteSummary(result).c_str());
  }
  return Status::OK();
}

Status CmdRank(const FlagParser& flags) {
  FAIRRANK_ASSIGN_OR_RETURN(Table workers, LoadWorkers(flags));
  FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<ScoringFunction> fn,
                            FunctionFromFlags(flags));
  FAIRRANK_ASSIGN_OR_RETURN(int top,
                            GetBoundedInt(flags, "top", 10, 0, kIntMax));

  RankingEngine engine(&workers);
  FAIRRANK_ASSIGN_OR_RETURN(std::vector<RankedWorker> ranking,
                            engine.TopK(*fn, static_cast<size_t>(top)));

  TextTable table;
  std::vector<std::string> header = {"rank", "row", "score"};
  for (size_t a = 0; a < workers.schema().num_attributes(); ++a) {
    if (workers.schema().attribute(a).is_protected()) {
      header.push_back(workers.schema().attribute(a).name());
    }
  }
  table.SetHeader(header);
  for (size_t i = 0; i < ranking.size(); ++i) {
    const RankedWorker& r = ranking[i];
    std::vector<std::string> row = {std::to_string(i + 1),
                                    std::to_string(r.row),
                                    FormatDouble(r.score, 4)};
    for (size_t a = 0; a < workers.schema().num_attributes(); ++a) {
      if (workers.schema().attribute(a).is_protected()) {
        row.push_back(workers.CellToString(r.row, a));
      }
    }
    table.AddRow(row);
  }
  std::printf("%s", table.ToString().c_str());
  return Status::OK();
}

Status CmdExposure(const FlagParser& flags) {
  FAIRRANK_ASSIGN_OR_RETURN(Table workers, LoadWorkers(flags));
  FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<ScoringFunction> fn,
                            FunctionFromFlags(flags));

  ExposureOptions options;
  std::string bias = flags.GetString("bias", "log");
  if (bias == "log") {
    options.bias = PositionBias::kLogarithmic;
  } else if (bias == "reciprocal") {
    options.bias = PositionBias::kReciprocal;
  } else if (bias == "topk") {
    options.bias = PositionBias::kTopK;
    FAIRRANK_ASSIGN_OR_RETURN(int top,
                              GetBoundedInt(flags, "top", 10, 0, kIntMax));
    options.top_k = static_cast<size_t>(top);
  } else {
    return Status::InvalidArgument("--bias must be log|reciprocal|topk");
  }

  RankingEngine engine(&workers);
  FAIRRANK_ASSIGN_OR_RETURN(std::vector<RankedWorker> ranking,
                            engine.Rank(*fn));
  FAIRRANK_ASSIGN_OR_RETURN(std::vector<ExposureReport> reports,
                            ComputeAllExposures(workers, ranking, options));

  for (const ExposureReport& report : reports) {
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
  return Status::OK();
}

Status CmdRepair(const FlagParser& flags) {
  FAIRRANK_ASSIGN_OR_RETURN(Table workers, LoadWorkers(flags));
  FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<ScoringFunction> fn,
                            FunctionFromFlags(flags, "f6"));
  FAIRRANK_ASSIGN_OR_RETURN(AuditOptions options,
                            AuditOptionsFromFlags(flags));

  std::string strategy_name = flags.GetString("strategy", "quantile");
  std::unique_ptr<RepairStrategy> strategy;
  if (strategy_name == "quantile") {
    strategy = MakeQuantileRepair();
  } else if (strategy_name == "affine") {
    strategy = MakeAffineRepair();
  } else if (strategy_name == "interpolation") {
    FAIRRANK_ASSIGN_OR_RETURN(double lambda, flags.GetDouble("lambda", 0.5));
    strategy = MakeInterpolationRepair(lambda);
  } else {
    return Status::InvalidArgument(
        "--strategy must be quantile|affine|interpolation");
  }

  FairnessAuditor auditor(&workers);
  FAIRRANK_ASSIGN_OR_RETURN(AuditResult audit, auditor.Audit(*fn, options));
  FAIRRANK_ASSIGN_OR_RETURN(std::vector<double> scores, fn->ScoreAll(workers));
  FAIRRANK_ASSIGN_OR_RETURN(
      RepairEvaluation evaluation,
      EvaluateRepair(workers, audit.partitioning, scores, *strategy,
                     options.evaluator));
  std::printf(
      "repair=%s on %s/%s: unfairness %.4f -> %.4f  "
      "mean |delta score| %.4f  rank correlation %.4f\n",
      strategy->Name().c_str(), audit.algorithm.c_str(),
      audit.scoring_function.c_str(), evaluation.unfairness_before,
      evaluation.unfairness_after, evaluation.mean_score_change,
      evaluation.rank_correlation);

  std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    // Emit row,original,repaired per worker.
    std::string csv = "row,original_score,repaired_score\n";
    for (size_t i = 0; i < scores.size(); ++i) {
      csv += std::to_string(i) + "," + FormatDouble(scores[i], 6) + "," +
             FormatDouble(evaluation.repaired_scores[i], 6) + "\n";
    }
    FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      return Status::IOError("cannot open '" + out + "' for writing");
    }
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
    std::printf("wrote repaired scores to %s\n", out.c_str());
  }
  return Status::OK();
}

Status CmdApply(const FlagParser& flags) {
  FAIRRANK_ASSIGN_OR_RETURN(Table workers, LoadWorkers(flags));
  std::string spec_path = flags.GetString("spec", "");
  if (spec_path.empty()) {
    return Status::InvalidArgument("--spec <file> is required");
  }
  FILE* f = std::fopen(spec_path.c_str(), "r");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + spec_path + "'");
  }
  std::string text;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);

  FAIRRANK_ASSIGN_OR_RETURN(bool collect, flags.GetBool("collect-rest", false));
  FAIRRANK_ASSIGN_OR_RETURN(
      Partitioning partitioning,
      ApplyPartitioningSpec(workers, text,
                            collect ? UnmatchedRowPolicy::kCollectRest
                                    : UnmatchedRowPolicy::kError));

  FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<ScoringFunction> fn,
                            FunctionFromFlags(flags));
  FAIRRANK_ASSIGN_OR_RETURN(std::vector<double> scores, fn->ScoreAll(workers));
  FAIRRANK_ASSIGN_OR_RETURN(EvaluatorOptions evaluator,
                            EvaluatorOptionsFromFlags(flags));
  FAIRRANK_ASSIGN_OR_RETURN(
      UnfairnessEvaluator eval,
      UnfairnessEvaluator::Make(&workers, std::move(scores), evaluator));
  FAIRRANK_ASSIGN_OR_RETURN(double unfairness,
                            eval.AveragePairwiseUnfairness(partitioning));

  std::printf("applied %zu partitions from %s to %zu workers\n",
              partitioning.size(), spec_path.c_str(), workers.num_rows());
  std::printf("unfairness of %s on this partitioning: %.4f\n",
              fn->Name().c_str(), unfairness);
  TextTable table;
  table.SetHeader({"partition", "size"});
  for (const Partition& p : partitioning) {
    table.AddRow({PartitionLabel(workers.schema(), p),
                  std::to_string(p.size())});
  }
  std::printf("%s", table.ToString().c_str());
  return Status::OK();
}

Status CmdSignificance(const FlagParser& flags) {
  FAIRRANK_ASSIGN_OR_RETURN(Table workers, LoadWorkers(flags));
  FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<ScoringFunction> fn,
                            FunctionFromFlags(flags));
  FAIRRANK_ASSIGN_OR_RETURN(AuditOptions options,
                            AuditOptionsFromFlags(flags));
  FAIRRANK_ASSIGN_OR_RETURN(
      int iterations, GetBoundedInt(flags, "iterations", 99, 1, kIntMax));

  FairnessAuditor auditor(&workers);
  FAIRRANK_ASSIGN_OR_RETURN(AuditResult audit, auditor.Audit(*fn, options));
  FAIRRANK_ASSIGN_OR_RETURN(std::vector<double> scores, fn->ScoreAll(workers));
  FAIRRANK_ASSIGN_OR_RETURN(
      UnfairnessEvaluator eval,
      UnfairnessEvaluator::Make(&workers, std::move(scores),
                                options.evaluator));
  FAIRRANK_ASSIGN_OR_RETURN(
      PermutationResult permutation,
      PermutationTestUnfairness(eval, audit.partitioning,
                                static_cast<size_t>(iterations),
                                options.seed + 1));
  FAIRRANK_ASSIGN_OR_RETURN(
      BootstrapResult bootstrap,
      BootstrapUnfairness(eval, audit.partitioning,
                          static_cast<size_t>(iterations), options.seed + 2));

  std::printf("audit: %s via %s -> unfairness %.4f (%zu partitions)%s\n",
              audit.scoring_function.c_str(), audit.algorithm.c_str(),
              audit.unfairness, audit.partitions.size(),
              audit.truncated ? " [search truncated]" : "");
  std::printf("permutation test (%lld iterations): null mean %.4f, "
              "p-value %.4f\n",
              static_cast<long long>(iterations), permutation.null_mean,
              permutation.p_value);
  std::printf("bootstrap 95%% CI: [%.4f, %.4f] (mean %.4f)\n",
              bootstrap.ci_lo, bootstrap.ci_hi, bootstrap.mean);
  return Status::OK();
}

Status CmdCatalog(const FlagParser& flags) {
  FAIRRANK_ASSIGN_OR_RETURN(Table workers, LoadWorkers(flags));
  FAIRRANK_ASSIGN_OR_RETURN(AuditOptions options,
                            AuditOptionsFromFlags(flags));
  TaskCatalog catalog = TaskCatalog::MakeDefaultCatalog();
  FAIRRANK_ASSIGN_OR_RETURN(std::vector<CategoryAuditRow> rows,
                            AuditCatalog(workers, catalog, options));
  std::printf("per-category audit via %s (least fair first):\n",
              options.algorithm.c_str());
  TextTable table;
  table.SetHeader(
      {"category", "unfairness", "partitions", "attributes", "truncated"});
  bool any_truncated = false;
  for (const CategoryAuditRow& row : rows) {
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
  return Status::OK();
}

Status CmdList(const FlagParser& /*flags*/) {
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
  return Status::OK();
}

/// One fairaudit command: its name, its handler, and the flags it accepts —
/// the option flags `shared` names (none when null) plus its own `flags`.
/// A flag outside that set fails the command (see ValidateKnownFlags): a
/// misspelled `--max-node` must not silently run an unbounded audit.
struct Command {
  const char* name;
  Status (*run)(const FlagParser&);
  const std::vector<std::string>& (*shared)();
  std::vector<std::string> flags;
};

const std::vector<Command>& Commands() {
  static const std::vector<Command>* commands = new std::vector<Command>{
      {"generate", CmdGenerate, nullptr,
       {"workers", "seed", "realistic", "bias", "out"}},
      {"profile", CmdProfile, nullptr, {"input", "function"}},
      {"audit", CmdAudit, AuditOptionFlagNames,
       {"input", "function", "json", "histograms", "max-partitions",
        "save-partitioning", "trace", "aggregate"}},
      {"suite", CmdSuite, SuiteOptionFlagNames,
       {"input", "functions", "csv", "json"}},
      {"rank", CmdRank, nullptr, {"input", "function", "top"}},
      {"exposure", CmdExposure, nullptr, {"input", "function", "bias", "top"}},
      {"repair", CmdRepair, AuditOptionFlagNames,
       {"input", "function", "strategy", "lambda", "out"}},
      {"apply", CmdApply, nullptr,
       {"input", "spec", "function", "collect-rest", "bins", "divergence"}},
      {"significance", CmdSignificance, AuditOptionFlagNames,
       {"input", "function", "iterations"}},
      {"catalog", CmdCatalog, AuditOptionFlagNames, {"input"}},
      {"list", CmdList, nullptr, {}},
  };
  return *commands;
}

int Usage() {
  std::vector<std::string> names;
  for (const Command& command : Commands()) names.push_back(command.name);
  std::fprintf(stderr,
               "usage: fairaudit <%s> [flags]\n"
               "run `fairaudit list` for algorithms, divergences and "
               "function specs\n",
               Join(names, "|").c_str());
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string name = argv[1];
  StatusOr<FlagParser> flags = FlagParser::Parse(argc - 2, argv + 2);
  if (!flags.ok()) return Fail(flags.status());
  for (const Command& command : Commands()) {
    if (name != command.name) continue;
    std::vector<std::string> known = command.flags;
    if (command.shared != nullptr) {
      const std::vector<std::string>& shared = command.shared();
      known.insert(known.end(), shared.begin(), shared.end());
    }
    Status status = ValidateKnownFlags(*flags, known);
    if (status.ok()) status = command.run(*flags);
    return status.ok() ? 0 : Fail(status);
  }
  return Usage();
}

}  // namespace
}  // namespace fairrank

int main(int argc, char** argv) { return fairrank::Main(argc, argv); }
