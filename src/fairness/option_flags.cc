#include "fairness/option_flags.h"

#include <utility>

#include "common/str_util.h"
#include "marketplace/biased_scoring.h"

namespace fairrank {

StatusOr<std::unique_ptr<ScoringFunction>> MakeFunctionFromSpec(
    const std::string& spec) {
  std::vector<std::string> parts = Split(spec, ':');
  const std::string& kind = parts[0];
  if (kind == "alpha") {
    double alpha = 0.5;
    if (parts.size() > 1 && !ParseDouble(parts[1], &alpha)) {
      return Status::InvalidArgument("bad alpha in spec '" + spec + "'");
    }
    return MakeAlphaFunction("alpha=" + FormatDouble(alpha, 2), alpha);
  }
  if (kind == "f6" || kind == "f7" || kind == "f8" || kind == "f9") {
    int64_t seed = 42;
    if (parts.size() > 1 && !ParseInt64(parts[1], &seed)) {
      return Status::InvalidArgument("bad seed in spec '" + spec + "'");
    }
    uint64_t s = static_cast<uint64_t>(seed);
    if (kind == "f6") return MakeF6(s);
    if (kind == "f7") return MakeF7(s);
    if (kind == "f8") return MakeF8(s);
    return MakeF9(s);
  }
  if (kind == "weights" && parts.size() > 1) {
    std::vector<std::pair<std::string, double>> weights;
    for (const std::string& term : Split(parts[1], ',')) {
      std::vector<std::string> kv = Split(term, '=');
      double w = 0.0;
      if (kv.size() != 2 || !ParseDouble(kv[1], &w)) {
        return Status::InvalidArgument("bad weight term '" + term + "'");
      }
      weights.emplace_back(std::string(Trim(kv[0])), w);
    }
    return std::unique_ptr<ScoringFunction>(
        std::make_unique<LinearScoringFunction>(spec, std::move(weights)));
  }
  return Status::InvalidArgument(
      "unknown function spec '" + spec +
      "' (want alpha:<a>, f6..f9[:<seed>], or weights:A=0.7,B=0.3)");
}

StatusOr<ExecutionLimits> ParseExecutionLimits(const FlagParser& flags) {
  ExecutionLimits limits;
  FAIRRANK_ASSIGN_OR_RETURN(int64_t timeout_ms, flags.GetInt("timeout-ms", 0));
  if (timeout_ms < 0) {
    return Status::InvalidArgument("--timeout-ms must be >= 0");
  }
  limits.timeout_ms = timeout_ms;
  FAIRRANK_ASSIGN_OR_RETURN(int64_t max_nodes, flags.GetInt("max-nodes", 0));
  if (max_nodes < 0) {
    return Status::InvalidArgument("--max-nodes must be >= 0");
  }
  limits.max_nodes = static_cast<uint64_t>(max_nodes);
  FAIRRANK_ASSIGN_OR_RETURN(int64_t max_memory_mb,
                            flags.GetInt("max-memory-mb", 0));
  if (max_memory_mb < 0) {
    return Status::InvalidArgument("--max-memory-mb must be >= 0");
  }
  limits.max_memory_mb = static_cast<uint64_t>(max_memory_mb);
  return limits;
}

StatusOr<int> GetBoundedInt(const FlagParser& flags, const std::string& name,
                            int64_t fallback, int64_t lo, int64_t hi) {
  FAIRRANK_ASSIGN_OR_RETURN(int64_t value, flags.GetInt(name, fallback));
  if (value < lo || value > hi) {
    return Status::InvalidArgument("--" + name + " must be in [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "], got " +
                                   std::to_string(value));
  }
  return static_cast<int>(value);
}

StatusOr<EvaluatorOptions> EvaluatorOptionsFromFlags(const FlagParser& flags) {
  EvaluatorOptions options;
  FAIRRANK_ASSIGN_OR_RETURN(options.num_bins,
                            GetBoundedInt(flags, "bins", 10, 1, kMaxBins));
  options.divergence = flags.GetString("divergence", "emd");
  return options;
}

namespace {

/// Splits a comma-separated flag value into trimmed names; an absent or
/// empty flag is an empty list.
std::vector<std::string> ListFlag(const FlagParser& flags,
                                  const std::string& name) {
  std::vector<std::string> items;
  std::string value = flags.GetString(name, "");
  if (value.empty()) return items;
  for (const std::string& item : Split(value, ',')) {
    items.emplace_back(Trim(item));
  }
  return items;
}

/// Every audit flag except `algorithm`, over the defaults in `options`.
Status ReadAuditFlags(const FlagParser& flags, AuditOptions* options) {
  FAIRRANK_ASSIGN_OR_RETURN(options->evaluator,
                            EvaluatorOptionsFromFlags(flags));
  FAIRRANK_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 0));
  options->seed = static_cast<uint64_t>(seed);
  FAIRRANK_ASSIGN_OR_RETURN(
      options->beam_width,
      GetBoundedInt(flags, "beam-width", 3, kIntMin, kIntMax));
  FAIRRANK_ASSIGN_OR_RETURN(
      options->evaluator.num_threads,
      GetBoundedInt(flags, "threads", 1, kIntMin, kIntMax));
  options->protected_attributes = ListFlag(flags, "attributes");
  FAIRRANK_ASSIGN_OR_RETURN(options->limits, ParseExecutionLimits(flags));
  return Status::OK();
}

}  // namespace

StatusOr<AuditOptions> AuditOptionsFromFlags(const FlagParser& flags) {
  AuditOptions options;
  options.algorithm = flags.GetString("algorithm", "balanced");
  FAIRRANK_RETURN_NOT_OK(ReadAuditFlags(flags, &options));
  return options;
}

const std::vector<std::string>& AuditOptionFlagNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "algorithm",  "bins",    "divergence", "seed",
      "beam-width", "threads", "attributes", "timeout-ms",
      "max-nodes",  "max-memory-mb",
  };
  return *names;
}

StatusOr<SuiteOptions> SuiteOptionsFromFlags(const FlagParser& flags) {
  SuiteOptions options;
  FAIRRANK_RETURN_NOT_OK(ReadAuditFlags(flags, &options.audit));
  options.algorithms = ListFlag(flags, "algorithms");
  FAIRRANK_ASSIGN_OR_RETURN(
      options.num_threads,
      GetBoundedInt(flags, "suite-threads", 1, 0, kIntMax));
  return options;
}

const std::vector<std::string>& SuiteOptionFlagNames() {
  static const std::vector<std::string>* names = [] {
    auto* suite = new std::vector<std::string>{"algorithms", "suite-threads"};
    for (const std::string& name : AuditOptionFlagNames()) {
      if (name != "algorithm") suite->push_back(name);
    }
    return suite;
  }();
  return *names;
}

StatusOr<std::vector<std::unique_ptr<ScoringFunction>>> FunctionsFromFlags(
    const FlagParser& flags) {
  std::vector<std::unique_ptr<ScoringFunction>> functions;
  // No empty-list shortcut: `--functions=` fails on its empty spec.
  for (const std::string& spec :
       Split(flags.GetString("functions", kDefaultSuiteFunctions), ',')) {
    FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<ScoringFunction> fn,
                              MakeFunctionFromSpec(std::string(Trim(spec))));
    functions.push_back(std::move(fn));
  }
  return functions;
}

}  // namespace fairrank
