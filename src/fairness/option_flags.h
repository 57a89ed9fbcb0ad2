#ifndef FAIRRANK_FAIRNESS_OPTION_FLAGS_H_
#define FAIRRANK_FAIRNESS_OPTION_FLAGS_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/flags.h"
#include "common/status.h"
#include "fairness/auditor.h"
#include "fairness/suite.h"
#include "marketplace/scoring.h"

namespace fairrank {

/// Flag-shaped option parsing shared by the fairaudit CLI and the fairauditd
/// HTTP server (which converts query parameters into a FlagParser via
/// FlagParser::FromPairs). Keeping one parser means one validation story:
/// a limit rejected on the command line is rejected identically over HTTP.

/// Parses a scoring-function spec:
///   alpha:<a>              the paper's linear family
///   f6..f9[:<seed>]        the biased-by-design functions
///   weights:A=0.7,B=0.3    arbitrary linear function over attributes
StatusOr<std::unique_ptr<ScoringFunction>> MakeFunctionFromSpec(
    const std::string& spec);

/// Parses and validates `--timeout-ms`, `--max-nodes`, `--max-memory-mb`
/// into ExecutionLimits. Negative values are rejected here, before any
/// int64 -> uint64 cast can wrap them into near-infinite budgets. The
/// deadline/cancel/parent fields are left inert for the caller to compose.
StatusOr<ExecutionLimits> ParseExecutionLimits(const FlagParser& flags);

/// An int-valued flag (`fallback` when absent), rejected with an
/// InvalidArgument naming `--<name>` when outside [lo, hi] — before the
/// int64 -> int cast could wrap it into a small, plausible value. Every CLI
/// and HTTP flag narrowed to an int goes through this; lo and hi must lie
/// in [kIntMin, kIntMax].
StatusOr<int> GetBoundedInt(const FlagParser& flags, const std::string& name,
                            int64_t fallback, int64_t lo, int64_t hi);

inline constexpr int64_t kIntMin = std::numeric_limits<int>::min();
inline constexpr int64_t kIntMax = std::numeric_limits<int>::max();

/// Largest `--bins` accepted: every partition of an audit allocates a
/// histogram of that many doubles, so one request must not be able to ask
/// for millions. Ten times the 100 bins bench/ablation_bins sweeps up to.
inline constexpr int64_t kMaxBins = 1000;

/// Parses `--bins` (in [1, kMaxBins], default 10) and `--divergence`
/// (default "emd") into EvaluatorOptions; the other fields keep their
/// defaults. AuditOptionsFromFlags reads the evaluator through this, and so
/// does every command that takes only these two flags.
StatusOr<EvaluatorOptions> EvaluatorOptionsFromFlags(const FlagParser& flags);

/// Parses the audit-shaping flags (algorithm, bins, divergence, seed,
/// beam-width, threads, attributes) plus ParseExecutionLimits into
/// AuditOptions. `bins` must lie in [1, kMaxBins]; `beam-width` and
/// `threads` must fit in an int. Violations are InvalidArgument errors
/// naming the flag, raised before any narrowing cast.
StatusOr<AuditOptions> AuditOptionsFromFlags(const FlagParser& flags);

/// Exact set of flag names AuditOptionsFromFlags consumes. Callers append
/// their own surface-specific flags and pass the union to
/// ValidateKnownFlags so misspellings fail instead of silently defaulting.
const std::vector<std::string>& AuditOptionFlagNames();

/// Parses a suite grid: every audit flag except `algorithm` (each cell
/// names its own) into SuiteOptions::audit, plus `algorithms`
/// (comma-separated; absent = the paper's five) and `suite-threads`
/// (in [0, kIntMax], default 1). Errors as AuditOptionsFromFlags.
StatusOr<SuiteOptions> SuiteOptionsFromFlags(const FlagParser& flags);

/// Exact set of flag names SuiteOptionsFromFlags consumes:
/// AuditOptionFlagNames() without `algorithm`, plus `algorithms` and
/// `suite-threads`.
const std::vector<std::string>& SuiteOptionFlagNames();

/// The `--functions` list of a suite when the flag is absent.
inline constexpr char kDefaultSuiteFunctions[] =
    "alpha:0.25,alpha:0.5,alpha:0.75";

/// The scoring functions of `--functions`: comma-separated specs for
/// MakeFunctionFromSpec, kDefaultSuiteFunctions when absent. `weights:`
/// specs contain commas, so they cannot appear in the list.
StatusOr<std::vector<std::unique_ptr<ScoringFunction>>> FunctionsFromFlags(
    const FlagParser& flags);

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_OPTION_FLAGS_H_
