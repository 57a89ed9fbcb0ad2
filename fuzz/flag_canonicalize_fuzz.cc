// Fuzz target for the shared CLI/HTTP option pipeline: query string ->
// FlagParser::FromPairs -> AuditOptionsFromFlags / ParseExecutionLimits.
//
// The server promises that a canonicalized flag spelling (sorted names,
// stored values) is *equivalent* to whatever spelling the client sent —
// the response cache depends on it. The harness checks the round-trip:
// re-parsing the canonical form must produce a field-identical
// AuditOptions.
//
// Invariants:
//   - FromPairs / option parsing is deterministic and fails only with
//     InvalidArgument (never crashes, never silently defaults).
//   - Validated ExecutionLimits are non-negative with no int64 -> uint64
//     wraparound (a negative budget must never become near-infinite).
//   - Canonical form (FlagNames() order + GetString values) re-parses to
//     the same AuditOptions, field by field.

#include "fuzz/fuzz_targets.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "fairness/option_flags.h"
#include "server/http.h"

namespace fairrank::fuzz {

namespace {

bool SameLimits(const ExecutionLimits& a, const ExecutionLimits& b) {
  return a.timeout_ms == b.timeout_ms && a.max_nodes == b.max_nodes &&
         a.max_memory_mb == b.max_memory_mb;
}

bool SameOptions(const AuditOptions& a, const AuditOptions& b) {
  return a.algorithm == b.algorithm && a.seed == b.seed &&
         a.beam_width == b.beam_width &&
         a.protected_attributes == b.protected_attributes &&
         a.num_worst_pairs == b.num_worst_pairs &&
         a.evaluator.num_bins == b.evaluator.num_bins &&
         a.evaluator.score_lo == b.evaluator.score_lo &&
         a.evaluator.score_hi == b.evaluator.score_hi &&
         a.evaluator.divergence == b.evaluator.divergence &&
         a.evaluator.num_threads == b.evaluator.num_threads &&
         SameLimits(a.limits, b.limits);
}

}  // namespace

void FuzzFlagCanonicalize(const uint8_t* data, size_t size) {
  FuzzInput in(data, size);
  const std::string query = in.TakeRest();

  // Mirror the server's RequestFlags: decode the query string, then
  // normalize '_' to '-' so both spellings mean the same flag.
  std::vector<std::pair<std::string, std::string>> pairs =
      ParseQueryString(query);
  for (auto& [name, value] : pairs) {
    std::replace(name.begin(), name.end(), '_', '-');
  }

  StatusOr<FlagParser> parsed = FlagParser::FromPairs(pairs);
  if (!parsed.ok()) {
    FUZZ_CHECK(parsed.status().code() == StatusCode::kInvalidArgument);
    return;
  }
  const FlagParser& flags = parsed.value();

  StatusOr<ExecutionLimits> limits = ParseExecutionLimits(flags);
  if (limits.ok()) {
    FUZZ_CHECK(limits->timeout_ms >= 0);
    // Negative inputs are rejected before the widening cast, so a validated
    // budget can never sit in the int64-wraparound range.
    FUZZ_CHECK(limits->max_nodes <= (1ull << 63) - 1);
    FUZZ_CHECK(limits->max_memory_mb <= (1ull << 63) - 1);
  } else {
    FUZZ_CHECK(limits.status().code() == StatusCode::kInvalidArgument);
  }

  StatusOr<AuditOptions> options = AuditOptionsFromFlags(flags);
  StatusOr<AuditOptions> options_again = AuditOptionsFromFlags(flags);
  FUZZ_CHECK(options.ok() == options_again.ok());
  if (!options.ok()) {
    FUZZ_CHECK(options.status().code() == StatusCode::kInvalidArgument);
    return;
  }
  FUZZ_CHECK(SameOptions(options.value(), options_again.value()));
  // Bins are bounded before the narrowing cast, so no request can size a
  // histogram beyond the cap (or wrap into a small positive count).
  FUZZ_CHECK(options->evaluator.num_bins >= 1 &&
             options->evaluator.num_bins <= kMaxBins);

  // Canonical form: names in FlagNames() (sorted) order, stored values.
  std::vector<std::pair<std::string, std::string>> canonical;
  for (const std::string& name : flags.FlagNames()) {
    canonical.emplace_back(name, flags.GetString(name, ""));
  }
  StatusOr<FlagParser> reparsed = FlagParser::FromPairs(canonical);
  FUZZ_CHECK(reparsed.ok());
  StatusOr<AuditOptions> options_canonical =
      AuditOptionsFromFlags(reparsed.value());
  FUZZ_CHECK(options_canonical.ok());
  FUZZ_CHECK(SameOptions(options.value(), options_canonical.value()));
}

}  // namespace fairrank::fuzz

#ifdef FAIRRANK_FUZZ_DRIVER
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  fairrank::fuzz::FuzzFlagCanonicalize(data, size);
  return 0;
}
#endif
