// Negative-path coverage for the shared CLI/HTTP option pipeline
// (fairness/option_flags.h): overflow values, empty values, repeated
// flags, the negative-budget guard that must fire before any
// int64 -> uint64 widening can wrap a "-1" into an unlimited budget, and
// the range guard that must fire before any int64 -> int narrowing can
// wrap a huge value into a small plausible one.

#include "fairness/option_flags.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/status.h"

namespace fairrank {
namespace {

using Pairs = std::vector<std::pair<std::string, std::string>>;

FlagParser MustParse(const Pairs& pairs) {
  StatusOr<FlagParser> parsed = FlagParser::FromPairs(pairs);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

TEST(ParseExecutionLimitsTest, RejectsNegativeBudgetsBeforeWidening) {
  for (const char* flag : {"timeout-ms", "max-nodes", "max-memory-mb"}) {
    FlagParser flags = MustParse({{flag, "-1"}});
    StatusOr<ExecutionLimits> limits = ParseExecutionLimits(flags);
    ASSERT_FALSE(limits.ok()) << flag;
    EXPECT_EQ(limits.status().code(), StatusCode::kInvalidArgument) << flag;
    EXPECT_NE(limits.status().ToString().find(flag), std::string::npos)
        << "error must name the offending flag: "
        << limits.status().ToString();
  }
}

TEST(ParseExecutionLimitsTest, RejectsInt64Overflow) {
  // One past int64 max: from_chars refuses it, so it can never alias to a
  // small (or negative) budget.
  FlagParser flags = MustParse({{"max-nodes", "9223372036854775808"}});
  StatusOr<ExecutionLimits> limits = ParseExecutionLimits(flags);
  ASSERT_FALSE(limits.ok());
  EXPECT_EQ(limits.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseExecutionLimitsTest, RejectsEmptyAndGarbageValues) {
  for (const char* value : {"", " ", "12x", "0x10", "1e3"}) {
    FlagParser flags = MustParse({{"timeout-ms", value}});
    StatusOr<ExecutionLimits> limits = ParseExecutionLimits(flags);
    ASSERT_FALSE(limits.ok()) << "value '" << value << "'";
    EXPECT_EQ(limits.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ParseExecutionLimitsTest, LastRepeatedFlagWins) {
  FlagParser flags = MustParse({{"max-nodes", "5"}, {"max-nodes", "7"}});
  StatusOr<ExecutionLimits> limits = ParseExecutionLimits(flags);
  ASSERT_TRUE(limits.ok()) << limits.status().ToString();
  EXPECT_EQ(limits->max_nodes, 7u);
}

TEST(ParseExecutionLimitsTest, RepeatedValidThenInvalidFails) {
  // Later duplicates win wholesale — including a later *invalid* value; a
  // valid earlier spelling must not mask it.
  FlagParser flags = MustParse({{"max-nodes", "5"}, {"max-nodes", "-3"}});
  StatusOr<ExecutionLimits> limits = ParseExecutionLimits(flags);
  ASSERT_FALSE(limits.ok());
  EXPECT_EQ(limits.status().code(), StatusCode::kInvalidArgument);
}

TEST(AuditOptionsFromFlagsTest, RejectsOverflowInts) {
  for (const char* flag : {"bins", "seed", "beam-width", "threads"}) {
    FlagParser flags = MustParse({{flag, "9223372036854775808"}});
    StatusOr<AuditOptions> options = AuditOptionsFromFlags(flags);
    ASSERT_FALSE(options.ok()) << flag;
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument) << flag;
  }
}

TEST(AuditOptionsFromFlagsTest, RejectsEmptyNumericValues) {
  for (const char* flag : {"bins", "seed", "beam-width", "threads",
                           "timeout-ms"}) {
    FlagParser flags = MustParse({{flag, ""}});
    StatusOr<AuditOptions> options = AuditOptionsFromFlags(flags);
    ASSERT_FALSE(options.ok()) << flag;
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument) << flag;
  }
}

TEST(AuditOptionsFromFlagsTest, RejectsValuesThatWouldNarrow) {
  // Each of these fits in int64 but not in int: a bare static_cast<int>
  // wrapped 4294967297 bins to 1, 4294967300 threads to 4 and 4294967298
  // beam width to 2. The parser must refuse them by name instead.
  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"bins", "4294967297"},
           {"threads", "4294967300"},
           {"beam-width", "4294967298"},
           {"threads", "-2147483649"},
           {"beam-width", "-4294967295"}}) {
    FlagParser flags = MustParse({{flag, value}});
    StatusOr<AuditOptions> options = AuditOptionsFromFlags(flags);
    ASSERT_FALSE(options.ok()) << flag << "=" << value;
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(options.status().ToString().find("--" + flag),
              std::string::npos)
        << "error must name the offending flag: "
        << options.status().ToString();
  }
}

TEST(AuditOptionsFromFlagsTest, BinsAreCapped) {
  for (const std::string& value :
       {std::to_string(kMaxBins + 1), std::string("0"), std::string("-3")}) {
    FlagParser flags = MustParse({{"bins", value}});
    StatusOr<AuditOptions> options = AuditOptionsFromFlags(flags);
    ASSERT_FALSE(options.ok()) << "bins=" << value;
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(options.status().ToString().find("--bins"), std::string::npos);
  }
  // The cap sits well above the 100 bins the bins ablation sweeps to.
  for (int64_t bins : {int64_t{1}, int64_t{100}, kMaxBins}) {
    FlagParser flags = MustParse({{"bins", std::to_string(bins)}});
    StatusOr<AuditOptions> options = AuditOptionsFromFlags(flags);
    ASSERT_TRUE(options.ok()) << options.status().ToString();
    EXPECT_EQ(options->evaluator.num_bins, bins);
  }
}

TEST(AuditOptionsFromFlagsTest, IntBoundsAreInclusive) {
  FlagParser flags = MustParse(
      {{"threads", "2147483647"}, {"beam-width", "-2147483648"}});
  StatusOr<AuditOptions> options = AuditOptionsFromFlags(flags);
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->evaluator.num_threads, 2147483647);
  EXPECT_EQ(options->beam_width, -2147483647 - 1);
}

TEST(AuditOptionsFromFlagsTest, RepeatedFlagsLastWins) {
  FlagParser flags = MustParse({{"algorithm", "balanced"},
                                {"algorithm", "unbalanced"},
                                {"bins", "10"},
                                {"bins", "32"}});
  StatusOr<AuditOptions> options = AuditOptionsFromFlags(flags);
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->algorithm, "unbalanced");
  EXPECT_EQ(options->evaluator.num_bins, 32);
}

TEST(AuditOptionsFromFlagsTest, EmptyParameterNameFailsAtFromPairs) {
  StatusOr<FlagParser> parsed = FlagParser::FromPairs(Pairs{{"", "value"}});
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(AuditOptionsFromFlagsTest, FlagNamesCoverEveryConsumedFlag) {
  // The published name list is what ValidateKnownFlags trusts; a flag the
  // parser consumes but the list omits would be unreachable over HTTP.
  const std::vector<std::string>& names = AuditOptionFlagNames();
  for (const char* flag :
       {"algorithm", "bins", "divergence", "seed", "beam-width", "threads",
        "attributes", "timeout-ms", "max-nodes", "max-memory-mb"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), flag), names.end())
        << flag << " missing from AuditOptionFlagNames()";
  }
}

TEST(SuiteOptionsFromFlagsTest, RejectsOutOfRangeSuiteThreads) {
  for (const char* value : {"-1", "2147483648", "9223372036854775808", ""}) {
    FlagParser flags = MustParse({{"suite-threads", value}});
    StatusOr<SuiteOptions> options = SuiteOptionsFromFlags(flags);
    ASSERT_FALSE(options.ok()) << "suite-threads=" << value;
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(options.status().ToString().find("--suite-threads"),
              std::string::npos)
        << options.status().ToString();
  }
}

TEST(SuiteOptionsFromFlagsTest, ReadsTheAuditFlagsIntoTheTemplate) {
  FlagParser flags = MustParse({{"algorithms", "beam, balanced"},
                                {"suite-threads", "0"},
                                {"beam-width", "8"},
                                {"bins", "12"},
                                {"seed", "4"},
                                {"attributes", "Gender,Country"},
                                {"max-nodes", "9"}});
  StatusOr<SuiteOptions> options = SuiteOptionsFromFlags(flags);
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->algorithms,
            (std::vector<std::string>{"beam", "balanced"}));
  EXPECT_EQ(options->num_threads, 0);
  EXPECT_EQ(options->audit.beam_width, 8);
  EXPECT_EQ(options->audit.evaluator.num_bins, 12);
  EXPECT_EQ(options->audit.seed, 4u);
  EXPECT_EQ(options->audit.protected_attributes,
            (std::vector<std::string>{"Gender", "Country"}));
  EXPECT_EQ(options->audit.limits.max_nodes, 9u);
  // The audit flags fail the suite exactly as they fail an audit.
  StatusOr<SuiteOptions> bad = SuiteOptionsFromFlags(
      MustParse({{"bins", std::to_string(kMaxBins + 1)}}));
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("--bins"), std::string::npos);
}

TEST(SuiteOptionsFromFlagsTest, FlagNamesCoverEveryConsumedFlag) {
  // The suite reads every audit flag but `algorithm` (cells name their own)
  // plus its two grid flags, and publishes exactly that set.
  const std::vector<std::string>& names = SuiteOptionFlagNames();
  for (const char* flag :
       {"algorithms", "suite-threads", "bins", "divergence", "seed",
        "beam-width", "threads", "attributes", "timeout-ms", "max-nodes",
        "max-memory-mb"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), flag), names.end())
        << flag << " missing from SuiteOptionFlagNames()";
  }
  EXPECT_EQ(std::find(names.begin(), names.end(), "algorithm"), names.end());
  EXPECT_EQ(names.size(), AuditOptionFlagNames().size() + 1);
}

TEST(EvaluatorOptionsFromFlagsTest, DefaultsAndBinsBound) {
  StatusOr<EvaluatorOptions> defaults =
      EvaluatorOptionsFromFlags(MustParse({}));
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->num_bins, 10);
  EXPECT_EQ(defaults->divergence, "emd");
  StatusOr<EvaluatorOptions> tv =
      EvaluatorOptionsFromFlags(MustParse({{"divergence", "tv"}}));
  ASSERT_TRUE(tv.ok());
  EXPECT_EQ(tv->divergence, "tv");
  StatusOr<EvaluatorOptions> too_many = EvaluatorOptionsFromFlags(
      MustParse({{"bins", std::to_string(kMaxBins + 1)}}));
  ASSERT_FALSE(too_many.ok());
  EXPECT_NE(too_many.status().ToString().find("--bins"), std::string::npos);
}

TEST(FunctionsFromFlagsTest, DefaultListAndRejectedSpecs) {
  StatusOr<std::vector<std::unique_ptr<ScoringFunction>>> defaults =
      FunctionsFromFlags(MustParse({}));
  ASSERT_TRUE(defaults.ok()) << defaults.status().ToString();
  std::vector<std::string> names;
  for (const auto& fn : *defaults) names.push_back(fn->Name());
  EXPECT_EQ(names, (std::vector<std::string>{"alpha=0.25", "alpha=0.50",
                                             "alpha=0.75"}));
  StatusOr<std::vector<std::unique_ptr<ScoringFunction>>> listed =
      FunctionsFromFlags(MustParse({{"functions", "f6, alpha:0.5"}}));
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  ASSERT_EQ(listed->size(), 2u);
  EXPECT_EQ((*listed)[1]->Name(), "alpha=0.50");
  for (const char* value : {"", "f6,nosuch"}) {
    EXPECT_FALSE(FunctionsFromFlags(MustParse({{"functions", value}})).ok())
        << "functions=" << value;
  }
}

TEST(MakeFunctionFromSpecTest, RejectsMalformedSpecs) {
  for (const char* spec :
       {"", "alpha:", "alpha:nope", "f5", "f6:bad", "weights:", "weights:A",
        "weights:A=x", "unknown:1"}) {
    StatusOr<std::unique_ptr<ScoringFunction>> fn = MakeFunctionFromSpec(spec);
    EXPECT_FALSE(fn.ok()) << "spec '" << spec << "' should be rejected";
  }
}

}  // namespace
}  // namespace fairrank
