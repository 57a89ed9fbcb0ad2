#include "data/attribute.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "data/schema.h"
#include "fairness/partition.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

TEST(AttributeTest, CategoricalBasics) {
  AttributeSpec gender = AttributeSpec::Categorical(
      "Gender", AttributeRole::kProtected, {"Male", "Female"});
  EXPECT_TRUE(gender.Validate().ok());
  EXPECT_EQ(gender.name(), "Gender");
  EXPECT_EQ(gender.kind(), AttributeKind::kCategorical);
  EXPECT_TRUE(gender.is_protected());
  EXPECT_FALSE(gender.is_observed());
  EXPECT_EQ(gender.num_groups(), 2);
}

TEST(AttributeTest, CodeOfResolvesLabels) {
  AttributeSpec lang = AttributeSpec::Categorical(
      "Language", AttributeRole::kProtected, {"English", "Indian", "Other"});
  EXPECT_EQ(lang.CodeOf("English").value(), 0);
  EXPECT_EQ(lang.CodeOf("Other").value(), 2);
  EXPECT_EQ(lang.CodeOf("French").status().code(), StatusCode::kNotFound);
}

TEST(AttributeTest, CodeOfOnNumericFails) {
  AttributeSpec yob =
      AttributeSpec::Integer("YearOfBirth", AttributeRole::kProtected, 1950,
                             2009, 5);
  EXPECT_EQ(yob.CodeOf("1960").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(AttributeTest, ValidationFailures) {
  EXPECT_FALSE(AttributeSpec::Categorical("", AttributeRole::kOther, {"a"})
                   .Validate()
                   .ok());
  EXPECT_FALSE(
      AttributeSpec::Categorical("X", AttributeRole::kOther, {}).Validate().ok());
  EXPECT_FALSE(AttributeSpec::Categorical("X", AttributeRole::kOther,
                                          {"a", "a"})
                   .Validate()
                   .ok());
  EXPECT_FALSE(
      AttributeSpec::Integer("X", AttributeRole::kOther, 5, 5, 3).Validate().ok());
  EXPECT_FALSE(
      AttributeSpec::Integer("X", AttributeRole::kOther, 0, 10, 0).Validate().ok());
  EXPECT_FALSE(
      AttributeSpec::Integer("X", AttributeRole::kOther, 10, 0, 5).Validate().ok());
  EXPECT_FALSE(
      AttributeSpec::Real("X", AttributeRole::kOther, 1.0, 0.0, 3).Validate().ok());
}

TEST(AttributeTest, IntegerBucketization) {
  // [1950, 2009] in 5 buckets of width 11.8.
  AttributeSpec yob =
      AttributeSpec::Integer("YearOfBirth", AttributeRole::kProtected, 1950,
                             2009, 5);
  EXPECT_EQ(yob.num_groups(), 5);
  EXPECT_EQ(yob.GroupIndexOfInt(1950), 0);
  EXPECT_EQ(yob.GroupIndexOfInt(1961), 0);
  EXPECT_EQ(yob.GroupIndexOfInt(1962), 1);
  EXPECT_EQ(yob.GroupIndexOfInt(2009), 4);
}

TEST(AttributeTest, BucketizationClampsOutOfRange) {
  AttributeSpec exp = AttributeSpec::Integer(
      "YearsExperience", AttributeRole::kProtected, 0, 30, 5);
  EXPECT_EQ(exp.GroupIndexOfInt(-3), 0);
  EXPECT_EQ(exp.GroupIndexOfInt(500), 4);
  AttributeSpec rate =
      AttributeSpec::Real("Rate", AttributeRole::kObserved, 0.0, 1.0, 10);
  EXPECT_EQ(rate.GroupIndexOfReal(-0.1), 0);
  EXPECT_EQ(rate.GroupIndexOfReal(1.5), 9);
  EXPECT_EQ(rate.GroupIndexOfReal(1.0), 9);  // Upper bound inclusive.
}

TEST(AttributeTest, HugeValuesClampToTheEdgeBuckets) {
  // Quotients past int's range must clamp before the cast, not wrap into
  // bucket 0.
  AttributeSpec rate =
      AttributeSpec::Real("ApprovalRate", AttributeRole::kObserved, 0.0,
                          100.0, 4);
  EXPECT_EQ(rate.GroupIndexOfReal(1e12), 3);
  EXPECT_EQ(rate.GroupIndexOfReal(1e300), 3);
  EXPECT_EQ(rate.GroupIndexOfReal(std::numeric_limits<double>::max()), 3);
  EXPECT_EQ(rate.GroupIndexOfReal(-1e12), 0);
  EXPECT_EQ(rate.GroupIndexOfReal(-std::numeric_limits<double>::max()), 0);
  EXPECT_EQ(rate.GroupIndexOfReal(std::numeric_limits<double>::infinity()),
            3);
  EXPECT_EQ(rate.GroupIndexOfReal(std::numeric_limits<double>::quiet_NaN()),
            0);
  AttributeSpec yob = AttributeSpec::Integer(
      "YearOfBirth", AttributeRole::kProtected, 1950, 2009, 5);
  EXPECT_EQ(yob.GroupIndexOfInt(3000), 4);
  EXPECT_EQ(yob.GroupIndexOfInt(100'000'000'000), 4);
  EXPECT_EQ(yob.GroupIndexOfInt(std::numeric_limits<int64_t>::max()), 4);
  EXPECT_EQ(yob.GroupIndexOfInt(-100'000'000'000), 0);
  EXPECT_EQ(yob.GroupIndexOfInt(std::numeric_limits<int64_t>::min()), 0);
}

TEST(AttributeTest, RealBucketBoundaries) {
  AttributeSpec r =
      AttributeSpec::Real("R", AttributeRole::kObserved, 0.0, 1.0, 4);
  EXPECT_EQ(r.GroupIndexOfReal(0.0), 0);
  EXPECT_EQ(r.GroupIndexOfReal(0.249), 0);
  EXPECT_EQ(r.GroupIndexOfReal(0.25), 1);
  EXPECT_EQ(r.GroupIndexOfReal(0.75), 3);
}

TEST(AttributeTest, GroupLabels) {
  AttributeSpec gender = AttributeSpec::Categorical(
      "Gender", AttributeRole::kProtected, {"Male", "Female"});
  EXPECT_EQ(gender.GroupLabel(0), "Male");
  EXPECT_EQ(gender.GroupLabel(1), "Female");
  EXPECT_EQ(gender.GroupLabel(7), "<invalid>");

  AttributeSpec exp = AttributeSpec::Integer(
      "YearsExperience", AttributeRole::kProtected, 0, 30, 3);
  EXPECT_EQ(exp.GroupLabel(0), "[0,10)");
  EXPECT_EQ(exp.GroupLabel(2), "[20,30]");  // Last bucket closes the range.
}

/// Asserts that every integer in [min, max] lies inside the interval its
/// bucket's label names: "[lo,hi)", or "[lo,hi]" for the last bucket.
void ExpectIntegerLabelsMatchMembership(const AttributeSpec& spec) {
  for (int64_t v = static_cast<int64_t>(spec.min());
       v <= static_cast<int64_t>(spec.max()); ++v) {
    const int g = spec.GroupIndexOfInt(v);
    const std::string label = spec.GroupLabel(g);
    ASSERT_GE(label.size(), 5u) << label;
    const size_t comma = label.find(',');
    ASSERT_NE(comma, std::string::npos) << label;
    const int64_t lo = std::stoll(label.substr(1, comma - 1));
    const int64_t hi =
        std::stoll(label.substr(comma + 1, label.size() - comma - 2));
    const bool closed = label.back() == ']';
    EXPECT_EQ(closed, g == spec.num_groups() - 1) << label;
    EXPECT_LE(lo, v) << spec.name() << " " << v << " in " << label;
    if (closed) {
      EXPECT_LE(v, hi) << spec.name() << " " << v << " in " << label;
    } else {
      EXPECT_LT(v, hi) << spec.name() << " " << v << " in " << label;
    }
  }
}

TEST(AttributeTest, IntegerBucketLabelsMatchMembership) {
  Schema schema = MakePaperWorkerSchema().value();
  int checked = 0;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    if (schema.attribute(a).kind() != AttributeKind::kInteger) continue;
    ExpectIntegerLabelsMatchMembership(schema.attribute(a));
    ++checked;
  }
  EXPECT_EQ(checked, 2);  // YearOfBirth and YearsExperience.
  // Fractional widths on both sides of 1, and more buckets than integers.
  ExpectIntegerLabelsMatchMembership(
      AttributeSpec::Integer("w", AttributeRole::kProtected, -7, 93, 7));
  ExpectIntegerLabelsMatchMembership(
      AttributeSpec::Integer("n", AttributeRole::kProtected, 0, 2, 5));
  ExpectIntegerLabelsMatchMembership(AttributeSpec::Integer(
      "big", AttributeRole::kProtected, 1000000000000000, 1000000000000010, 3));
  EXPECT_EQ(AttributeSpec::Integer("n", AttributeRole::kProtected, 0, 2, 5)
                .GroupLabel(1),
            "[1,1)");  // No integer lands in bucket 1: an empty interval.
}

TEST(AttributeTest, PaperSchemaLabelsAreUnchanged) {
  // Every group of the paper schema plus one index past each end.
  const std::vector<std::vector<std::string>> want = {
      {"<invalid>", "Male", "Female", "<invalid>"},
      {"<invalid>", "America", "India", "Other", "<invalid>"},
      {"[1939,1950)", "[1950,1962)", "[1962,1974)", "[1974,1986)",
       "[1986,1998)", "[1998,2009]", "[2009,2021)"},
      {"<invalid>", "English", "Indian", "Other", "<invalid>"},
      {"<invalid>", "White", "African-American", "Indian", "Other",
       "<invalid>"},
      {"[-6,0)", "[0,6)", "[6,12)", "[12,18)", "[18,24)", "[24,30]",
       "[30,36)"},
      {"[17.50,25.00)", "[25.00,32.50)", "[32.50,40.00)", "[40.00,47.50)",
       "[47.50,55.00)", "[55.00,62.50)", "[62.50,70.00)", "[70.00,77.50)",
       "[77.50,85.00)", "[85.00,92.50)", "[92.50,100.00]",
       "[100.00,107.50)"},
      {"[17.50,25.00)", "[25.00,32.50)", "[32.50,40.00)", "[40.00,47.50)",
       "[47.50,55.00)", "[55.00,62.50)", "[62.50,70.00)", "[70.00,77.50)",
       "[77.50,85.00)", "[85.00,92.50)", "[92.50,100.00]",
       "[100.00,107.50)"}};
  Schema schema = MakePaperWorkerSchema().value();
  ASSERT_EQ(schema.num_attributes(), want.size());
  for (size_t a = 0; a < want.size(); ++a) {
    const AttributeSpec& spec = schema.attribute(a);
    ASSERT_EQ(want[a].size(), static_cast<size_t>(spec.num_groups()) + 2)
        << spec.name();
    for (int g = -1; g <= spec.num_groups(); ++g) {
      EXPECT_EQ(spec.GroupLabel(g), want[a][g + 1]) << spec.name() << " " << g;
    }
  }
  // A copied schema carries its labels along.
  const Schema copy = schema;
  EXPECT_EQ(copy.attribute(2).GroupLabel(4), "[1998,2009]");

  Partition merged;
  merged.merged_paths = {{{0, 1}, {2, 4}}, {{1, 2}, {5, 0}}, {}};
  EXPECT_EQ(PartitionLabel(schema, merged),
            "Gender=Female & YearOfBirth=[1998,2009] | "
            "Country=Other & YearsExperience=[0,6) | <all>");
}

TEST(AttributeTest, CategoricalGroupIndexClamps) {
  AttributeSpec gender = AttributeSpec::Categorical(
      "Gender", AttributeRole::kProtected, {"Male", "Female"});
  EXPECT_EQ(gender.GroupIndexOfInt(-1), 0);
  EXPECT_EQ(gender.GroupIndexOfInt(9), 1);
}

TEST(AttributeTest, KindAndRoleNames) {
  EXPECT_STREQ(AttributeKindToString(AttributeKind::kCategorical),
               "categorical");
  EXPECT_STREQ(AttributeKindToString(AttributeKind::kInteger), "integer");
  EXPECT_STREQ(AttributeKindToString(AttributeKind::kReal), "real");
  EXPECT_STREQ(AttributeRoleToString(AttributeRole::kProtected), "protected");
  EXPECT_STREQ(AttributeRoleToString(AttributeRole::kObserved), "observed");
  EXPECT_STREQ(AttributeRoleToString(AttributeRole::kOther), "other");
}

}  // namespace
}  // namespace fairrank
