#include "marketplace/biased_scoring.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "marketplace/generator.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

namespace wa = worker_attrs;

Table Workers(size_t n = 400, uint64_t seed = 3) {
  GeneratorOptions options;
  options.num_workers = n;
  options.seed = seed;
  return GenerateWorkers(options).value();
}

TEST(BiasedScoringTest, F6SeparatesGenders) {
  Table workers = Workers();
  auto f6 = MakeF6(11);
  auto scores = f6->ScoreAll(workers).value();
  size_t gender = workers.schema().FindIndex(wa::kGender).value();
  for (size_t row = 0; row < workers.num_rows(); ++row) {
    if (workers.column(gender).CodeAt(row) == 0) {  // Male.
      EXPECT_GE(scores[row], 0.8);
    } else {
      EXPECT_LT(scores[row], 0.2);
    }
  }
}

TEST(BiasedScoringTest, F7GenderCountryRules) {
  Table workers = Workers();
  auto f7 = MakeF7(12);
  auto scores = f7->ScoreAll(workers).value();
  size_t gender = workers.schema().FindIndex(wa::kGender).value();
  size_t country = workers.schema().FindIndex(wa::kCountry).value();
  for (size_t row = 0; row < workers.num_rows(); ++row) {
    bool male = workers.column(gender).CodeAt(row) == 0;
    std::string c = workers.CellToString(row, country);
    double s = scores[row];
    if (c == "India") {
      EXPECT_GE(s, 0.5);
      EXPECT_LT(s, 0.7);
    } else if (c == "America") {
      if (male) EXPECT_GE(s, 0.8);
      else EXPECT_LT(s, 0.2);
    } else {  // Other.
      if (male) EXPECT_LT(s, 0.2);
      else EXPECT_GE(s, 0.8);
    }
  }
}

TEST(BiasedScoringTest, F8FemaleRulesAndMaleDefault) {
  Table workers = Workers();
  auto f8 = MakeF8(13);
  auto scores = f8->ScoreAll(workers).value();
  size_t gender = workers.schema().FindIndex(wa::kGender).value();
  size_t country = workers.schema().FindIndex(wa::kCountry).value();
  for (size_t row = 0; row < workers.num_rows(); ++row) {
    double s = scores[row];
    if (workers.column(gender).CodeAt(row) == 1) {  // Female.
      std::string c = workers.CellToString(row, country);
      if (c == "America") EXPECT_GE(s, 0.8);
      else if (c == "India") { EXPECT_GE(s, 0.5); EXPECT_LT(s, 0.8); }
      else EXPECT_LT(s, 0.2);
    } else {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(BiasedScoringTest, F9UsesEthnicityLanguageBirth) {
  Table workers = Workers(800);
  auto f9 = MakeF9(14);
  auto scores = f9->ScoreAll(workers).value();
  size_t ethnicity = workers.schema().FindIndex(wa::kEthnicity).value();
  size_t language = workers.schema().FindIndex(wa::kLanguage).value();
  size_t yob = workers.schema().FindIndex(wa::kYearOfBirth).value();
  for (size_t row = 0; row < workers.num_rows(); ++row) {
    double s = scores[row];
    std::string e = workers.CellToString(row, ethnicity);
    std::string l = workers.CellToString(row, language);
    int64_t year = workers.column(yob).IntAt(row);
    if (e == "White" && l == "English" && year <= 1979) {
      EXPECT_GE(s, 0.8);
    } else if (e == "Indian" || l == "Indian") {
      EXPECT_GE(s, 0.5);
      EXPECT_LT(s, 0.7);
    } else {
      EXPECT_LT(s, 0.2);
    }
  }
}

/// The row-at-a-time scoring loop: each row walks the rules in order, takes
/// the first whose conditions all hold, and draws its score from
/// std::uniform_real_distribution on the seeded engine (a degenerate range
/// draws nothing).
std::vector<double> RowByRowScores(const Table& table,
                                   const std::vector<BiasRule>& rules,
                                   uint64_t seed, double default_lo = 0.0,
                                   double default_hi = 1.0) {
  std::mt19937_64 engine(seed);
  std::vector<double> scores(table.num_rows());
  for (size_t row = 0; row < table.num_rows(); ++row) {
    double lo = default_lo;
    double hi = default_hi;
    for (const BiasRule& rule : rules) {
      bool match = true;
      for (const BiasCondition& cond : rule.conditions) {
        size_t index = table.schema().FindIndex(cond.attribute).value();
        if (cond.is_categorical) {
          int code = table.schema().attribute(index).CodeOf(cond.label).value();
          match = table.column(index).CodeAt(row) == code;
        } else {
          double v = table.ValueAsDouble(row, index);
          match = !(v < cond.lo || v > cond.hi);
        }
        if (!match) break;
      }
      if (match) {
        lo = rule.score_lo;
        hi = rule.score_hi;
        break;
      }
    }
    scores[row] =
        (lo == hi) ? lo : std::uniform_real_distribution<double>(lo, hi)(engine);
  }
  return scores;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  // memcmp must not see the null data() of an empty vector.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(BiasedScoringTest, BlockScoringEqualsRowByRowOracle) {
  // A real-valued range, an integer range, a constant rule (no draw) and an
  // empty catch-all, on top of the paper's f6-f9.
  std::vector<BiasRule> custom;
  custom.push_back({{BiasCondition::Equals(wa::kGender, "Female"),
                     BiasCondition::InRange(wa::kApprovalRate, 40.0, 70.5)},
                    0.6,
                    0.9});
  custom.push_back({{BiasCondition::Equals(wa::kCountry, "India")}, 0.5, 0.5});
  custom.push_back(
      {{BiasCondition::InRange(wa::kYearsExperience, 3, 10)}, 0.2, 0.4});
  custom.push_back({{}, 0.1, 0.3});
  std::vector<BiasRule> no_catch_all(custom.begin(), custom.end() - 1);
  for (size_t n : {0, 1, 4095, 4096, 4097, 10000}) {
    Table workers = Workers(n, 5 + n);
    const uint64_t seed = 17 + n;
    std::vector<std::unique_ptr<ScoringFunction>> fns;
    fns.push_back(MakeF6(seed));
    fns.push_back(MakeF7(seed));
    fns.push_back(MakeF8(seed));
    fns.push_back(MakeF9(seed));
    fns.push_back(std::make_unique<BiasedScoringFunction>("custom", custom,
                                                          seed));
    fns.push_back(std::make_unique<BiasedScoringFunction>(
        "no catch-all", no_catch_all, seed, 0.25, 0.75));
    for (const auto& fn : fns) {
      const auto& biased = static_cast<const BiasedScoringFunction&>(*fn);
      const bool custom_defaults = fn->Name() == "no catch-all";
      std::vector<double> want =
          custom_defaults
              ? RowByRowScores(workers, biased.rules(), seed, 0.25, 0.75)
              : RowByRowScores(workers, biased.rules(), seed);
      std::vector<double> got = fn->ScoreAll(workers).value();
      EXPECT_TRUE(SameBytes(got, want)) << fn->Name() << " at " << n
                                        << " rows";
    }
  }
}

TEST(BiasedScoringTest, DeterministicAcrossCalls) {
  Table workers = Workers();
  auto f7 = MakeF7(21);
  EXPECT_EQ(f7->ScoreAll(workers).value(), f7->ScoreAll(workers).value());
}

TEST(BiasedScoringTest, SeedChangesScoresNotRanges) {
  Table workers = Workers();
  auto a = MakeF6(1)->ScoreAll(workers).value();
  auto b = MakeF6(2)->ScoreAll(workers).value();
  EXPECT_NE(a, b);
}

TEST(BiasedScoringTest, FirstMatchingRuleWins) {
  // Two rules both matching males; the first must apply.
  std::vector<BiasRule> rules;
  rules.push_back({{BiasCondition::Equals(wa::kGender, "Male")}, 0.9, 1.0});
  rules.push_back({{BiasCondition::Equals(wa::kGender, "Male")}, 0.0, 0.1});
  BiasedScoringFunction fn("test", rules, 5);
  Table workers = Workers(100);
  auto scores = fn.ScoreAll(workers).value();
  size_t gender = workers.schema().FindIndex(wa::kGender).value();
  for (size_t row = 0; row < workers.num_rows(); ++row) {
    if (workers.column(gender).CodeAt(row) == 0) {
      EXPECT_GE(scores[row], 0.9);
    }
  }
}

TEST(BiasedScoringTest, EmptyConditionListMatchesEveryone) {
  std::vector<BiasRule> rules;
  rules.push_back({{}, 0.4, 0.5});
  BiasedScoringFunction fn("catch-all", rules, 5);
  Table workers = Workers(50);
  std::vector<double> scores = fn.ScoreAll(workers).value();
  for (double s : scores) {
    EXPECT_GE(s, 0.4);
    EXPECT_LT(s, 0.5);
  }
}

TEST(BiasedScoringTest, DegenerateRangeYieldsConstant) {
  std::vector<BiasRule> rules;
  rules.push_back({{}, 0.5, 0.5});
  BiasedScoringFunction fn("const", rules, 5);
  Table workers = Workers(20);
  std::vector<double> scores = fn.ScoreAll(workers).value();
  for (double s : scores) EXPECT_DOUBLE_EQ(s, 0.5);
}

TEST(BiasedScoringTest, UnknownAttributeFails) {
  std::vector<BiasRule> rules;
  rules.push_back({{BiasCondition::Equals("Nope", "x")}, 0.0, 1.0});
  BiasedScoringFunction fn("bad", rules, 5);
  Table workers = Workers(10);
  EXPECT_EQ(fn.ScoreAll(workers).status().code(), StatusCode::kNotFound);
}

TEST(BiasedScoringTest, UnknownCategoryFails) {
  std::vector<BiasRule> rules;
  rules.push_back({{BiasCondition::Equals(wa::kGender, "Robot")}, 0.0, 1.0});
  BiasedScoringFunction fn("bad", rules, 5);
  Table workers = Workers(10);
  EXPECT_EQ(fn.ScoreAll(workers).status().code(), StatusCode::kNotFound);
}

TEST(BiasedScoringTest, RangeConditionOnCategoricalFails) {
  std::vector<BiasRule> rules;
  rules.push_back({{BiasCondition::InRange(wa::kGender, 0, 1)}, 0.0, 1.0});
  BiasedScoringFunction fn("bad", rules, 5);
  Table workers = Workers(10);
  EXPECT_EQ(fn.ScoreAll(workers).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BiasedScoringTest, CategoricalConditionOnNumericFails) {
  std::vector<BiasRule> rules;
  rules.push_back(
      {{BiasCondition::Equals(wa::kYearOfBirth, "1960")}, 0.0, 1.0});
  BiasedScoringFunction fn("bad", rules, 5);
  Table workers = Workers(10);
  EXPECT_EQ(fn.ScoreAll(workers).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BiasedScoringTest, InvertedScoreRangeFails) {
  std::vector<BiasRule> rules;
  rules.push_back({{}, 0.9, 0.1});
  BiasedScoringFunction fn("bad", rules, 5);
  Table workers = Workers(10);
  EXPECT_EQ(fn.ScoreAll(workers).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BiasedScoringTest, PaperBiasedFamilyHasFourFunctions) {
  auto fns = MakePaperBiasedFunctions(42);
  ASSERT_EQ(fns.size(), 4u);
  EXPECT_NE(fns[0]->Name().find("f6"), std::string::npos);
  EXPECT_NE(fns[3]->Name().find("f9"), std::string::npos);
}

}  // namespace
}  // namespace fairrank
