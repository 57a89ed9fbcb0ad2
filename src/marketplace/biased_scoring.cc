#include "marketplace/biased_scoring.h"

#include <algorithm>

#include "common/rng.h"
#include "marketplace/worker.h"

namespace fairrank {

BiasedScoringFunction::BiasedScoringFunction(std::string name,
                                             std::vector<BiasRule> rules,
                                             uint64_t seed, double default_lo,
                                             double default_hi)
    : name_(std::move(name)),
      rules_(std::move(rules)),
      seed_(seed),
      default_lo_(default_lo),
      default_hi_(default_hi) {}

namespace {

/// Rows matched and drawn per block of BiasedScoringFunction::ScoreAll.
constexpr size_t kScoreBlock = 4096;

/// One rule condition resolved against a table: the column it reads and the
/// code or inclusive range it requires.
struct ResolvedCondition {
  const Column* column = nullptr;
  int code = 0;  ///< Categorical: the required code.
  double lo = 0.0;
  double hi = 0.0;

  /// Clears match[i] for each row begin + i, i < n, the condition rejects.
  void Match(size_t begin, size_t n, uint32_t* match) const {
    switch (column->kind()) {
      case AttributeKind::kCategorical: {
        const int32_t* c = column->code_data() + begin;
        for (size_t i = 0; i < n; ++i) match[i] &= c[i] == code;
        return;
      }
      case AttributeKind::kInteger: {
        const int64_t* v = column->int_data() + begin;
        for (size_t i = 0; i < n; ++i) {
          const double x = static_cast<double>(v[i]);
          match[i] &= !(x < lo) & !(x > hi);
        }
        return;
      }
      case AttributeKind::kReal: {
        const double* v = column->real_data() + begin;
        for (size_t i = 0; i < n; ++i) {
          match[i] &= !(v[i] < lo) & !(v[i] > hi);
        }
        return;
      }
    }
  }
};

}  // namespace

StatusOr<std::vector<double>> BiasedScoringFunction::ScoreAll(
    const Table& table) const {
  // Resolve attribute references once per call.
  std::vector<std::vector<ResolvedCondition>> resolved(rules_.size());
  for (size_t r = 0; r < rules_.size(); ++r) {
    if (rules_[r].score_lo > rules_[r].score_hi) {
      return Status::InvalidArgument("rule with empty score range in " +
                                     name_);
    }
    for (const BiasCondition& cond : rules_[r].conditions) {
      FAIRRANK_ASSIGN_OR_RETURN(size_t index,
                                table.schema().FindIndex(cond.attribute));
      const AttributeSpec& spec = table.schema().attribute(index);
      ResolvedCondition rc;
      rc.column = &table.column(index);
      rc.lo = cond.lo;
      rc.hi = cond.hi;
      if (cond.is_categorical) {
        if (spec.kind() != AttributeKind::kCategorical) {
          return Status::InvalidArgument("condition on '" + cond.attribute +
                                         "' expects a categorical attribute");
        }
        FAIRRANK_ASSIGN_OR_RETURN(rc.code, spec.CodeOf(cond.label));
      } else if (spec.kind() == AttributeKind::kCategorical) {
        return Status::InvalidArgument("range condition on categorical '" +
                                       cond.attribute + "'");
      }
      resolved[r].push_back(rc);
    }
  }
  // Score range by rule index; index rules_.size() is the default range.
  const uint32_t num_rules = static_cast<uint32_t>(rules_.size());
  std::vector<double> range_lo(num_rules + 1, default_lo_);
  std::vector<double> range_hi(num_rules + 1, default_hi_);
  for (uint32_t r = 0; r < num_rules; ++r) {
    range_lo[r] = rules_[r].score_lo;
    range_hi[r] = rules_[r].score_hi;
  }

  Rng rng(seed_);
  const size_t rows = table.num_rows();
  std::vector<double> scores(rows, 0.0);
  std::vector<uint32_t> match(kScoreBlock);
  std::vector<uint32_t> rule(kScoreBlock);
  for (size_t begin = 0; begin < rows; begin += kScoreBlock) {
    const size_t n = std::min(kScoreBlock, rows - begin);
    // Rules are matched last to first, so each row ends on its first
    // matching rule, or the default when none matches.
    std::fill_n(rule.begin(), n, num_rules);
    for (uint32_t r = num_rules; r-- > 0;) {
      std::fill_n(match.begin(), n, 1u);
      for (const ResolvedCondition& rc : resolved[r]) {
        rc.Match(begin, n, match.data());
      }
      for (size_t i = 0; i < n; ++i) rule[i] = match[i] ? r : rule[i];
    }
    // Draws stay in row order; a degenerate range consumes none.
    for (size_t i = 0; i < n; ++i) {
      const double lo = range_lo[rule[i]];
      const double hi = range_hi[rule[i]];
      scores[begin + i] = (lo == hi) ? lo : rng.UniformDouble(lo, hi);
    }
  }
  return scores;
}

namespace {
namespace wa = worker_attrs;
}  // namespace

std::unique_ptr<ScoringFunction> MakeF6(uint64_t seed) {
  std::vector<BiasRule> rules;
  rules.push_back({{BiasCondition::Equals(wa::kGender, "Male")}, 0.8, 1.0});
  rules.push_back({{BiasCondition::Equals(wa::kGender, "Female")}, 0.0, 0.2});
  return std::make_unique<BiasedScoringFunction>("f6 (anti-female)",
                                                 std::move(rules), seed);
}

std::unique_ptr<ScoringFunction> MakeF7(uint64_t seed) {
  std::vector<BiasRule> rules;
  rules.push_back({{BiasCondition::Equals(wa::kGender, "Male"),
                    BiasCondition::Equals(wa::kCountry, "America")},
                   0.8,
                   1.0});
  rules.push_back({{BiasCondition::Equals(wa::kGender, "Female"),
                    BiasCondition::Equals(wa::kCountry, "America")},
                   0.0,
                   0.2});
  rules.push_back({{BiasCondition::Equals(wa::kCountry, "India")}, 0.5, 0.7});
  rules.push_back({{BiasCondition::Equals(wa::kGender, "Female"),
                    BiasCondition::Equals(wa::kCountry, "Other")},
                   0.8,
                   1.0});
  rules.push_back({{BiasCondition::Equals(wa::kGender, "Male"),
                    BiasCondition::Equals(wa::kCountry, "Other")},
                   0.0,
                   0.2});
  return std::make_unique<BiasedScoringFunction>("f7 (gender x country)",
                                                 std::move(rules), seed);
}

std::unique_ptr<ScoringFunction> MakeF8(uint64_t seed) {
  std::vector<BiasRule> rules;
  rules.push_back({{BiasCondition::Equals(wa::kGender, "Female"),
                    BiasCondition::Equals(wa::kCountry, "America")},
                   0.8,
                   1.0});
  rules.push_back({{BiasCondition::Equals(wa::kGender, "Female"),
                    BiasCondition::Equals(wa::kCountry, "India")},
                   0.5,
                   0.8});
  rules.push_back({{BiasCondition::Equals(wa::kGender, "Female"),
                    BiasCondition::Equals(wa::kCountry, "Other")},
                   0.0,
                   0.2});
  // Males are unspecified in the paper; they draw from the default [0,1].
  return std::make_unique<BiasedScoringFunction>("f8 (female x country)",
                                                 std::move(rules), seed);
}

std::unique_ptr<ScoringFunction> MakeF9(uint64_t seed) {
  std::vector<BiasRule> rules;
  rules.push_back({{BiasCondition::Equals(wa::kEthnicity, "White"),
                    BiasCondition::Equals(wa::kLanguage, "English"),
                    BiasCondition::InRange(wa::kYearOfBirth, 1950, 1979)},
                   0.8,
                   1.0});
  rules.push_back(
      {{BiasCondition::Equals(wa::kEthnicity, "Indian")}, 0.5, 0.7});
  rules.push_back(
      {{BiasCondition::Equals(wa::kLanguage, "Indian")}, 0.5, 0.7});
  rules.push_back({{}, 0.0, 0.2});  // Catch-all: everyone else scores low.
  return std::make_unique<BiasedScoringFunction>(
      "f9 (ethnicity x language x birth)", std::move(rules), seed);
}

std::vector<std::unique_ptr<ScoringFunction>> MakePaperBiasedFunctions(
    uint64_t seed) {
  std::vector<std::unique_ptr<ScoringFunction>> fns;
  fns.push_back(MakeF6(seed + 6));
  fns.push_back(MakeF7(seed + 7));
  fns.push_back(MakeF8(seed + 8));
  fns.push_back(MakeF9(seed + 9));
  return fns;
}

}  // namespace fairrank
