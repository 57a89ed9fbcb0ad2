#include "marketplace/scoring.h"

#include <cmath>

#include "common/str_util.h"
#include "marketplace/worker.h"

namespace fairrank {

LinearScoringFunction::LinearScoringFunction(
    std::string name, std::vector<std::pair<std::string, double>> weights)
    : name_(std::move(name)), weights_(std::move(weights)) {}

StatusOr<std::vector<double>> LinearScoringFunction::ScoreAll(
    const Table& table) const {
  struct Term {
    size_t attr_index;
    double weight;
    double min;
    double inv_range;
  };
  std::vector<Term> terms;
  terms.reserve(weights_.size());
  for (const auto& [name, weight] : weights_) {
    if (!std::isfinite(weight)) {
      return Status::InvalidArgument("weight for attribute '" + name +
                                     "' is not finite");
    }
    if (weight < 0.0) {
      return Status::InvalidArgument("negative weight for attribute '" + name +
                                     "'");
    }
    if (weight == 0.0) continue;
    FAIRRANK_ASSIGN_OR_RETURN(size_t index, table.schema().FindIndex(name));
    const AttributeSpec& spec = table.schema().attribute(index);
    if (spec.kind() == AttributeKind::kCategorical) {
      return Status::InvalidArgument("scoring attribute '" + name +
                                     "' must be numeric");
    }
    terms.push_back(
        {index, weight, spec.min(), 1.0 / (spec.max() - spec.min())});
  }
  std::vector<double> scores(table.num_rows(), 0.0);
  for (const Term& t : terms) {
    const Column& col = table.column(t.attr_index);
    for (size_t row = 0; row < scores.size(); ++row) {
      double normalized = (col.AsDouble(row) - t.min) * t.inv_range;
      scores[row] += t.weight * normalized;
    }
  }
  return scores;
}

std::unique_ptr<ScoringFunction> MakeAlphaFunction(std::string name,
                                                   double alpha) {
  return std::make_unique<LinearScoringFunction>(
      std::move(name),
      std::vector<std::pair<std::string, double>>{
          {worker_attrs::kLanguageTest, alpha},
          {worker_attrs::kApprovalRate, 1.0 - alpha}});
}

std::vector<std::unique_ptr<ScoringFunction>> MakePaperRandomFunctions() {
  const double kAlphas[] = {0.5, 0.3, 0.7, 1.0, 0.0};
  std::vector<std::unique_ptr<ScoringFunction>> fns;
  for (size_t i = 0; i < 5; ++i) {
    // Stepwise append: chained operator+ trips GCC 12's -Wrestrict false
    // positive (PR105651) under -Werror.
    std::string name = "f";
    name += std::to_string(i + 1);
    name += " (alpha=";
    name += FormatDouble(kAlphas[i], 1);
    name += ")";
    fns.push_back(MakeAlphaFunction(std::move(name), kAlphas[i]));
  }
  return fns;
}

}  // namespace fairrank
