#include "fairness/partition.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

namespace fairrank {

Partition MakeRootPartition(size_t num_rows) {
  Partition root;
  root.rows.resize(num_rows);
  std::iota(root.rows.begin(), root.rows.end(), size_t{0});
  return root;
}

namespace {

std::string PathLabel(const Schema& schema,
                      const std::vector<SplitStep>& path) {
  if (path.empty()) return "<all>";
  std::string label;
  for (size_t i = 0; i < path.size(); ++i) {
    const SplitStep& step = path[i];
    if (i > 0) label += " & ";
    const AttributeSpec& spec = schema.attribute(step.attr_index);
    label += spec.name();
    label += "=";
    label += spec.GroupLabel(step.group_index);
  }
  return label;
}

}  // namespace

std::string PartitionLabel(const Schema& schema, const Partition& partition) {
  if (partition.is_merged()) {
    std::string label;
    for (size_t i = 0; i < partition.merged_paths.size(); ++i) {
      if (i > 0) label += " | ";
      label += PathLabel(schema, partition.merged_paths[i]);
    }
    return label;
  }
  return PathLabel(schema, partition.path);
}

std::vector<std::string> AttributesUsed(const Schema& schema,
                                        const Partitioning& partitioning) {
  std::set<size_t> indices;
  for (const Partition& p : partitioning) {
    for (const SplitStep& step : p.path) indices.insert(step.attr_index);
    for (const auto& path : p.merged_paths) {
      for (const SplitStep& step : path) indices.insert(step.attr_index);
    }
  }
  std::vector<std::string> names;
  names.reserve(indices.size());
  for (size_t i : indices) names.push_back(schema.attribute(i).name());
  return names;
}

bool IsValidPartitioning(const Partitioning& partitioning, size_t num_rows) {
  std::vector<bool> seen(num_rows, false);
  size_t covered = 0;
  for (const Partition& p : partitioning) {
    if (p.rows.empty()) return false;
    for (size_t row : p.rows) {
      if (row >= num_rows || seen[row]) return false;
      seen[row] = true;
      ++covered;
    }
  }
  return covered == num_rows;
}

}  // namespace fairrank
