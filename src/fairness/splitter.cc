#include "fairness/splitter.h"

namespace fairrank {

std::vector<Partition> SplitPartition(const Table& table,
                                      const Partition& partition,
                                      size_t attr_index) {
  const int num_groups = table.schema().attribute(attr_index).num_groups();
  std::vector<Partition> children(static_cast<size_t>(num_groups));
  for (size_t row : partition.rows) {
    int g = table.GroupIndex(row, attr_index);
    children[static_cast<size_t>(g)].rows.push_back(row);
  }
  std::vector<Partition> result;
  result.reserve(children.size());
  for (int g = 0; g < num_groups; ++g) {
    Partition& child = children[static_cast<size_t>(g)];
    if (child.rows.empty()) continue;
    child.path = partition.path;
    child.path.push_back({attr_index, g});
    result.push_back(std::move(child));
  }
  return result;
}

Partitioning SplitAll(const Table& table, const Partitioning& partitioning,
                      size_t attr_index) {
  Partitioning result;
  for (const Partition& p : partitioning) {
    std::vector<Partition> children = SplitPartition(table, p, attr_index);
    for (Partition& c : children) result.push_back(std::move(c));
  }
  return result;
}

}  // namespace fairrank
