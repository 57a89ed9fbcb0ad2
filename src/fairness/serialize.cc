#include "fairness/serialize.h"

#include <cstring>
#include <vector>

#include "common/str_util.h"

namespace fairrank {

namespace {
constexpr char kHeader[] = "# fairrank partitioning v1";
}  // namespace

std::string SerializePartitioning(const Schema& schema,
                                  const Partitioning& partitioning) {
  std::string out = kHeader;
  out += "\n";
  for (const Partition& p : partitioning) {
    out += "partition: ";
    if (p.path.empty()) {
      out += "<all>";
    } else {
      for (size_t i = 0; i < p.path.size(); ++i) {
        if (i > 0) out += " & ";
        out += schema.attribute(p.path[i].attr_index).name();
        out += "=";
        out += std::to_string(p.path[i].group_index);
      }
    }
    out += "\n";
  }
  return out;
}

StatusOr<Partitioning> ApplyPartitioningSpec(const Table& table,
                                             const std::string& serialized,
                                             UnmatchedRowPolicy policy) {
  std::vector<std::string> lines = Split(serialized, '\n');
  if (lines.empty() || Trim(lines[0]) != kHeader) {
    return Status::InvalidArgument(
        "missing '# fairrank partitioning v1' header");
  }

  // Parse leaf paths.
  std::vector<std::vector<SplitStep>> paths;
  for (size_t ln = 1; ln < lines.size(); ++ln) {
    std::string_view line = Trim(lines[ln]);
    if (line.empty() || line[0] == '#') continue;
    if (!StartsWith(line, "partition:")) {
      return Status::InvalidArgument("line " + std::to_string(ln + 1) +
                                     ": expected 'partition: ...'");
    }
    std::string_view body = Trim(line.substr(strlen("partition:")));
    std::vector<SplitStep> path;
    if (body != "<all>") {
      for (const std::string& step_text : Split(body, '&')) {
        std::vector<std::string> kv = Split(Trim(step_text), '=');
        if (kv.size() != 2) {
          return Status::InvalidArgument("malformed step '" +
                                         std::string(step_text) + "'");
        }
        FAIRRANK_ASSIGN_OR_RETURN(
            size_t attr_index,
            table.schema().FindIndex(std::string(Trim(kv[0]))));
        int64_t group = 0;
        if (!ParseInt64(kv[1], &group)) {
          return Status::InvalidArgument("malformed group index in '" +
                                         std::string(step_text) + "'");
        }
        if (group < 0 ||
            group >= table.schema().attribute(attr_index).num_groups()) {
          return Status::OutOfRange(
              "group index " + std::to_string(group) + " out of range for '" +
              table.schema().attribute(attr_index).name() + "'");
        }
        path.push_back({attr_index, static_cast<int>(group)});
      }
    }
    paths.push_back(std::move(path));
  }
  if (paths.empty()) {
    return Status::InvalidArgument("spec declares no partitions");
  }

  // Assign rows.
  Partitioning result(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) result[i].path = paths[i];
  Partition rest;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    int match = -1;
    for (size_t i = 0; i < paths.size(); ++i) {
      bool ok = true;
      for (const SplitStep& step : paths[i]) {
        if (table.GroupIndex(row, step.attr_index) != step.group_index) {
          ok = false;
          break;
        }
      }
      if (ok) {
        if (match >= 0) {
          return Status::InvalidArgument(
              "row " + std::to_string(row) + " matches partitions " +
              std::to_string(match) + " and " + std::to_string(i) +
              "; paths are not mutually exclusive");
        }
        match = static_cast<int>(i);
      }
    }
    if (match >= 0) {
      result[static_cast<size_t>(match)].rows.push_back(row);
    } else if (policy == UnmatchedRowPolicy::kCollectRest) {
      rest.rows.push_back(row);
    } else {
      return Status::InvalidArgument("row " + std::to_string(row) +
                                     " matches no partition in the spec");
    }
  }

  // Drop empty partitions; append the rest-bucket if used.
  Partitioning compact;
  for (Partition& p : result) {
    if (p.rows.empty()) continue;
    compact.push_back(std::move(p));
  }
  if (!rest.rows.empty()) compact.push_back(std::move(rest));
  if (compact.empty()) {
    return Status::InvalidArgument("spec matched no rows of this table");
  }
  return compact;
}

}  // namespace fairrank
