#include "data/table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace fairrank {
namespace {

Schema MakeTestSchema() {
  Schema schema;
  EXPECT_TRUE(schema
                  .AddAttribute(AttributeSpec::Categorical(
                      "Gender", AttributeRole::kProtected, {"Male", "Female"}))
                  .ok());
  EXPECT_TRUE(schema
                  .AddAttribute(AttributeSpec::Integer(
                      "Age", AttributeRole::kProtected, 18, 80, 5))
                  .ok());
  EXPECT_TRUE(schema
                  .AddAttribute(AttributeSpec::Real(
                      "Rating", AttributeRole::kObserved, 0.0, 5.0, 10))
                  .ok());
  return schema;
}

TEST(TableTest, AppendAndRead) {
  Table table(MakeTestSchema());
  ASSERT_TRUE(
      table.AppendRow({std::string("Male"), int64_t{30}, 4.5}).ok());
  ASSERT_TRUE(
      table.AppendRow({std::string("Female"), int64_t{55}, 2.0}).ok());
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.num_columns(), 3u);
  EXPECT_EQ(table.column(0).CodeAt(0), 0);
  EXPECT_EQ(table.column(0).CodeAt(1), 1);
  EXPECT_EQ(table.column(1).IntAt(0), 30);
  EXPECT_DOUBLE_EQ(table.column(2).RealAt(1), 2.0);
}

TEST(TableTest, CategoricalByCode) {
  Table table(MakeTestSchema());
  ASSERT_TRUE(table.AppendRow({int64_t{1}, int64_t{40}, 3.0}).ok());
  EXPECT_EQ(table.column(0).CodeAt(0), 1);
}

TEST(TableTest, CategoricalCodeOutOfRange) {
  Table table(MakeTestSchema());
  Status st = table.AppendRow({int64_t{2}, int64_t{40}, 3.0});
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(TableTest, UnknownCategoryFails) {
  Table table(MakeTestSchema());
  Status st = table.AppendRow({std::string("Robot"), int64_t{40}, 3.0});
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(TableTest, WrongArityFails) {
  Table table(MakeTestSchema());
  Status st = table.AppendRow({std::string("Male"), int64_t{40}});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, FailedAppendLeavesTableUnchanged) {
  Table table(MakeTestSchema());
  ASSERT_TRUE(table.AppendRow({std::string("Male"), int64_t{30}, 4.5}).ok());
  // Third cell is a bad categorical for column 0 only after the first two
  // columns would have been appended — conversion must be all-or-nothing.
  Status st = table.AppendRow(
      {std::string("Male"), int64_t{30}, std::string("junk")});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.column(0).size(), 1u);
  EXPECT_EQ(table.column(1).size(), 1u);
  EXPECT_EQ(table.column(2).size(), 1u);
}

TEST(TableTest, StringCellsParseToNumerics) {
  Table table(MakeTestSchema());
  ASSERT_TRUE(table
                  .AppendRow({std::string("Female"), std::string("64"),
                              std::string("1.25")})
                  .ok());
  EXPECT_EQ(table.column(1).IntAt(0), 64);
  EXPECT_DOUBLE_EQ(table.column(2).RealAt(0), 1.25);
}

// ParseCellText is the one text-to-value path: AppendRow's string cells and
// ReadCsv both go through it, so their values and errors agree.
TEST(TableTest, ParseCellTextConvertsAndNamesTheAttribute) {
  const Schema schema = MakeTestSchema();
  CellValue value;
  ASSERT_TRUE(ParseCellText(schema.attribute(0), "Female", &value).ok());
  EXPECT_EQ(value.integer, 1);
  ASSERT_TRUE(ParseCellText(schema.attribute(1), " 64\t", &value).ok());
  EXPECT_EQ(value.integer, 64);
  ASSERT_TRUE(ParseCellText(schema.attribute(2), "1.25", &value).ok());
  EXPECT_EQ(value.real, 1.25);

  const std::vector<std::pair<std::string, Status>> failures = {
      {" Male", Status::NotFound(
                    "category ' Male' not in attribute 'Gender'")},
      {"6x", Status::InvalidArgument(
                 "cannot parse '6x' as integer for attribute 'Age'")},
      {"", Status::InvalidArgument(
               "cannot parse '' as real for attribute 'Rating'")},
      {"-inf", Status::InvalidArgument(
                   "non-finite value for attribute 'Rating'")},
  };
  const size_t attribute_of[] = {0, 1, 2, 2};
  Table table(schema);
  for (size_t i = 0; i < failures.size(); ++i) {
    const auto& [text, want] = failures[i];
    const AttributeSpec& spec = schema.attribute(attribute_of[i]);
    EXPECT_EQ(ParseCellText(spec, text, &value), want);
    std::vector<Cell> row = {std::string("Male"), int64_t{30}, 2.5};
    row[attribute_of[i]] = text;
    EXPECT_EQ(table.AppendRow(row), want);
  }
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(TableTest, IntCellAcceptedForRealColumn) {
  Table table(MakeTestSchema());
  ASSERT_TRUE(table.AppendRow({std::string("Male"), int64_t{20}, int64_t{4}})
                  .ok());
  EXPECT_DOUBLE_EQ(table.column(2).RealAt(0), 4.0);
}

TEST(TableTest, RealCellRejectedForIntColumn) {
  Table table(MakeTestSchema());
  Status st = table.AppendRow({std::string("Male"), 20.5, 4.0});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, NonFiniteRealsRejected) {
  Table table(MakeTestSchema());
  EXPECT_EQ(table
                .AppendRow({std::string("Male"), int64_t{30},
                            std::numeric_limits<double>::quiet_NaN()})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(table
                   .AppendRow({std::string("Male"), int64_t{30},
                               std::numeric_limits<double>::infinity()})
                   .ok());
  EXPECT_FALSE(
      table.AppendRow({std::string("Male"), int64_t{30}, std::string("nan")})
          .ok());
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(TableTest, GroupIndexUsesBuckets) {
  Table table(MakeTestSchema());
  // Age [18,80] with 5 buckets of width 12.4: 18->0, 30->0, 31->1, 80->4.
  ASSERT_TRUE(table.AppendRow({std::string("Male"), int64_t{18}, 0.0}).ok());
  ASSERT_TRUE(table.AppendRow({std::string("Male"), int64_t{30}, 0.0}).ok());
  ASSERT_TRUE(table.AppendRow({std::string("Male"), int64_t{31}, 0.0}).ok());
  ASSERT_TRUE(table.AppendRow({std::string("Female"), int64_t{80}, 0.0}).ok());
  EXPECT_EQ(table.GroupIndex(0, 1), 0);
  EXPECT_EQ(table.GroupIndex(1, 1), 0);
  EXPECT_EQ(table.GroupIndex(2, 1), 1);
  EXPECT_EQ(table.GroupIndex(3, 1), 4);
  EXPECT_EQ(table.GroupIndex(0, 0), 0);
  EXPECT_EQ(table.GroupIndex(3, 0), 1);
}

/// `n` rows over MakeTestSchema whose numeric cells mix in-range values
/// with the range edges, values just outside, far outside and at the limits
/// of their type.
Table EdgeValueTable(size_t n) {
  const int64_t ints[] = {18, 30, 31, 80, 17, 81, 0, -1, 3000,
                          100'000'000'000, -100'000'000'000,
                          std::numeric_limits<int64_t>::max(),
                          std::numeric_limits<int64_t>::min()};
  const double reals[] = {0.0, 0.5, 2.5, 4.999, 5.0, -0.0, -1e-300,
                          5.0000001, 1e12, -1e12, 1e300,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::lowest()};
  Table table(MakeTestSchema());
  table.Reserve(n);
  Rng rng(n + 1);
  for (size_t row = 0; row < n; ++row) {
    const bool edge = rng.Bernoulli(0.5);
    const int64_t age = edge ? ints[rng.UniformIndex(std::size(ints))]
                             : rng.UniformInt(18, 80);
    const double rating = edge ? reals[rng.UniformIndex(std::size(reals))]
                               : rng.UniformDouble(0.0, 5.0);
    EXPECT_TRUE(table
                    .AppendRow({static_cast<int64_t>(rng.UniformIndex(2)),
                                age, rating})
                    .ok());
  }
  return table;
}

TEST(TableTest, GroupIndicesEqualsGroupIndexRowByRow) {
  for (size_t n : {0, 1, 4095, 4096, 4097, 10000}) {
    Table table = EdgeValueTable(n);
    // The whole table, then sub-ranges that start and end mid-block.
    std::vector<std::pair<size_t, size_t>> ranges = {{0, n}};
    for (size_t begin : {size_t{1}, size_t{2047}, size_t{4095},
                         size_t{4097}}) {
      if (begin <= n) ranges.push_back({begin, n});
      if (begin + 3000 <= n) ranges.push_back({begin, begin + 3000});
    }
    if (n > 0) ranges.push_back({n - 1, n});
    ranges.push_back({n, n});
    for (size_t attr = 0; attr < table.num_columns(); ++attr) {
      for (const auto& [begin, end] : ranges) {
        std::vector<int> want;
        for (size_t row = begin; row < end; ++row) {
          want.push_back(table.GroupIndex(row, attr));
        }
        // One sentinel past the end: the kernel writes nothing there.
        std::vector<int> got(end - begin + 1, -7);
        table.GroupIndices(attr, begin, end, got.data());
        EXPECT_EQ(got.back(), -7);
        got.pop_back();
        EXPECT_EQ(got, want) << "attr " << attr << " rows [" << begin << ", "
                             << end << ") of " << n;
      }
    }
  }
  // The far-outside values land on the edge groups.
  Table table(MakeTestSchema());
  ASSERT_TRUE(table.AppendRow({int64_t{0}, int64_t{100'000'000'000}, 1e300})
                  .ok());
  ASSERT_TRUE(table.AppendRow({int64_t{1}, int64_t{-100'000'000'000}, -1e12})
                  .ok());
  int groups[2];
  table.GroupIndices(1, 0, 2, groups);
  EXPECT_EQ(groups[0], 4);
  EXPECT_EQ(groups[1], 0);
  table.GroupIndices(2, 0, 2, groups);
  EXPECT_EQ(groups[0], 9);
  EXPECT_EQ(groups[1], 0);
}

TEST(TableTest, ValueAsDouble) {
  Table table(MakeTestSchema());
  ASSERT_TRUE(table.AppendRow({std::string("Female"), int64_t{44}, 3.5}).ok());
  EXPECT_DOUBLE_EQ(table.ValueAsDouble(0, 0), 1.0);  // Category code.
  EXPECT_DOUBLE_EQ(table.ValueAsDouble(0, 1), 44.0);
  EXPECT_DOUBLE_EQ(table.ValueAsDouble(0, 2), 3.5);
}

TEST(TableTest, CellToString) {
  Table table(MakeTestSchema());
  ASSERT_TRUE(table.AppendRow({std::string("Female"), int64_t{44}, 3.5}).ok());
  EXPECT_EQ(table.CellToString(0, 0), "Female");
  EXPECT_EQ(table.CellToString(0, 1), "44");
  EXPECT_EQ(table.CellToString(0, 2), "3.5000");
}

TEST(TableTest, ReserveDoesNotChangeContents) {
  Table table(MakeTestSchema());
  table.Reserve(100);
  EXPECT_EQ(table.num_rows(), 0u);
  ASSERT_TRUE(table.AppendRow({std::string("Male"), int64_t{20}, 1.0}).ok());
  EXPECT_EQ(table.num_rows(), 1u);
}

}  // namespace
}  // namespace fairrank
