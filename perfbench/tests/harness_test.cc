// Tests of the benchmark's own machinery: the tail-percentile picker and
// the answer comparators every oracle check goes through.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

using rfid::Value;

TEST(TailPercentileTest, NeedsTenSamplesBeyond) {
  EXPECT_EQ(TailPercentileFor(0), 0);
  EXPECT_EQ(TailPercentileFor(39), 0);
  EXPECT_EQ(TailPercentileFor(40), 75);
  EXPECT_EQ(TailPercentileFor(99), 75);
  EXPECT_EQ(TailPercentileFor(100), 90);
  EXPECT_EQ(TailPercentileFor(199), 90);
  EXPECT_EQ(TailPercentileFor(200), 95);
  EXPECT_EQ(TailPercentileFor(999), 95);
  EXPECT_EQ(TailPercentileFor(1000), 99);
  EXPECT_EQ(TailPercentileFor(9999), 99);
  EXPECT_EQ(TailPercentileFor(10000), 99.9);
}

TEST(TailPercentileTest, PicksTheHighestThatQualifies) {
  const double candidates[] = {75, 90, 95, 99, 99.9};
  for (size_t n = 1; n <= 20000; ++n) {
    const double p = TailPercentileFor(n);
    // Samples strictly beyond the p-th percentile of n samples.
    auto beyond = [n](double q) {
      return static_cast<double>(n) * (100 - q) / 100 + 1e-9;
    };
    if (p == 0) {
      EXPECT_LT(beyond(75), 10) << n;
      continue;
    }
    EXPECT_GE(beyond(p), 10) << n;
    for (double q : candidates) {
      if (q > p) {
        EXPECT_LT(beyond(q), 10) << n << " could use p" << q;
      }
    }
  }
}

TEST(RoundsForTest, FillsTheRunAndKeepsATail) {
  EXPECT_EQ(RoundsFor(20, 7.0, 18), 3);   // ceil(20 / 7)
  EXPECT_EQ(RoundsFor(20, 2.5, 8), 8);
  EXPECT_EQ(RoundsFor(5, 7.0, 18), 3);    // 40 queries need 3 rounds
  EXPECT_EQ(RoundsFor(1, 2.5, 100), 1);
  for (size_t per_round : {1, 7, 8, 18, 39, 40, 100}) {
    const int rounds = RoundsFor(1, 100.0, per_round);
    EXPECT_GT(TailPercentileFor(static_cast<size_t>(rounds) * per_round), 0)
        << per_round;
  }
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({3, 1, 2}, 50), 2);
  EXPECT_EQ(Percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_EQ(Percentile({1, 2, 3, 4, 5}, 100), 5);
}

// One result of each oracle's shape: an analytic aggregate (q1), a
// lookup answer (rtime, biz_loc, reader) and a table's rows as compared
// after recovery.
std::vector<std::vector<Row>> Shapes() {
  std::vector<Row> aggregate = {
      {Value::String("dock"), Value::String("shelf"), Value::Double(1.5e9)},
      {Value::String("dock"), Value::String("truck"), Value::Double(2.25e9)},
      {Value::String("shelf"), Value::String("exit"), Value::Double(7e8)},
  };
  std::vector<Row> lookup = {
      {Value::Timestamp(100), Value::String("loc-1"), Value::String("r-1")},
      {Value::Timestamp(200), Value::String("loc-2"), Value::String("r-2")},
      {Value::Timestamp(200), Value::String("loc-3"), Value::String("r-2")},
      {Value::Timestamp(300), Value::String("loc-3"), Value::String("r-3")},
  };
  std::vector<Row> table = {
      {Value::String("epc-1"), Value::Timestamp(1), Value::Int64(4),
       Value::Null()},
      {Value::String("epc-2"), Value::Timestamp(2), Value::Int64(5),
       Value::Bool(true)},
      {Value::String("epc-2"), Value::Timestamp(2), Value::Int64(5),
       Value::Bool(true)},
  };
  return {aggregate, lookup, table};
}

TEST(DiffRowSetsTest, AcceptsTheSameRowsInAnyOrder) {
  for (std::vector<Row> rows : Shapes()) {
    std::vector<Row> reversed(rows.rbegin(), rows.rend());
    EXPECT_EQ(DiffRowSets(rows, reversed), "");
  }
}

TEST(DiffRowSetsTest, FlagsOneAlteredValueAnywhere) {
  for (const std::vector<Row>& rows : Shapes()) {
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t c = 0; c < rows[r].size(); ++c) {
        std::vector<Row> altered = rows;
        Value& v = altered[r][c];
        switch (v.type()) {
          case rfid::DataType::kString:
            v = Value::String(v.string_value() + "x");
            break;
          case rfid::DataType::kDouble:
            v = Value::Double(v.double_value() * (1 + 1e-6));
            break;
          case rfid::DataType::kTimestamp:
            v = Value::Timestamp(v.timestamp_value() + 1);
            break;
          case rfid::DataType::kInt64:
            v = Value::Int64(v.int64_value() + 1);
            break;
          case rfid::DataType::kBool:
            v = Value::Bool(!v.bool_value());
            break;
          default:
            v = Value::Int64(0);
            break;
        }
        EXPECT_NE(DiffRowSets(rows, altered), "") << "row " << r << " col " << c;
      }
    }
  }
}

TEST(DiffRowSetsTest, FlagsOneMissingOrExtraRow) {
  for (const std::vector<Row>& rows : Shapes()) {
    for (size_t r = 0; r < rows.size(); ++r) {
      std::vector<Row> missing = rows;
      missing.erase(missing.begin() + static_cast<std::ptrdiff_t>(r));
      EXPECT_NE(DiffRowSets(rows, missing), "") << r;
      std::vector<Row> extra = rows;
      extra.push_back(rows[r]);
      EXPECT_NE(DiffRowSets(rows, extra), "") << r;
    }
  }
}

TEST(DiffRowSetsTest, ToleratesSummationOrderInDoubles) {
  std::vector<Row> a = {{Value::Double(0.1 + 0.2 + 0.3)}};
  std::vector<Row> b = {{Value::Double(0.3 + 0.2 + 0.1)}};
  EXPECT_EQ(DiffRowSets(a, b), "");
  std::vector<Row> c = {{Value::Int64(1)}};
  std::vector<Row> d = {{Value::Double(1.0)}};
  EXPECT_NE(DiffRowSets(c, d), "");
}

TEST(DiffOrderedRowsTest, FlagsOutOfOrderAnswers) {
  const std::vector<Row> lookup = Shapes()[1];
  EXPECT_EQ(DiffOrderedRows(lookup, lookup, 0), "");
  // Rows tied on rtime may come back in either order.
  std::vector<Row> tie_swapped = lookup;
  std::swap(tie_swapped[1], tie_swapped[2]);
  EXPECT_EQ(DiffOrderedRows(lookup, tie_swapped, 0), "");
  std::vector<Row> reversed(lookup.rbegin(), lookup.rend());
  EXPECT_NE(DiffOrderedRows(lookup, reversed, 0), "");
  std::vector<Row> missing(lookup.begin(), lookup.end() - 1);
  EXPECT_NE(DiffOrderedRows(lookup, missing, 0), "");
}

}  // namespace
}  // namespace perfbench
