#include "core/histogram.h"

#include <gtest/gtest.h>

#include <limits>

namespace usaas::core {
namespace {

TEST(Binner1D, RejectsBadConstruction) {
  EXPECT_THROW(Binner1D(1.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(Binner1D(2.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(Binner1D(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Binner1D, MeansPerBin) {
  Binner1D b{0.0, 10.0, 2};
  b.add(1.0, 10.0);
  b.add(2.0, 20.0);
  b.add(7.0, 100.0);
  const auto bins = b.bins();
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_DOUBLE_EQ(bins[0].mean_y, 15.0);
  EXPECT_EQ(bins[0].count, 2u);
  EXPECT_DOUBLE_EQ(bins[0].center(), 2.5);
  EXPECT_DOUBLE_EQ(bins[1].mean_y, 100.0);
}

TEST(Binner1D, OutOfRangeIgnored) {
  Binner1D b{0.0, 10.0, 5};
  b.add(-0.1, 1.0);
  b.add(10.0, 1.0);  // hi edge is exclusive
  EXPECT_EQ(b.total_added(), 0u);
  EXPECT_TRUE(b.bins().empty());
}

TEST(Binner1D, NaNXIsIgnored) {
  // NaN fails every ordered compare, so a range check written as
  // `x < lo || x >= hi` let it through to an undefined float-to-index
  // cast (on x86-64 it landed in the top bin).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Binner1D b{0.0, 100.0, 10};
  EXPECT_EQ(b.bin_of(kNaN), b.bin_count());
  b.add(kNaN, 50.0);
  EXPECT_EQ(b.total_added(), 0u);
  EXPECT_TRUE(b.bins().empty());
}

TEST(Binner1D, MemoryBytesIsBinsTimesCell) {
  static_assert(sizeof(BinCell) == 16);
  const Binner1D b{0.0, 300.0, 10};
  EXPECT_EQ(b.memory_bytes(), 10 * sizeof(BinCell));
}

TEST(Binner1D, EmptyBinsOmitted) {
  Binner1D b{0.0, 10.0, 10};
  b.add(0.5, 1.0);
  b.add(9.5, 2.0);
  EXPECT_EQ(b.bins().size(), 2u);
  const auto curve = b.curve();
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0].first, 0.5);
  EXPECT_DOUBLE_EQ(curve[1].first, 9.5);
}

TEST(Binner1D, EdgeValueLandsInBin) {
  Binner1D b{0.0, 1.0, 4};
  b.add(0.25, 1.0);  // exactly on a boundary -> second bin
  const auto bins = b.bins();
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_DOUBLE_EQ(bins[0].lo, 0.25);
}

TEST(Grid2D, CellAggregation) {
  Grid2D g{0.0, 10.0, 2, 0.0, 10.0, 2};
  g.add(1.0, 1.0, 10.0);
  g.add(2.0, 2.0, 20.0);
  g.add(8.0, 8.0, 100.0);
  EXPECT_EQ(g.cell_count(0, 0), 2u);
  EXPECT_DOUBLE_EQ(*g.cell_mean(0, 0), 15.0);
  EXPECT_FALSE(g.cell_mean(1, 0).has_value());
  EXPECT_DOUBLE_EQ(*g.cell_mean(1, 1), 100.0);
}

TEST(Grid2D, MinMaxCellMeans) {
  Grid2D g{0.0, 4.0, 2, 0.0, 4.0, 2};
  EXPECT_FALSE(g.max_cell_mean().has_value());
  g.add(1.0, 1.0, 50.0);
  g.add(3.0, 3.0, 10.0);
  EXPECT_DOUBLE_EQ(*g.max_cell_mean(), 50.0);
  EXPECT_DOUBLE_EQ(*g.min_cell_mean(), 10.0);
}

TEST(Grid2D, CellsReportCenters) {
  Grid2D g{0.0, 4.0, 2, 0.0, 2.0, 1};
  g.add(0.5, 0.5, 7.0);
  const auto cells = g.cells();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_DOUBLE_EQ(cells[0].x_center, 1.0);
  EXPECT_DOUBLE_EQ(cells[0].y_center, 1.0);
  EXPECT_DOUBLE_EQ(cells[0].mean_value, 7.0);
}

TEST(Grid2D, OutOfRangeIgnored) {
  Grid2D g{0.0, 1.0, 1, 0.0, 1.0, 1};
  g.add(-0.5, 0.5, 1.0);
  g.add(0.5, 1.5, 1.0);
  EXPECT_EQ(g.cell_count(0, 0), 0u);
}

TEST(Grid2D, NaNCoordinatesIgnored) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Grid2D g{0.0, 4.0, 2, 0.0, 4.0, 2};
  g.add(kNaN, 1.0, 5.0);
  g.add(1.0, kNaN, 5.0);
  g.add(kNaN, kNaN, 5.0);
  EXPECT_TRUE(g.cells().empty());
  EXPECT_FALSE(g.max_cell_mean().has_value());
}

TEST(Grid2D, MemoryBytesIsCellsTimesCell) {
  const Grid2D g{0.0, 320.0, 8, 0.0, 3.4, 6};
  EXPECT_EQ(g.memory_bytes(), 8 * 6 * sizeof(BinCell));
}

TEST(Binner1D, MergeMatchesSequentialFill) {
  Binner1D whole{0.0, 10.0, 4};
  Binner1D left{0.0, 10.0, 4};
  Binner1D right{0.0, 10.0, 4};
  for (int i = 0; i < 40; ++i) {
    const double x = 0.25 * i;
    const double y = 3.0 * i - 17.0;
    whole.add(x, y);
    (i < 20 ? left : right).add(x, y);
  }
  left.merge(right);
  EXPECT_EQ(left.total_added(), whole.total_added());
  const auto merged_bins = left.bins();
  const auto whole_bins = whole.bins();
  ASSERT_EQ(merged_bins.size(), whole_bins.size());
  for (std::size_t i = 0; i < whole_bins.size(); ++i) {
    EXPECT_EQ(merged_bins[i].count, whole_bins[i].count);
    EXPECT_NEAR(merged_bins[i].mean_y, whole_bins[i].mean_y, 1e-12);
  }
}

TEST(Binner1D, MergeWithEmptySidesIsIdentity) {
  Binner1D filled{0.0, 1.0, 2};
  filled.add(0.1, 5.0);
  Binner1D empty{0.0, 1.0, 2};
  filled.merge(empty);            // empty right side
  empty.merge(filled);            // empty left side
  ASSERT_EQ(empty.bins().size(), 1u);
  EXPECT_DOUBLE_EQ(empty.bins()[0].mean_y, 5.0);
}

TEST(Binner1D, MergeRejectsLayoutMismatch) {
  Binner1D a{0.0, 10.0, 4};
  Binner1D bins_differ{0.0, 10.0, 5};
  Binner1D range_differs{0.0, 20.0, 4};
  EXPECT_THROW(a.merge(bins_differ), std::invalid_argument);
  EXPECT_THROW(a.merge(range_differs), std::invalid_argument);
}

TEST(Grid2D, MergeMatchesSequentialFill) {
  Grid2D whole{0.0, 4.0, 2, 0.0, 4.0, 2};
  Grid2D a{0.0, 4.0, 2, 0.0, 4.0, 2};
  Grid2D b{0.0, 4.0, 2, 0.0, 4.0, 2};
  for (int i = 0; i < 32; ++i) {
    const double x = (i % 8) * 0.5;
    const double y = (i % 4) * 1.0;
    const double v = 1.0 + i;
    whole.add(x, y, v);
    (i % 2 == 0 ? a : b).add(x, y, v);
  }
  a.merge(b);
  for (std::size_t yi = 0; yi < 2; ++yi) {
    for (std::size_t xi = 0; xi < 2; ++xi) {
      EXPECT_EQ(a.cell_count(xi, yi), whole.cell_count(xi, yi));
      ASSERT_EQ(a.cell_mean(xi, yi).has_value(),
                whole.cell_mean(xi, yi).has_value());
      if (whole.cell_mean(xi, yi)) {
        EXPECT_NEAR(*a.cell_mean(xi, yi), *whole.cell_mean(xi, yi), 1e-12);
      }
    }
  }
}

TEST(Grid2D, MergeRejectsLayoutMismatch) {
  Grid2D a{0.0, 4.0, 2, 0.0, 4.0, 2};
  Grid2D different{0.0, 4.0, 2, 0.0, 8.0, 2};
  EXPECT_THROW(a.merge(different), std::invalid_argument);
}

}  // namespace
}  // namespace usaas::core
