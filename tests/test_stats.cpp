#include "core/stats.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.h"

namespace usaas::core {
namespace {

TEST(Stats, MeanMedianBasics) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  const std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
}

TEST(Stats, EmptyInputsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW((void)mean(empty), std::invalid_argument);
  EXPECT_THROW((void)median(empty), std::invalid_argument);
  EXPECT_THROW((void)variance(empty), std::invalid_argument);
  EXPECT_THROW((void)quantile(empty, 0.5), std::invalid_argument);
}

TEST(Stats, QuantileInterpolation) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
  EXPECT_THROW((void)quantile(xs, 1.5), std::invalid_argument);
}

TEST(Stats, P95OfUniformSequence) {
  std::vector<double> xs;
  for (int i = 0; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  EXPECT_NEAR(p95(xs), 95.0, 1e-9);
}

TEST(Stats, VarianceAndStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_value(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 7.0);
}

TEST(Stats, SummarizeFields) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 100.0};
  const auto s = summarize(xs);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->count, 5u);
  EXPECT_DOUBLE_EQ(s->median, 3.0);
  EXPECT_DOUBLE_EQ(s->min, 1.0);
  EXPECT_DOUBLE_EQ(s->max, 100.0);
  EXPECT_FALSE(summarize(std::vector<double>{}).has_value());
}

TEST(Stats, NormalizeToPercentOfMax) {
  const std::vector<double> xs{2.0, 4.0, 1.0};
  const auto out = normalize_to_percent_of_max(xs);
  EXPECT_DOUBLE_EQ(out[0], 50.0);
  EXPECT_DOUBLE_EQ(out[1], 100.0);
  EXPECT_DOUBLE_EQ(out[2], 25.0);
  // Degenerate all-zero input stays zero (no division blow-up).
  const auto zeros = normalize_to_percent_of_max(std::vector<double>{0.0, 0.0});
  EXPECT_DOUBLE_EQ(zeros[0], 0.0);
}

TEST(Stats, RanksWithTies) {
  const std::vector<double> xs{10.0, 20.0, 20.0, 30.0};
  const auto r = ranks(xs);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, RanksAllEqual) {
  const std::vector<double> xs{5.0, 5.0, 5.0};
  const auto r = ranks(xs);
  for (const double v : r) EXPECT_DOUBLE_EQ(v, 2.0);
}

// Property: quantile is monotone in q.
class QuantileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMonotone, MonotoneInQ) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(0.0, 5.0));
  double prev = quantile(xs, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = quantile(xs, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotone, ::testing::Range(1, 11));

}  // namespace
}  // namespace usaas::core
