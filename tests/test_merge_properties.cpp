// Merge properties of the per-bin accumulators: core::Binner1D,
// core::Grid2D and ShardSummary.
//
// A seeded stream of observations is split into random shard partitions
// (each partition keeps its rows in stream order, and one is always
// empty), every partition is folded on its own, and the partials are
// merged in a random order and tree shape. Against one sequential fold of the whole stream:
//   * every count is exact;
//   * with integer-valued y every mean and sum is bit-identical (integer
//     sums below 2^53 are exact under any association);
//   * otherwise every mean agrees within 1e-12 relative.
//
// Registered under the `sanitize` ctest label (no threads; it is there for
// the address + undefined-behaviour build).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "confsim/call.h"
#include "core/histogram.h"
#include "core/rng.h"
#include "usaas/shard_summary.h"

namespace usaas::service {
namespace {

constexpr std::uint64_t kSeeds[] = {11, 12, 13, 14, 15, 16, 17, 18};
constexpr std::size_t kRows = 2000;
constexpr double kRelTol = 1e-12;

/// Partition index in [0, k) for each of `n` rows, k drawn in [1, 16].
/// Callers fold into k + 1 partials, so one shard always stays empty.
std::vector<std::size_t> random_partition(core::Rng& rng, std::size_t n,
                                          std::size_t* k) {
  *k = static_cast<std::size_t>(rng.uniform_int(1, 16));
  std::vector<std::size_t> part(n);
  for (std::size_t& p : part) {
    p = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(*k) - 1));
  }
  return part;
}

/// Merges `parts` down to one: repeatedly merges a random survivor into
/// another random survivor, so both the order and the tree shape vary.
template <typename T>
T merge_randomly(std::vector<T> parts, core::Rng& rng) {
  while (parts.size() > 1) {
    const auto last = static_cast<std::int64_t>(parts.size()) - 1;
    const auto dst = static_cast<std::size_t>(rng.uniform_int(0, last));
    auto src = static_cast<std::size_t>(rng.uniform_int(0, last - 1));
    if (src >= dst) ++src;
    parts[dst].merge(parts[src]);
    parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(src));
  }
  return parts.front();
}

void expect_value(double got, double want, bool exact, const char* what) {
  if (exact) {
    EXPECT_EQ(got, want) << what;
  } else {
    EXPECT_NEAR(got, want, kRelTol * std::fabs(want)) << what;
  }
}

void expect_binner(const core::Binner1D& got, const core::Binner1D& want,
                   bool exact) {
  EXPECT_EQ(got.total_added(), want.total_added());
  const auto gb = got.bins();
  const auto wb = want.bins();
  ASSERT_EQ(gb.size(), wb.size());
  for (std::size_t i = 0; i < wb.size(); ++i) {
    EXPECT_EQ(gb[i].lo, wb[i].lo);
    EXPECT_EQ(gb[i].count, wb[i].count);
    expect_value(gb[i].mean_y, wb[i].mean_y, exact, "bin mean");
  }
}

void expect_grid(const core::Grid2D& got, const core::Grid2D& want,
                 bool exact) {
  const auto gc = got.cells();
  const auto wc = want.cells();
  ASSERT_EQ(gc.size(), wc.size());
  for (std::size_t i = 0; i < wc.size(); ++i) {
    EXPECT_EQ(gc[i].x_center, wc[i].x_center);
    EXPECT_EQ(gc[i].y_center, wc[i].y_center);
    EXPECT_EQ(gc[i].count, wc[i].count);
    expect_value(gc[i].mean_value, wc[i].mean_value, exact, "cell mean");
  }
}

/// y in [0, 100]: an integer, or a real with a fractional part.
double draw_y(core::Rng& rng, bool integer_valued) {
  return integer_valued ? static_cast<double>(rng.uniform_int(0, 100))
                        : rng.uniform(0.0, 100.0);
}

class MergeProperty : public ::testing::TestWithParam<bool> {};

TEST_P(MergeProperty, Binner1DRandomPartitionsAndOrders) {
  const bool integer_valued = GetParam();
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    core::Rng rng{seed};
    // x reaches past both edges so the out-of-range path is exercised.
    std::vector<double> xs(kRows);
    std::vector<double> ys(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
      xs[r] = rng.uniform(-10.0, 110.0);
      ys[r] = draw_y(rng, integer_valued);
    }
    const core::Binner1D layout{0.0, 100.0, 10};
    core::Binner1D whole = layout;
    for (std::size_t r = 0; r < kRows; ++r) whole.add(xs[r], ys[r]);

    std::size_t k = 0;
    const auto part = random_partition(rng, kRows, &k);
    std::vector<core::Binner1D> parts(k + 1, layout);
    for (std::size_t r = 0; r < kRows; ++r) parts[part[r]].add(xs[r], ys[r]);
    expect_binner(merge_randomly(std::move(parts), rng), whole,
                  integer_valued);
  }
}

TEST_P(MergeProperty, Grid2DRandomPartitionsAndOrders) {
  const bool integer_valued = GetParam();
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    core::Rng rng{seed};
    std::vector<std::tuple<double, double, double>> obs(kRows);
    for (auto& [x, y, v] : obs) {
      x = rng.uniform(-20.0, 340.0);
      y = rng.uniform(-0.2, 3.6);
      v = draw_y(rng, integer_valued);
    }
    const core::Grid2D layout{0.0, 320.0, 8, 0.0, 3.4, 8};
    core::Grid2D whole = layout;
    for (const auto& [x, y, v] : obs) whole.add(x, y, v);

    std::size_t k = 0;
    const auto part = random_partition(rng, kRows, &k);
    std::vector<core::Grid2D> parts(k + 1, layout);
    for (std::size_t r = 0; r < kRows; ++r) {
      const auto& [x, y, v] = obs[r];
      parts[part[r]].add(x, y, v);
    }
    expect_grid(merge_randomly(std::move(parts), rng), whole, integer_valued);
  }
}

std::vector<confsim::ParticipantRecord> random_records(core::Rng& rng,
                                                       bool integer_valued) {
  const auto agg = [](double v) {
    return netsim::MetricAggregate{v, v, v};
  };
  std::vector<confsim::ParticipantRecord> records(kRows);
  for (confsim::ParticipantRecord& rec : records) {
    rec.access = static_cast<netsim::AccessTechnology>(
        rng.uniform_int(0, netsim::kNumAccessTechnologies - 1));
    rec.network.latency_ms = agg(rng.uniform(0.0, 330.0));
    rec.network.loss_pct = agg(rng.uniform(0.0, 11.0));
    rec.network.jitter_ms = agg(rng.uniform(0.0, 90.0));
    rec.network.bandwidth_mbps = agg(rng.uniform(0.0, 210.0));
    rec.presence_pct = draw_y(rng, integer_valued);
    rec.cam_on_pct = draw_y(rng, integer_valued);
    rec.mic_on_pct = draw_y(rng, integer_valued);
    if (rng.bernoulli(0.2)) {
      rec.mos = core::Mos{integer_valued
                              ? static_cast<double>(rng.uniform_int(1, 5))
                              : rng.uniform(1.0, 5.0)};
    }
  }
  return records;
}

void expect_tally(const SummaryTally& got, const SummaryTally& want,
                  bool exact) {
  EXPECT_EQ(got.sessions, want.sessions);
  EXPECT_EQ(got.rated, want.rated);
  expect_value(got.observed_mos_sum, want.observed_mos_sum, exact,
               "observed MOS sum");
}

TEST_P(MergeProperty, ShardSummaryRandomPartitionsAndOrders) {
  const bool integer_valued = GetParam();
  const SummaryConfig cfg;
  std::vector<std::optional<netsim::AccessTechnology>> accesses{std::nullopt};
  for (int a = 0; a < netsim::kNumAccessTechnologies; ++a) {
    accesses.push_back(static_cast<netsim::AccessTechnology>(a));
  }
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    core::Rng rng{seed};
    const auto records = random_records(rng, integer_valued);
    ShardSummary whole{cfg};
    for (const auto& rec : records) whole.fold(rec);

    std::size_t k = 0;
    const auto part = random_partition(rng, kRows, &k);
    std::vector<ShardSummary> parts(k + 1, ShardSummary{cfg});
    for (std::size_t r = 0; r < kRows; ++r) parts[part[r]].fold(records[r]);
    const ShardSummary merged = merge_randomly(std::move(parts), rng);

    EXPECT_EQ(merged.sessions(), whole.sessions());
    EXPECT_EQ(merged.memory_bytes(), whole.memory_bytes());
    for (const auto& access : accesses) {
      expect_tally(merged.tally(access), whole.tally(access), integer_valued);
    }
    for (std::size_t axis = 0; axis < cfg.axes.size(); ++axis) {
      const SummaryAxis& ax = cfg.axes[axis];
      for (int e = 0; e < kNumEngagementMetrics; ++e) {
        const auto eng = static_cast<EngagementMetric>(e);
        for (const auto& access : accesses) {
          core::Binner1D got{ax.lo, ax.hi, ax.bins};
          core::Binner1D want{ax.lo, ax.hi, ax.bins};
          merged.add_curve_to(got, axis, eng, access);
          whole.add_curve_to(want, axis, eng, access);
          expect_binner(got, want, integer_valued);
        }
      }
    }
    for (int e = 0; e < kNumEngagementMetrics; ++e) {
      const core::Grid2D layout{0.0, cfg.grid.latency_hi_ms, cfg.grid.lat_bins,
                                0.0, cfg.grid.loss_hi_pct, cfg.grid.loss_bins};
      core::Grid2D got = layout;
      core::Grid2D want = layout;
      ASSERT_TRUE(merged.add_grid_to(got, static_cast<EngagementMetric>(e),
                                     cfg.grid));
      ASSERT_TRUE(whole.add_grid_to(want, static_cast<EngagementMetric>(e),
                                    cfg.grid));
      expect_grid(got, want, integer_valued);
    }
    // Rated samples concatenate in merge order: the same multiset.
    const auto sorted = [](std::span<const RatedSample> rs) {
      std::vector<std::tuple<double, double, double, double, int>> out;
      for (const RatedSample& s : rs) {
        out.emplace_back(s.mos, s.engagement[0], s.engagement[1],
                         s.engagement[2], s.access);
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(sorted(merged.rated()), sorted(whole.rated()));
  }
}

INSTANTIATE_TEST_SUITE_P(Values, MergeProperty, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "IntegerValued" : "RealValued";
                         });

}  // namespace
}  // namespace usaas::service
