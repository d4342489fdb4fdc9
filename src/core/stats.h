// Descriptive statistics used throughout the analysis pipelines.
//
// The Teams client aggregates its 5-second samples to per-session mean,
// median and P95 (§3.1); Fig 7 plots monthly medians and checks their
// stability under 90%/95% subsampling. These helpers implement exactly
// those aggregations plus the usual moments.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace usaas::core {

/// Arithmetic mean. Requires a non-empty input.
[[nodiscard]] double mean(std::span<const double> xs);

/// Population variance / standard deviation. Requires non-empty input.
[[nodiscard]] double variance(std::span<const double> xs);
[[nodiscard]] double stddev(std::span<const double> xs);

/// Median (linear-interpolated for even sizes). Requires non-empty input.
[[nodiscard]] double median(std::span<const double> xs);

/// Quantile q in [0, 1] with linear interpolation between order statistics
/// (type-7, the numpy default). Requires non-empty input.
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// P95, the paper's session-aggregation tail statistic.
[[nodiscard]] double p95(std::span<const double> xs);

[[nodiscard]] double min_value(std::span<const double> xs);
[[nodiscard]] double max_value(std::span<const double> xs);

/// Five-number-style summary of a sample, the unit the session aggregator
/// reports per network metric.
struct Summary {
  std::size_t count{0};
  double mean{0.0};
  double median{0.0};
  double p95{0.0};
  double min{0.0};
  double max{0.0};
  double stddev{0.0};
};

/// Computes a Summary; returns nullopt for an empty sample.
[[nodiscard]] std::optional<Summary> summarize(std::span<const double> xs);

/// Normalizes values to [0, 100] relative to the sample maximum, which is
/// how the paper plots engagement ("% of best achievable"). A zero max
/// yields all zeros.
[[nodiscard]] std::vector<double> normalize_to_percent_of_max(
    std::span<const double> xs);

/// Ranks with average tie-handling (1-based), the building block for
/// Spearman correlation.
[[nodiscard]] std::vector<double> ranks(std::span<const double> xs);

}  // namespace usaas::core
