// Correlation measures for signal-vs-signal analysis.
//
// §3 of the paper rests entirely on correlations: network metrics against
// engagement metrics, and engagement against MOS ("Presence shows the
// strongest correlation with MOS", Fig 4). We provide Pearson (linear),
// Spearman (rank/monotone) and Kendall tau-b, since the engagement response
// curves are monotone but decidedly non-linear (the Mic On plateau).
#pragma once

#include <span>

namespace usaas::core {

/// Pearson product-moment correlation in [-1, 1].
/// Requires xs.size() == ys.size() and size >= 2; returns 0 when either
/// variable has zero variance (a constant signal carries no correlation).
[[nodiscard]] double pearson(std::span<const double> xs,
                             std::span<const double> ys);

/// Spearman rank correlation (Pearson over average-tie ranks).
[[nodiscard]] double spearman(std::span<const double> xs,
                              std::span<const double> ys);

/// spearman(xs, ys) given `y_ranks` == ranks(ys): several xs correlated
/// against one ys rank ys once. Same arithmetic, bit-identical result.
[[nodiscard]] double spearman_with_ranks(std::span<const double> xs,
                                         std::span<const double> y_ranks);

/// Kendall tau-b (tie-corrected). O(n^2); fine for the binned-curve sizes
/// we feed it.
[[nodiscard]] double kendall_tau(std::span<const double> xs,
                                 std::span<const double> ys);

/// Covariance (population).
[[nodiscard]] double covariance(std::span<const double> xs,
                                std::span<const double> ys);

}  // namespace usaas::core
