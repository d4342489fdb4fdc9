#include "core/correlation.h"

#include <cmath>
#include <stdexcept>

#include "core/stats.h"

namespace usaas::core {

namespace {

void require_paired(std::span<const double> xs, std::span<const double> ys,
                    const char* what) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument(std::string{what} + ": size mismatch");
  }
  if (xs.size() < 2) {
    throw std::invalid_argument(std::string{what} + ": need >= 2 points");
  }
}

}  // namespace

double covariance(std::span<const double> xs, std::span<const double> ys) {
  require_paired(xs, ys, "covariance");
  const double mx = mean(xs);
  const double my = mean(ys);
  double acc = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    acc += (xs[i] - mx) * (ys[i] - my);
  }
  return acc / static_cast<double>(xs.size());
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  require_paired(xs, ys, "pearson");
  const double sx = stddev(xs);
  const double sy = stddev(ys);
  if (sx == 0.0 || sy == 0.0) return 0.0;
  return covariance(xs, ys) / (sx * sy);
}

double spearman(std::span<const double> xs, std::span<const double> ys) {
  require_paired(xs, ys, "spearman");
  return spearman_with_ranks(xs, ranks(ys));
}

double spearman_with_ranks(std::span<const double> xs,
                           std::span<const double> y_ranks) {
  require_paired(xs, y_ranks, "spearman");
  return pearson(ranks(xs), y_ranks);
}

double kendall_tau(std::span<const double> xs, std::span<const double> ys) {
  require_paired(xs, ys, "kendall_tau");
  const std::size_t n = xs.size();
  std::int64_t concordant = 0;
  std::int64_t discordant = 0;
  std::int64_t ties_x = 0;
  std::int64_t ties_y = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = xs[i] - xs[j];
      const double dy = ys[i] - ys[j];
      if (dx == 0.0 && dy == 0.0) continue;  // tied in both: excluded by tau-b
      if (dx == 0.0) {
        ++ties_x;
      } else if (dy == 0.0) {
        ++ties_y;
      } else if ((dx > 0.0) == (dy > 0.0)) {
        ++concordant;
      } else {
        ++discordant;
      }
    }
  }
  const double denom =
      std::sqrt(static_cast<double>(concordant + discordant + ties_x)) *
      std::sqrt(static_cast<double>(concordant + discordant + ties_y));
  if (denom == 0.0) return 0.0;
  return static_cast<double>(concordant - discordant) / denom;
}

}  // namespace usaas::core
