// Metric bookkeeping and the one-line JSON result.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace e2ebench {

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// Operations attempted and failed. A failure the named fault explains
/// (an expected failure) leaves the run correct; any other does not.
struct Ledger {
  std::size_t attempted{0};
  std::size_t failed{0};
  std::size_t unexpected{0};
  std::vector<std::string> errors;  // first few unexpected failures

  /// One operation attempted; `error` empty when it succeeded.
  void record(const std::string& error, bool expected = false);
  /// A check on the run itself (set-up, the listener's ledger) rather
  /// than an operation: a failure makes the run incorrect without
  /// changing the operation counts.
  void check(const std::string& error);
  void merge(const Ledger& other);
};

/// Nearest-rank quantile of an unsorted sample (q in [0, 1]); 0 if empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(bool correct, const Ledger& ledger,
                                      const std::vector<Metric>& metrics);

}  // namespace e2ebench
