// The three workloads and the metrics each run reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace e2ebench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Where a traced run writes its spans (JSON lines); "" = nowhere.
  std::string trace_path;
};

struct RunOutput {
  bool correct{false};
  Ledger ledger;
  std::vector<Metric> metrics;
};

[[nodiscard]] bool known_workload(const std::string& name);

/// Runs one workload. Untraced runs report the end-to-end metrics; traced
/// runs report the per-layer metrics.
[[nodiscard]] RunOutput run_workload(const RunArgs& args);

}  // namespace e2ebench
