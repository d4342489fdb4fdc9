#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace e2ebench {

void Ledger::record(const std::string& error, bool expected) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  if (expected) return;
  ++unexpected;
  if (errors.size() < 5) errors.push_back(error);
}

void Ledger::check(const std::string& error) {
  if (error.empty()) return;
  ++unexpected;
  if (errors.size() < 5) errors.push_back(error);
}

void Ledger::merge(const Ledger& other) {
  attempted += other.attempted;
  failed += other.failed;
  unexpected += other.unexpected;
  for (const std::string& e : other.errors) {
    if (errors.size() < 5) errors.push_back(e);
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

std::string result_json(bool correct, const Ledger& ledger,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted);
  out += ", \"failed\": " + std::to_string(ledger.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace e2ebench
