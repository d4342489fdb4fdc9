// The answer oracle: what every Insight field should be, computed by
// brute force over the generated records and never by the service.
//
// CountOracle answers the wire fields (sessions, rated sessions, posts,
// observed mean MOS, strong-positive share) over any prefix of the push
// order, so answers stamped with an older corpus version are checked
// against exactly the records that version held. InsightOracle answers
// the whole Insight — engagement curves, per-metric MOS Spearman, outage
// days — over a fixed corpus, scanning every record in the window.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "inputs.h"
#include "wire.h"

namespace e2ebench {

struct ExpectedCounts {
  std::size_t sessions{0};
  std::size_t rated{0};
  std::optional<double> observed_mean_mos;
  std::size_t posts{0};
  double strong_positive_share{0.0};
};

/// Checks one wire answer. `predicted_expected` says whether the service
/// held a trained predictor (predicted_mean_mos must then be present for
/// a non-empty window). Returns "" when the answer is right, else what
/// was wrong.
[[nodiscard]] std::string check_wire(const WireAnswer& got,
                                     const ExpectedCounts& want,
                                     bool predicted_expected);

class CountOracle {
 public:
  CountOracle(std::vector<SessionFacts> sessions,
              std::vector<PostFacts> posts);

  /// Grows the visible prefix to the first `sessions` sessions and
  /// `posts` posts of the push order (never shrinks).
  void advance_to(std::size_t sessions, std::size_t posts);
  [[nodiscard]] ExpectedCounts expect(const Query& q) const;

 private:
  struct SessionCell {
    std::size_t sessions{0};
    std::size_t rated{0};
    double mos_sum{0.0};
  };
  struct PostDay {
    std::size_t posts{0};
    std::size_t strong_pos{0};
    std::size_t strong_neg{0};
  };
  static constexpr int kPlatforms = 4;
  static constexpr int kAccess = 7;
  [[nodiscard]] static std::size_t cell(int day, int platform, int access) {
    return (static_cast<std::size_t>(day) * kPlatforms +
            static_cast<std::size_t>(platform)) * kAccess +
           static_cast<std::size_t>(access);
  }

  std::vector<SessionFacts> sessions_;
  std::vector<PostFacts> posts_;
  std::size_t sessions_seen_{0};
  std::size_t posts_seen_{0};
  std::vector<SessionCell> cells_;
  std::vector<PostDay> post_days_;
};

struct ExpectedCurvePoint {
  double center{0.0};
  double mean{0.0};
  std::size_t count{0};
};

struct ExpectedInsight {
  ExpectedCounts counts;
  std::array<std::vector<ExpectedCurvePoint>, 3> curves;
  /// Spearman(engagement, MOS) over the window's rated sessions, present
  /// when at least 50 are rated (the service's minimum).
  std::array<std::optional<double>, 3> mos_spearman;
  std::size_t outage_mention_days{0};
  std::vector<Date> outage_alert_days;
};

/// Result of comparing a full Insight: what mismatched, and whether the
/// only mismatch was mos_spearman (the known window-blind correlation).
struct InsightVerdict {
  std::string error;
  bool only_spearman{false};
};

class InsightOracle {
 public:
  explicit InsightOracle(const Corpus& corpus);
  [[nodiscard]] ExpectedInsight expect(const Query& q) const;

 private:
  // Records sorted by day; day d spans [first[d], first[d + 1]). The
  // offsets are declared first: the constructor fills them while sorting.
  std::vector<std::size_t> session_first_;
  std::vector<std::size_t> post_first_;
  std::vector<SessionFacts> sessions_;
  std::vector<PostFacts> posts_;
};

[[nodiscard]] InsightVerdict check_insight(
    const usaas::service::Insight& got, const ExpectedInsight& want);

/// Spearman rank correlation with average ranks for ties.
[[nodiscard]] double spearman(const std::vector<double>& x,
                              const std::vector<double>& y);

}  // namespace e2ebench
