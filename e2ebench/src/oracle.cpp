#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace e2ebench {

namespace service = usaas::service;

namespace {

/// The wire prints answers with %.6g; allow that rounding.
constexpr double kWireRel = 1e-5;
/// In-process answers differ from a brute-force sum only in summation
/// order (the service merges per-shard partials).
constexpr double kSumRel = 1e-9;

bool close(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string mismatch(const char* field, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: got %.17g, want %.17g", field, got,
                want);
  return buf;
}

struct DayRange {
  int first{0};
  int last{-1};  // inclusive; empty when last < first
};

DayRange days_of(const Query& q) {
  return {std::max(0, day_index(q.first)),
          std::min(kDaysInYear - 1, day_index(q.last))};
}

std::vector<double> average_ranks(const std::vector<double>& v) {
  std::vector<std::size_t> order(v.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  std::vector<double> rank(v.size());
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i;
    while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]]) ++j;
    const double r = 0.5 * static_cast<double>(i + j) + 1.0;
    for (std::size_t k = i; k <= j; ++k) rank[order[k]] = r;
    i = j + 1;
  }
  return rank;
}

}  // namespace

double spearman(const std::vector<double>& x, const std::vector<double>& y) {
  const std::vector<double> rx = average_ranks(x);
  const std::vector<double> ry = average_ranks(y);
  const double n = static_cast<double>(rx.size());
  const double mx = std::accumulate(rx.begin(), rx.end(), 0.0) / n;
  const double my = std::accumulate(ry.begin(), ry.end(), 0.0) / n;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    sxy += (rx[i] - mx) * (ry[i] - my);
    sxx += (rx[i] - mx) * (rx[i] - mx);
    syy += (ry[i] - my) * (ry[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::string check_wire(const WireAnswer& got, const ExpectedCounts& want,
                       bool predicted_expected) {
  if (got.status != 200) return "status " + std::to_string(got.status);
  if (!got.parsed) return "unparseable answer";
  if (got.outcome != "admitted" && got.outcome != "degraded") {
    return "outcome " + got.outcome;
  }
  if (got.sessions != want.sessions) {
    return mismatch("sessions", static_cast<double>(got.sessions),
                    static_cast<double>(want.sessions));
  }
  if (got.rated_sessions != want.rated) {
    return mismatch("rated_sessions", static_cast<double>(got.rated_sessions),
                    static_cast<double>(want.rated));
  }
  if (got.posts != want.posts) {
    return mismatch("posts", static_cast<double>(got.posts),
                    static_cast<double>(want.posts));
  }
  if (got.observed_mean_mos.has_value() != want.observed_mean_mos.has_value()) {
    return "observed_mean_mos presence";
  }
  if (want.observed_mean_mos &&
      !close(*got.observed_mean_mos, *want.observed_mean_mos, kWireRel)) {
    return mismatch("observed_mean_mos", *got.observed_mean_mos,
                    *want.observed_mean_mos);
  }
  if (!close(got.strong_positive_share, want.strong_positive_share,
             kWireRel)) {
    return mismatch("strong_positive_share", got.strong_positive_share,
                    want.strong_positive_share);
  }
  if (got.predicted_mean_mos) {
    if (!(*got.predicted_mean_mos >= 1.0 && *got.predicted_mean_mos <= 5.0)) {
      return mismatch("predicted_mean_mos outside [1, 5]",
                      *got.predicted_mean_mos, 3.0);
    }
  } else if (predicted_expected && want.sessions > 0) {
    return "predicted_mean_mos missing";
  }
  return {};
}

CountOracle::CountOracle(std::vector<SessionFacts> sessions,
                         std::vector<PostFacts> posts)
    : sessions_{std::move(sessions)},
      posts_{std::move(posts)},
      cells_(static_cast<std::size_t>(kDaysInYear) * kPlatforms * kAccess),
      post_days_(kDaysInYear) {}

void CountOracle::advance_to(std::size_t sessions, std::size_t posts) {
  for (; sessions_seen_ < sessions; ++sessions_seen_) {
    const SessionFacts& s = sessions_[sessions_seen_];
    SessionCell& c = cells_[cell(s.day, s.platform, s.access)];
    ++c.sessions;
    if (s.rated) {
      ++c.rated;
      c.mos_sum += s.mos;
    }
  }
  for (; posts_seen_ < posts; ++posts_seen_) {
    const PostFacts& p = posts_[posts_seen_];
    PostDay& d = post_days_[static_cast<std::size_t>(p.day)];
    ++d.posts;
    d.strong_pos += p.strong_positive ? 1 : 0;
    d.strong_neg += p.strong_negative ? 1 : 0;
  }
}

ExpectedCounts CountOracle::expect(const Query& q) const {
  ExpectedCounts out;
  const DayRange days = days_of(q);
  double mos_sum = 0.0;
  std::size_t strong_pos = 0;
  std::size_t strong_neg = 0;
  for (int d = days.first; d <= days.last; ++d) {
    for (int p = 0; p < kPlatforms; ++p) {
      if (q.platform && static_cast<int>(*q.platform) != p) continue;
      for (int a = 0; a < kAccess; ++a) {
        if (q.access && static_cast<int>(*q.access) != a) continue;
        const SessionCell& c = cells_[cell(d, p, a)];
        out.sessions += c.sessions;
        out.rated += c.rated;
        mos_sum += c.mos_sum;
      }
    }
    const PostDay& pd = post_days_[static_cast<std::size_t>(d)];
    out.posts += pd.posts;
    strong_pos += pd.strong_pos;
    strong_neg += pd.strong_neg;
  }
  if (out.rated > 0) {
    out.observed_mean_mos = mos_sum / static_cast<double>(out.rated);
  }
  if (strong_pos + strong_neg > 0) {
    out.strong_positive_share = static_cast<double>(strong_pos) /
                                static_cast<double>(strong_pos + strong_neg);
  }
  return out;
}

namespace {

/// Stable counting sort of records by day; `first` gets the day offsets.
template <typename Facts>
std::vector<Facts> by_day(const std::vector<Facts>& in,
                          std::vector<std::size_t>& first) {
  first.assign(kDaysInYear + 1, 0);
  for (const Facts& f : in) ++first[static_cast<std::size_t>(f.day) + 1];
  for (int d = 0; d < kDaysInYear; ++d) {
    first[static_cast<std::size_t>(d) + 1] += first[static_cast<std::size_t>(d)];
  }
  std::vector<Facts> out(in.size());
  std::vector<std::size_t> cursor(first.begin(), first.end() - 1);
  for (const Facts& f : in) out[cursor[static_cast<std::size_t>(f.day)]++] = f;
  return out;
}

/// The [begin, end) slice of day-sorted records falling in `days`.
std::pair<std::size_t, std::size_t> span_of(const std::vector<std::size_t>& first,
                                            DayRange days) {
  if (days.first > days.last) return {0, 0};
  return {first[static_cast<std::size_t>(days.first)],
          first[static_cast<std::size_t>(days.last) + 1]};
}

}  // namespace

InsightOracle::InsightOracle(const Corpus& corpus)
    : sessions_{by_day(corpus.sessions, session_first_)},
      posts_{by_day(corpus.post_facts, post_first_)} {}

ExpectedInsight InsightOracle::expect(const Query& q) const {
  ExpectedInsight out;
  const DayRange days = days_of(q);
  const auto metric = static_cast<std::size_t>(q.metric);
  const double width = (q.metric_hi - q.metric_lo) / static_cast<double>(q.bins);
  std::array<std::vector<double>, 3> sum_y;
  std::vector<std::size_t> bin_count(q.bins, 0);
  for (auto& s : sum_y) s.assign(q.bins, 0.0);
  std::array<std::vector<double>, 3> rated_eng;
  std::vector<double> rated_mos;
  double mos_sum = 0.0;
  const auto [s_begin, s_end] = span_of(session_first_, days);
  for (std::size_t i = s_begin; i < s_end; ++i) {
    const SessionFacts& s = sessions_[i];
    if (q.platform && static_cast<int>(*q.platform) != s.platform) continue;
    if (q.access && static_cast<int>(*q.access) != s.access) continue;
    ++out.counts.sessions;
    if (s.rated) {
      ++out.counts.rated;
      mos_sum += s.mos;
      rated_mos.push_back(s.mos);
      for (std::size_t m = 0; m < 3; ++m) rated_eng[m].push_back(s.engagement[m]);
    }
    const double x = s.metric[metric];
    if (x < q.metric_lo || x >= q.metric_hi) continue;
    const std::size_t bin = std::min(
        static_cast<std::size_t>((x - q.metric_lo) / width), q.bins - 1);
    ++bin_count[bin];
    for (std::size_t m = 0; m < 3; ++m) sum_y[m][bin] += s.engagement[m];
  }
  if (out.counts.rated > 0) {
    out.counts.observed_mean_mos =
        mos_sum / static_cast<double>(out.counts.rated);
  }
  for (std::size_t m = 0; m < 3; ++m) {
    for (std::size_t b = 0; b < q.bins; ++b) {
      if (bin_count[b] == 0) continue;
      const double lo = q.metric_lo + width * static_cast<double>(b);
      out.curves[m].push_back({(lo + (lo + width)) / 2.0,
                               sum_y[m][b] / static_cast<double>(bin_count[b]),
                               bin_count[b]});
    }
    if (rated_mos.size() >= 50) out.mos_spearman[m] = spearman(rated_eng[m], rated_mos);
  }

  // Social side: counts, the strong-score share, and outage-keyword days
  // over the whole query window (days outside the corpus count as zero).
  const auto window_days =
      static_cast<std::size_t>(q.first.days_until(q.last) + 1);
  const int offset = day_index(q.first);
  std::vector<double> hits(window_days, 0.0);
  std::size_t strong_pos = 0;
  std::size_t strong_neg = 0;
  const auto [p_begin, p_end] = span_of(post_first_, days);
  for (std::size_t i = p_begin; i < p_end; ++i) {
    const PostFacts& p = posts_[i];
    ++out.counts.posts;
    strong_pos += p.strong_positive ? 1 : 0;
    strong_neg += p.strong_negative ? 1 : 0;
    if (p.keyword_hits > 0 && p.negative_enough) {
      hits[static_cast<std::size_t>(p.day - offset)] +=
          static_cast<double>(p.keyword_hits);
    }
  }
  if (strong_pos + strong_neg > 0) {
    out.counts.strong_positive_share =
        static_cast<double>(strong_pos) /
        static_cast<double>(strong_pos + strong_neg);
  }
  double total = 0.0;
  for (const double h : hits) {
    total += h;
    out.outage_mention_days += h > 0.0 ? 1 : 0;
  }
  const double mean = total / static_cast<double>(window_days);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (mean > 0.0 && hits[i] > 3.0 * mean && hits[i] >= 5.0) {
      out.outage_alert_days.push_back(q.first.plus_days(static_cast<std::int64_t>(i)));
    }
  }
  return out;
}

InsightVerdict check_insight(const service::Insight& got,
                             const ExpectedInsight& want) {
  std::string other;
  const auto fail = [&other](std::string what) {
    if (other.empty()) other = std::move(what);
  };
  if (got.error != service::QueryError::kNone) fail("query error");
  const ExpectedCounts& c = want.counts;
  if (got.sessions != c.sessions) {
    fail(mismatch("sessions", static_cast<double>(got.sessions),
                  static_cast<double>(c.sessions)));
  }
  if (got.rated_sessions != c.rated) {
    fail(mismatch("rated_sessions", static_cast<double>(got.rated_sessions),
                  static_cast<double>(c.rated)));
  }
  if (got.posts != c.posts) {
    fail(mismatch("posts", static_cast<double>(got.posts),
                  static_cast<double>(c.posts)));
  }
  if (got.observed_mean_mos.has_value() != c.observed_mean_mos.has_value() ||
      (c.observed_mean_mos &&
       !close(*got.observed_mean_mos, *c.observed_mean_mos, kSumRel))) {
    fail("observed_mean_mos");
  }
  if (!close(got.strong_positive_share, c.strong_positive_share, kSumRel)) {
    fail(mismatch("strong_positive_share", got.strong_positive_share,
                  c.strong_positive_share));
  }
  if (got.predicted_mean_mos &&
      !(*got.predicted_mean_mos >= 1.0 && *got.predicted_mean_mos <= 5.0)) {
    fail(mismatch("predicted_mean_mos outside [1, 5]", *got.predicted_mean_mos,
                  3.0));
  }
  if (got.engagement.size() != 3) {
    fail("engagement curve count");
  } else {
    for (std::size_t m = 0; m < 3; ++m) {
      const auto& gp = got.engagement[m].points;
      const auto& wp = want.curves[m];
      if (gp.size() != wp.size()) {
        fail(mismatch("curve points", static_cast<double>(gp.size()),
                      static_cast<double>(wp.size())));
        continue;
      }
      for (std::size_t i = 0; i < gp.size(); ++i) {
        if (gp[i].sessions != wp[i].count ||
            !close(gp[i].metric_value, wp[i].center, kSumRel) ||
            !close(gp[i].engagement, wp[i].mean, kSumRel)) {
          fail(mismatch("curve point engagement", gp[i].engagement, wp[i].mean));
          break;
        }
      }
    }
  }
  if (got.outage_mention_days != want.outage_mention_days) {
    fail(mismatch("outage_mention_days",
                  static_cast<double>(got.outage_mention_days),
                  static_cast<double>(want.outage_mention_days)));
  }
  if (got.outage_alert_days != want.outage_alert_days) {
    fail(mismatch("outage_alert_days", static_cast<double>(got.outage_alert_days.size()),
                  static_cast<double>(want.outage_alert_days.size())));
  }

  std::string spearman_error;
  for (std::size_t m = 0; m < 3; ++m) {
    std::optional<double> g;
    for (const auto& [metric, value] : got.mos_spearman) {
      if (static_cast<std::size_t>(metric) == m) g = value;
    }
    const std::optional<double>& w = want.mos_spearman[m];
    if (g.has_value() != w.has_value() ||
        (g && std::fabs(*g - *w) > 1e-9)) {
      spearman_error = mismatch("mos_spearman", g.value_or(NAN), w.value_or(NAN));
      break;
    }
  }
  InsightVerdict v;
  if (!other.empty()) {
    v.error = other;
  } else if (!spearman_error.empty()) {
    v.error = spearman_error;
    v.only_spearman = true;
  }
  return v;
}

}  // namespace e2ebench
