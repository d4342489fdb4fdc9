// Whole-Insight oracle: every field of QueryService::run's answer must
// equal a brute-force computation over the ingested sessions and posts
// filtered by the query — window, platform and access filter alike.
//
// The oracle never touches the engine, its shards or its summaries: it
// walks the raw (date, record) rows and the raw posts. Counts, the strong-
// score share, outage days and mos_spearman must match exactly; means
// (curve bins, observed and predicted MOS) within 1e-9 relative, because
// the engine folds them shard by shard. mos_spearman is compared with
// EXPECT_EQ against core::spearman over the same rated rows in the order
// the engine stores them (shard-key order under kMonthPlatform, ingest
// order under kSingleShard).
//
// Seeded random queries cover whole-month and day-cut windows (inside and
// beyond the corpus), platform and access filters, and metric/bin shapes
// on and off the summary axes; fixed ones pin the summary-merge, mixed and
// scan paths. Both sharding policies run at 1 and 2 threads.
//
// Registered under the `sanitize` ctest label: the 2-thread services run
// the plan's parallel phases under TSan/ASan.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "confsim/call.h"
#include "core/correlation.h"
#include "core/date.h"
#include "core/histogram.h"
#include "core/rng.h"
#include "netsim/conditions.h"
#include "nlp/keywords.h"
#include "nlp/sentiment.h"
#include "social/post.h"
#include "usaas/mos_predictor.h"
#include "usaas/query_service.h"

namespace usaas::service {
namespace {

using core::Date;

constexpr confsim::Platform kPlatforms[] = {
    confsim::Platform::kWindowsPc, confsim::Platform::kMacPc,
    confsim::Platform::kIos, confsim::Platform::kAndroid};

const Date kCorpusFirst{2021, 12, 20};
constexpr std::int64_t kCorpusDays = 390;  // through mid-January 2023

// ---- Corpus -------------------------------------------------------------

/// Sessions spread over every day of the corpus, every platform and access
/// technology, metrics straddling every default axis range, ~9% rated on a
/// half-point MOS scale (so Spearman sees ties).
std::vector<confsim::CallRecord> oracle_calls() {
  core::Rng rng{20231120};
  std::vector<confsim::CallRecord> calls;
  for (std::uint64_t id = 0; id < 2600; ++id) {
    confsim::CallRecord call;
    call.call_id = id;
    call.start.date = kCorpusFirst.plus_days(rng.uniform_int(0, kCorpusDays));
    call.start.time = {10, 30};
    const int participants = 2 + static_cast<int>(rng.uniform_int(0, 2));
    for (int p = 0; p < participants; ++p) {
      confsim::ParticipantRecord rec;
      rec.user_id = id * 8 + static_cast<std::uint64_t>(p);
      rec.platform = kPlatforms[rng.uniform_int(0, 3)];
      rec.meeting_size = participants;
      rec.access = static_cast<netsim::AccessTechnology>(
          rng.uniform_int(0, netsim::kNumAccessTechnologies - 1));
      const double latency = rng.uniform(0.0, 360.0);
      const auto agg = [](double v) {
        return netsim::MetricAggregate{v, v * 0.95, v * 1.7};
      };
      rec.network.latency_ms = agg(latency);
      rec.network.loss_pct = agg(rng.uniform(0.0, 12.0));
      rec.network.jitter_ms = agg(rng.uniform(0.0, 90.0));
      rec.network.bandwidth_mbps = agg(rng.uniform(0.0, 230.0));
      rec.network.duration_seconds = 1800.0;
      rec.network.sample_count = 360;
      rec.presence_pct =
          std::clamp(95.0 - latency / 8.0 + rng.uniform(-10.0, 10.0), 0.0,
                     100.0);
      rec.cam_on_pct = std::clamp(60.0 - latency / 6.0 + rng.uniform(-15.0, 15.0),
                                  0.0, 100.0);
      rec.mic_on_pct = rng.uniform(0.0, 40.0);
      rec.dropped_early = rng.bernoulli(0.05);
      if (rng.bernoulli(0.09)) {
        const double raw = 4.6 - latency / 110.0 + rng.uniform(-0.6, 0.6);
        rec.mos = core::clamp_mos(core::Mos{std::round(raw * 2.0) / 2.0});
      }
      call.participants.push_back(rec);
    }
    calls.push_back(std::move(call));
  }
  return calls;
}

/// Posts over the same span, plus two outage bursts that must surface as
/// alert days in windows that contain them.
std::vector<social::Post> oracle_posts() {
  static const char* kBodies[] = {
      "service went down tonight, complete outage, everything offline",
      "the connection has been great lately, fast and reliable",
      "pretty average week, speeds are okay, nothing special",
      "lost connection during calls, not working, is the network down",
      "absolutely love the new speeds, amazing upgrade",
  };
  core::Rng rng{99173};
  std::vector<social::Post> posts;
  const auto add = [&](const Date& date, const char* body) {
    social::Post post;
    post.id = posts.size();
    post.date = date;
    post.author_id = rng.uniform_int(1, 500);
    post.title = "experience report";
    post.body = body;
    posts.push_back(std::move(post));
  };
  for (int i = 0; i < 1500; ++i) {
    add(kCorpusFirst.plus_days(rng.uniform_int(0, kCorpusDays)),
        kBodies[rng.uniform_int(0, 4)]);
  }
  for (const Date burst : {Date{2022, 3, 14}, Date{2022, 9, 2}}) {
    for (int i = 0; i < 25; ++i) add(burst, kBodies[0]);
  }
  return posts;
}

struct Row {
  Date date;
  confsim::ParticipantRecord rec;
};

/// The corpus as raw rows in the order `policy` stores them: ingest order
/// for the flat shard; stable (month, platform) key order for month x
/// platform shards.
std::vector<Row> rows_in_storage_order(
    const std::vector<confsim::CallRecord>& calls, ShardingPolicy policy) {
  std::vector<Row> rows;
  for (const confsim::CallRecord& call : calls) {
    for (const confsim::ParticipantRecord& p : call.participants) {
      rows.push_back({call.start.date, p});
    }
  }
  if (policy == ShardingPolicy::kMonthPlatform) {
    std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      const int ka = core::month_key(a.date);
      const int kb = core::month_key(b.date);
      if (ka != kb) return ka < kb;
      return a.rec.platform < b.rec.platform;
    });
  }
  return rows;
}

struct ScoredPost {
  Date date;
  nlp::SentimentScores sentiment;
  std::size_t keyword_hits{0};
};

// ---- The brute-force oracle ----------------------------------------------

struct Expected {
  std::array<std::vector<CurvePoint>, kNumEngagementMetrics> curves;
  std::array<std::optional<double>, kNumEngagementMetrics> spearman;
  std::size_t sessions{0};
  std::size_t rated{0};
  std::optional<double> observed_mean_mos;
  std::optional<double> predicted_mean_mos;
  std::size_t posts{0};
  double strong_positive_share{0.0};
  std::size_t outage_mention_days{0};
  std::vector<Date> outage_alert_days;
};

bool in_window(const Query& q, const Date& d) {
  return !(d < q.first) && !(q.last < d);
}

double engagement_of(const confsim::ParticipantRecord& rec, std::size_t m) {
  return m == 0 ? rec.presence_pct : m == 1 ? rec.cam_on_pct : rec.mic_on_pct;
}

Expected brute_force(const Query& q, const std::vector<Row>& rows,
                     const std::vector<ScoredPost>& posts,
                     const MosPredictor& predictor) {
  Expected out;
  std::array<core::Binner1D, kNumEngagementMetrics> binners{
      core::Binner1D{q.metric_lo, q.metric_hi, q.bins},
      core::Binner1D{q.metric_lo, q.metric_hi, q.bins},
      core::Binner1D{q.metric_lo, q.metric_hi, q.bins}};
  std::array<std::vector<double>, kNumEngagementMetrics> rated_eng;
  std::vector<double> rated_mos;
  double observed_sum = 0.0;
  double predicted_sum = 0.0;
  for (const Row& row : rows) {
    const confsim::ParticipantRecord& rec = row.rec;
    if (!in_window(q, row.date)) continue;
    if (q.platform && rec.platform != *q.platform) continue;
    if (q.access && rec.access != *q.access) continue;
    ++out.sessions;
    predicted_sum += predictor.predict(rec);
    const double x =
        netsim::metric_value(rec.network.mean_conditions(), q.metric);
    for (std::size_t m = 0; m < binners.size(); ++m) {
      binners[m].add(x, engagement_of(rec, m));
    }
    if (rec.mos) {
      ++out.rated;
      observed_sum += rec.mos->score();
      for (std::size_t m = 0; m < rated_eng.size(); ++m) {
        rated_eng[m].push_back(engagement_of(rec, m));
      }
      rated_mos.push_back(rec.mos->score());
    }
  }
  for (std::size_t m = 0; m < binners.size(); ++m) {
    for (const core::Bin& b : binners[m].bins()) {
      out.curves[m].push_back({b.center(), b.mean_y, b.count});
    }
    if (rated_mos.size() >= 50) {
      out.spearman[m] = core::spearman(rated_eng[m], rated_mos);
    }
  }
  if (out.rated > 0) {
    out.observed_mean_mos = observed_sum / static_cast<double>(out.rated);
  }
  if (out.sessions > 0) {
    out.predicted_mean_mos = predicted_sum / static_cast<double>(out.sessions);
  }

  const auto window_days =
      static_cast<std::size_t>(q.first.days_until(q.last) + 1);
  std::vector<double> hits(window_days, 0.0);
  std::size_t strong_pos = 0;
  std::size_t strong_neg = 0;
  for (const ScoredPost& post : posts) {
    if (!in_window(q, post.date)) continue;
    ++out.posts;
    strong_pos += post.sentiment.strong_positive() ? 1 : 0;
    strong_neg += post.sentiment.strong_negative() ? 1 : 0;
    if (post.keyword_hits > 0 && post.sentiment.negative >= 0.4) {
      hits[static_cast<std::size_t>(q.first.days_until(post.date))] +=
          static_cast<double>(post.keyword_hits);
    }
  }
  if (strong_pos + strong_neg > 0) {
    out.strong_positive_share = static_cast<double>(strong_pos) /
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
      out.outage_alert_days.push_back(
          q.first.plus_days(static_cast<std::int64_t>(i)));
    }
  }
  return out;
}

void expect_close(double got, double want, const std::string& what) {
  EXPECT_NEAR(got, want, 1e-9 * (1.0 + std::abs(want))) << what;
}

void expect_matches(const Insight& got, const Expected& want) {
  EXPECT_EQ(got.error, QueryError::kNone);
  EXPECT_EQ(got.sessions, want.sessions);
  EXPECT_EQ(got.rated_sessions, want.rated);
  ASSERT_EQ(got.observed_mean_mos.has_value(),
            want.observed_mean_mos.has_value());
  if (want.observed_mean_mos) {
    expect_close(*got.observed_mean_mos, *want.observed_mean_mos,
                 "observed_mean_mos");
  }
  ASSERT_EQ(got.predicted_mean_mos.has_value(),
            want.predicted_mean_mos.has_value());
  if (want.predicted_mean_mos) {
    expect_close(*got.predicted_mean_mos, *want.predicted_mean_mos,
                 "predicted_mean_mos");
  }

  ASSERT_EQ(got.engagement.size(), want.curves.size());
  for (std::size_t m = 0; m < want.curves.size(); ++m) {
    const EngagementCurve& curve = got.engagement[m];
    EXPECT_EQ(curve.engagement_metric, static_cast<EngagementMetric>(m));
    ASSERT_EQ(curve.points.size(), want.curves[m].size()) << "curve " << m;
    for (std::size_t i = 0; i < curve.points.size(); ++i) {
      const CurvePoint& g = curve.points[i];
      const CurvePoint& w = want.curves[m][i];
      EXPECT_EQ(g.sessions, w.sessions) << "curve " << m << " point " << i;
      EXPECT_EQ(g.metric_value, w.metric_value) << "curve " << m;
      expect_close(g.engagement, w.engagement, "curve engagement");
    }
  }

  std::size_t present = 0;
  for (const std::optional<double>& s : want.spearman) present += s ? 1 : 0;
  ASSERT_EQ(got.mos_spearman.size(), present);
  for (const auto& [metric, value] : got.mos_spearman) {
    const std::optional<double>& w =
        want.spearman[static_cast<std::size_t>(metric)];
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(value, *w) << "mos_spearman " << static_cast<int>(metric);
  }

  EXPECT_EQ(got.posts, want.posts);
  EXPECT_EQ(got.strong_positive_share, want.strong_positive_share);
  EXPECT_EQ(got.outage_mention_days, want.outage_mention_days);
  EXPECT_EQ(got.outage_alert_days, want.outage_alert_days);
}

// ---- Queries --------------------------------------------------------------

Date month_end(const Date& d) {
  return Date{d.year(), d.month(), Date::days_in_month(d.year(), d.month())};
}

/// Fixed shapes pinning each serving path on a summarized service, then
/// seeded random ones.
std::vector<Query> oracle_queries() {
  std::vector<Query> out;
  Query whole;  // whole months on a default axis: summary merge
  whole.first = Date{2022, 2, 1};
  whole.last = Date{2022, 4, 30};
  out.push_back(whole);
  Query cut = whole;  // day-cut on a default axis: mixed
  cut.first = Date{2022, 2, 10};
  out.push_back(cut);
  Query inside = cut;  // off-axis, day-cut inside one month: scan
  inside.first = Date{2022, 3, 5};
  inside.last = Date{2022, 3, 25};
  inside.bins = 7;
  out.push_back(inside);
  Query starlink = whole;  // the paper's Starlink example, whole year
  starlink.first = Date{2022, 1, 1};
  starlink.last = Date{2022, 12, 31};
  starlink.access = netsim::AccessTechnology::kLeoSatellite;
  out.push_back(starlink);

  struct Axis {
    netsim::Metric metric;
    double hi;
  };
  constexpr Axis kAxes[] = {{netsim::Metric::kLatency, 300.0},
                            {netsim::Metric::kLoss, 10.0},
                            {netsim::Metric::kJitter, 80.0},
                            {netsim::Metric::kBandwidth, 200.0}};
  core::Rng rng{5150};
  while (out.size() < 220) {
    Query q;
    const auto kind = rng.uniform_int(0, 9);
    const Date start = Date{2021, 11, 1}.plus_months(
        static_cast<int>(rng.uniform_int(0, 15)));
    if (kind < 4) {  // whole months
      q.first = start;
      q.last = month_end(start.plus_months(
          static_cast<int>(rng.uniform_int(0, 5))));
    } else if (kind < 9) {  // day-cut window
      q.first = start.plus_days(rng.uniform_int(1, 27));
      q.last = q.first.plus_days(rng.uniform_int(0, 120));
    } else {  // entirely before the corpus
      q.first = Date{2021, 6, 3};
      q.last = Date{2021, 11, 20};
    }
    if (rng.bernoulli(0.4)) q.platform = kPlatforms[rng.uniform_int(0, 3)];
    if (rng.bernoulli(0.35)) {
      q.access = static_cast<netsim::AccessTechnology>(
          rng.uniform_int(0, netsim::kNumAccessTechnologies - 1));
    }
    const Axis axis = kAxes[rng.uniform_int(0, 3)];
    q.metric = axis.metric;
    if (rng.bernoulli(0.5)) {  // exactly a default summary axis
      q.metric_lo = 0.0;
      q.metric_hi = axis.hi;
      q.bins = 10;
    } else {
      q.metric_lo = rng.uniform(0.0, axis.hi / 3.0);
      q.metric_hi = q.metric_lo + rng.uniform(axis.hi / 4.0, axis.hi);
      q.bins = static_cast<std::size_t>(rng.uniform_int(2, 15));
    }
    out.push_back(q);
  }
  return out;
}

// ---- The battery ----------------------------------------------------------

struct Config {
  ShardingPolicy sharding;
  std::size_t threads;
  bool summaries;
};

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  std::string name = info.param.sharding == ShardingPolicy::kSingleShard
                         ? "Flat"
                         : "Sharded";
  name += std::to_string(info.param.threads) + "t";
  name += info.param.summaries ? "Summaries" : "NoSummaries";
  return name;
}

class InsightOracle : public ::testing::TestWithParam<Config> {};

TEST_P(InsightOracle, EveryFieldMatchesBruteForce) {
  const Config cfg = GetParam();
  const std::vector<confsim::CallRecord> calls = oracle_calls();
  const std::vector<social::Post> posts = oracle_posts();

  QueryServiceConfig service_cfg;
  service_cfg.sharding = cfg.sharding;
  service_cfg.threads = cfg.threads;
  service_cfg.shard_summaries = cfg.summaries;
  service_cfg.insight_cache_entries = 0;  // every run computes
  QueryService service{service_cfg};
  service.ingest_calls(calls);
  service.ingest_posts(posts);
  ASSERT_TRUE(service.train_predictor());

  // The service trains on rated sessions in canonical (month, platform,
  // ingest) order under either policy; so does the oracle's predictor.
  const std::vector<Row> canonical =
      rows_in_storage_order(calls, ShardingPolicy::kMonthPlatform);
  std::vector<confsim::ParticipantRecord> rated;
  for (const Row& row : canonical) {
    if (row.rec.mos) rated.push_back(row.rec);
  }
  MosPredictor predictor;
  predictor.train(rated);

  const std::vector<Row> rows = rows_in_storage_order(calls, cfg.sharding);
  const nlp::SentimentAnalyzer analyzer;
  const nlp::KeywordDictionary& keywords =
      nlp::KeywordDictionary::outage_dictionary();
  std::vector<ScoredPost> scored;
  for (const social::Post& post : posts) {
    const std::string text = post.title + " " + post.body;
    scored.push_back(
        {post.date, analyzer.score(text), keywords.count_occurrences(text)});
  }

  std::array<std::size_t, 6> paths{};
  std::size_t with_spearman = 0;
  std::size_t without_spearman = 0;
  std::size_t with_alerts = 0;
  const std::vector<Query> queries = oracle_queries();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    SCOPED_TRACE(testing::Message()
                 << "query " << i << " " << q.first.to_string() << ".."
                 << q.last.to_string() << " metric "
                 << static_cast<int>(q.metric) << " [" << q.metric_lo << ", "
                 << q.metric_hi << ") x" << q.bins);
    const Insight got = service.run(q);
    const Expected want = brute_force(q, rows, scored, predictor);
    expect_matches(got, want);
    ++paths[static_cast<std::size_t>(got.execution.served_by)];
    (got.mos_spearman.empty() ? without_spearman : with_spearman) += 1;
    with_alerts += got.outage_alert_days.empty() ? 0 : 1;
  }
  // The battery exercised what it claims to.
  EXPECT_GT(with_spearman, 0u);
  EXPECT_GT(without_spearman, 0u);
  EXPECT_GT(with_alerts, 0u);
  const auto served = [&](ServedBy path) {
    return paths[static_cast<std::size_t>(path)];
  };
  if (cfg.summaries) {
    EXPECT_GT(served(ServedBy::kSummaryMerge), 0u);
    EXPECT_GT(served(ServedBy::kMixed), 0u);
  }
  EXPECT_GT(served(ServedBy::kScan), 0u);
}

// Namespace-scope, so the padding gtest prints into each listed name is
// zero-initialized and the names are stable from run to run.
const Config kBatteryConfigs[] = {
    {ShardingPolicy::kMonthPlatform, 1, true},
    {ShardingPolicy::kMonthPlatform, 2, true},
    {ShardingPolicy::kMonthPlatform, 1, false},
    {ShardingPolicy::kSingleShard, 1, false},
    {ShardingPolicy::kSingleShard, 2, false}};

INSTANTIATE_TEST_SUITE_P(Battery, InsightOracle,
                         ::testing::ValuesIn(kBatteryConfigs), config_name);

}  // namespace
}  // namespace usaas::service
