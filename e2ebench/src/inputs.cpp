#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "leo/events.h"
#include "leo/outages.h"
#include "leo/speed.h"
#include "nlp/keywords.h"
#include "nlp/sentiment.h"
#include "social/subreddit.h"

namespace e2ebench {

namespace core = usaas::core;
namespace confsim = usaas::confsim;
namespace netsim = usaas::netsim;
namespace social = usaas::social;

namespace {

const Date kYearStart{kYear, 1, 1};

// The session mix of the throughput bench's synthetic calls.
constexpr confsim::Platform kPlatforms[] = {
    confsim::Platform::kWindowsPc, confsim::Platform::kMacPc,
    confsim::Platform::kIos, confsim::Platform::kAndroid};
constexpr double kPlatformWeights[] = {0.55, 0.20, 0.10, 0.15};
constexpr netsim::AccessTechnology kAccess[] = {
    netsim::AccessTechnology::kFiber, netsim::AccessTechnology::kCable,
    netsim::AccessTechnology::kDsl, netsim::AccessTechnology::kLte,
    netsim::AccessTechnology::kLeoSatellite};
constexpr double kAccessWeights[] = {0.25, 0.40, 0.15, 0.12, 0.08};

/// Share of sessions carrying a sampled MOS (the paper's 0.1-1% gap).
constexpr double kRatedShare = 0.005;

std::vector<confsim::CallRecord> make_calls(std::size_t n, core::Rng rng,
                                            std::uint64_t id_base) {
  std::vector<confsim::CallRecord> calls;
  calls.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    confsim::CallRecord call;
    call.call_id = id_base + c;
    call.start.date = kYearStart.plus_days(rng.uniform_int(0, kDaysInYear - 1));
    call.start.time = {static_cast<int>(rng.uniform_int(9, 19)),
                       static_cast<int>(rng.uniform_int(0, 59))};
    call.scheduled_minutes = 30;
    call.participants.reserve(kParticipantsPerCall);
    for (int p = 0; p < kParticipantsPerCall; ++p) {
      confsim::ParticipantRecord rec;
      rec.user_id = call.call_id * kParticipantsPerCall +
                    static_cast<std::uint64_t>(p);
      rec.platform = kPlatforms[rng.weighted_index(kPlatformWeights)];
      rec.meeting_size = kParticipantsPerCall;
      rec.access = kAccess[rng.weighted_index(kAccessWeights)];
      const double latency = std::min(500.0, 10.0 + rng.lognormal(3.2, 0.7));
      const double loss = std::min(15.0, rng.exponential(1.5));
      const double jitter = std::min(80.0, rng.exponential(0.25));
      const double bandwidth = std::min(300.0, 1.0 + rng.lognormal(2.3, 0.8));
      const auto aggregate = [](double mean_v) {
        return netsim::MetricAggregate{mean_v, mean_v * 0.93, mean_v * 1.8};
      };
      rec.network.latency_ms = aggregate(latency);
      rec.network.loss_pct = aggregate(loss);
      rec.network.jitter_ms = aggregate(jitter);
      rec.network.bandwidth_mbps = aggregate(bandwidth);
      rec.network.duration_seconds = 1800.0;
      rec.network.sample_count = 360;
      const double damage = 0.08 * latency + 3.0 * loss + 0.2 * jitter;
      const auto engagement = [&](double base, double scale) {
        const double v = base - scale * damage + rng.normal(0.0, 5.0);
        return std::min(100.0, std::max(0.0, v));
      };
      rec.presence_pct = engagement(92.0, 0.45);
      rec.cam_on_pct = engagement(45.0, 0.65);
      rec.mic_on_pct = engagement(30.0, 0.35);
      rec.dropped_early = rng.bernoulli(std::min(0.6, 0.02 + damage / 400.0));
      if (rng.bernoulli(kRatedShare)) {
        rec.mos = core::clamp_mos(
            core::Mos{4.6 - damage / 18.0 + rng.normal(0.0, 0.4)});
      }
      call.participants.push_back(rec);
    }
    calls.push_back(std::move(call));
  }
  return calls;
}

/// A RedditSim year sized to overshoot `n`, thinned to exactly `n` posts
/// in date order (the order a backfill replays them in).
std::vector<social::Post> make_posts(std::size_t n, std::uint64_t seed,
                                     std::uint64_t id_base) {
  if (n == 0) return {};
  social::SubredditConfig cfg;
  cfg.seed = seed;
  cfg.first_day = kYearStart;
  cfg.last_day = Date{kYear, 12, 31};
  // Background volume dominates; reactions and outage threads add ~15%.
  const double per_day = 1.1 * static_cast<double>(n) / kDaysInYear;
  cfg.posts_per_day_start = 0.7 * per_day;
  cfg.posts_per_day_end = 1.3 * per_day;
  usaas::leo::LaunchSchedule schedule;
  std::vector<social::Post> pool;
  for (std::uint64_t attempt = 0; pool.size() < n; ++attempt) {
    if (attempt == 4) throw std::runtime_error("RedditSim produced too few posts");
    cfg.seed = seed + attempt * 7919;
    const social::RedditSim sim{
        cfg,
        usaas::leo::SpeedModel{usaas::leo::ConstellationModel{schedule},
                               usaas::leo::SubscriberModel{}},
        usaas::leo::OutageModel{cfg.first_day, cfg.last_day, cfg.seed ^ 0x5eed},
        usaas::leo::EventTimeline{schedule}};
    pool = sim.simulate();
    cfg.posts_per_day_start *= 1.5;
    cfg.posts_per_day_end *= 1.5;
  }
  // Keep a seeded uniform subset of exactly n, preserving date order.
  core::Rng rng{seed ^ 0x9057};
  std::vector<std::size_t> keep(pool.size());
  for (std::size_t i = 0; i < keep.size(); ++i) keep[i] = i;
  rng.shuffle(keep);
  keep.resize(n);
  std::sort(keep.begin(), keep.end());
  std::vector<social::Post> posts;
  posts.reserve(n);
  for (const std::size_t i : keep) {
    social::Post post = std::move(pool[i]);
    post.id = id_base + posts.size();
    posts.push_back(std::move(post));
  }
  return posts;
}

SessionFacts facts_of(const confsim::CallRecord& call,
                      const confsim::ParticipantRecord& p) {
  SessionFacts f;
  f.day = static_cast<std::int16_t>(day_index(call.start.date));
  f.platform = static_cast<std::uint8_t>(p.platform);
  f.access = static_cast<std::uint8_t>(p.access);
  f.rated = p.mos.has_value();
  f.mos = p.mos ? p.mos->score() : 0.0;
  f.metric[0] = p.network.latency_ms.mean;
  f.metric[1] = p.network.loss_pct.mean;
  f.metric[2] = p.network.jitter_ms.mean;
  f.metric[3] = p.network.bandwidth_mbps.mean;
  f.engagement[0] = p.presence_pct;
  f.engagement[1] = p.cam_on_pct;
  f.engagement[2] = p.mic_on_pct;
  return f;
}

PostFacts facts_of(const social::Post& post,
                   const usaas::nlp::SentimentAnalyzer& analyzer,
                   const usaas::nlp::KeywordDictionary& keywords) {
  // The service scores title + ' ' + body; the oracle scores the same
  // text with the two-phase analyzer and dictionary.
  const std::string text = post.title + " " + post.body;
  const usaas::nlp::SentimentScores s = analyzer.score(text);
  PostFacts f;
  f.day = static_cast<std::int16_t>(day_index(post.date));
  f.strong_positive = s.strong_positive();
  f.strong_negative = s.strong_negative();
  f.negative_enough = s.negative >= 0.4;
  f.keyword_hits =
      static_cast<std::uint32_t>(keywords.count_occurrences(text));
  return f;
}

struct QueryKey {
  int first, last, platform, access, metric;
  double lo, hi;
  std::size_t bins;
  auto operator<=>(const QueryKey&) const = default;
};

QueryKey key_of(const Query& q) {
  return {static_cast<int>(q.first.days_since_epoch()),
          static_cast<int>(q.last.days_since_epoch()),
          q.platform ? static_cast<int>(*q.platform) : -1,
          q.access ? static_cast<int>(*q.access) : -1,
          static_cast<int>(q.metric),
          q.metric_lo,
          q.metric_hi,
          q.bins};
}

/// Natural upper range per metric (ms, %, ms, Mbps).
constexpr double kMetricSpan[4] = {300.0, 10.0, 80.0, 200.0};

/// A random sweep that matches no summary axis: bins never 10, and hi
/// carries a decimal off the axis value.
void random_sweep(Query& q, core::Rng& rng) {
  const int m = static_cast<int>(rng.uniform_int(0, 3));
  q.metric = static_cast<netsim::Metric>(m);
  const double span = kMetricSpan[m];
  q.metric_lo = 0.0;
  q.metric_hi = std::round(span * rng.uniform(0.6, 1.4) * 10.0) / 10.0;
  if (q.metric_hi == span) q.metric_hi += 0.1;
  q.bins = static_cast<std::size_t>(rng.uniform_int(6, 39));
  if (q.bins == 10) q.bins = 11;
}

}  // namespace

int day_index(const Date& d) {
  return static_cast<int>(kYearStart.days_until(d));
}

Corpus make_corpus(CorpusSize size, std::uint64_t seed, std::uint64_t id_base) {
  const core::Rng root{seed};
  Corpus c;
  c.calls = make_calls(size.calls, root.split(1), id_base);
  c.posts = make_posts(size.posts, root.split(2).next_u64(), id_base);
  c.sessions.reserve(size.calls * kParticipantsPerCall);
  for (const confsim::CallRecord& call : c.calls) {
    for (const confsim::ParticipantRecord& p : call.participants) {
      c.sessions.push_back(facts_of(call, p));
    }
  }
  const usaas::nlp::SentimentAnalyzer analyzer;
  const usaas::nlp::KeywordDictionary& keywords =
      usaas::nlp::KeywordDictionary::outage_dictionary();
  c.post_facts.reserve(c.posts.size());
  for (const social::Post& post : c.posts) {
    c.post_facts.push_back(facts_of(post, analyzer, keywords));
  }
  return c;
}

NuRand::NuRand(std::uint64_t seed, std::int64_t a) : a_{a} {
  core::Rng rng{seed};
  c_ = rng.uniform_int(0, a);
}

std::int64_t NuRand::next(core::Rng& rng, std::int64_t x,
                          std::int64_t y) const {
  return ((rng.uniform_int(0, a_) | rng.uniform_int(x, y)) + c_) %
             (y - x + 1) +
         x;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = acc;
  }
  for (double& v : cdf_) v /= acc;
}

std::size_t Zipf::next(core::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::vector<PlannedQuery> make_scan_rounds(std::size_t rounds,
                                           std::uint64_t seed) {
  core::Rng rng{seed ^ 0x5ca7};
  std::set<QueryKey> seen;
  std::vector<PlannedQuery> out;
  out.reserve(rounds * kScanRoundSize);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t slot = 0; slot < kScanRoundSize; ++slot) {
      PlannedQuery pq;
      pq.tenant = "analyst";
      Query& q = pq.query;
      do {
        q = Query{};
        random_sweep(q, rng);
        if (slot == 0) {
          pq.whole_corpus = true;
          q.first = Date{kYear - 1, 12, static_cast<int>(rng.uniform_int(2, 31))};
          q.last = Date{kYear + 1, 1, static_cast<int>(rng.uniform_int(1, 30))};
        } else {
          const int len = static_cast<int>(rng.uniform_int(20, 75));
          const int start =
              static_cast<int>(rng.uniform_int(0, kDaysInYear - len));
          q.first = kYearStart.plus_days(start);
          q.last = q.first.plus_days(len - 1);
          // Cut at least one month boundary, so the window is narrower
          // than the months it touches.
          if (q.first.day() == 1) q.first = q.first.plus_days(1);
          if (slot == 2) {
            q.platform = kPlatforms[rng.uniform_int(0, 3)];
          } else if (slot == 3) {
            q.access = kAccess[rng.uniform_int(0, 4)];
          }
        }
      } while (!seen.insert(key_of(q)).second);
      out.push_back(std::move(pq));
    }
  }
  return out;
}

std::vector<Query> make_dashboard_set(std::uint64_t seed) {
  std::vector<std::pair<Date, Date>> windows;
  for (int m = 1; m <= 12; ++m) {
    windows.emplace_back(Date{kYear, m, 1},
                         Date{kYear, m, Date::days_in_month(kYear, m)});
  }
  for (int qtr = 0; qtr < 4; ++qtr) {
    const int m = 3 * qtr + 3;
    windows.emplace_back(Date{kYear, 3 * qtr + 1, 1},
                         Date{kYear, m, Date::days_in_month(kYear, m)});
  }
  windows.emplace_back(Date{kYear, 1, 1}, Date{kYear, 12, 31});
  const auto axes = usaas::service::default_summary_axes();
  std::vector<Query> out;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    for (int variant = 0; variant < 4; ++variant) {
      Query q;
      q.first = windows[w].first;
      q.last = windows[w].second;
      const auto& axis = axes[static_cast<std::size_t>(variant)];
      q.metric = axis.metric;
      q.metric_lo = axis.lo;
      q.metric_hi = axis.hi;
      q.bins = axis.bins;
      if (variant == 1) q.platform = kPlatforms[w % 4];
      if (variant == 2) q.access = kAccess[w % 5];
      out.push_back(q);
    }
  }
  core::Rng rng{seed ^ 0xda5b};
  rng.shuffle(out);
  return out;
}

std::vector<PlannedQuery> make_readback(std::uint64_t seed) {
  const auto axes = usaas::service::default_summary_axes();
  std::vector<PlannedQuery> all;
  for (int m1 = 1; m1 <= 12; ++m1) {
    for (int m2 = m1; m2 <= 12; ++m2) {
      for (int p = -1; p < 4; ++p) {
        for (int a = -1; a < 5; ++a) {
          for (const auto& axis : axes) {
            PlannedQuery pq;
            pq.tenant = "auditor";
            Query& q = pq.query;
            q.first = Date{kYear, m1, 1};
            q.last = Date{kYear, m2, Date::days_in_month(kYear, m2)};
            if (p >= 0) q.platform = kPlatforms[p];
            if (a >= 0) q.access = kAccess[a];
            q.metric = axis.metric;
            q.metric_lo = axis.lo;
            q.metric_hi = axis.hi;
            q.bins = axis.bins;
            pq.whole_corpus = m1 == 1 && m2 == 12 && p < 0 && a < 0;
            all.push_back(std::move(pq));
          }
        }
      }
    }
  }
  core::Rng rng{seed ^ 0xbac4};
  rng.shuffle(all);
  return all;
}

std::string query_target(const PlannedQuery& pq, double budget_ms) {
  const Query& q = pq.query;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "/query?tenant=%s&first=%s&last=%s&metric=%s&lo=%.17g"
                "&hi=%.17g&bins=%zu&budget_ms=%.17g",
                pq.tenant.c_str(), q.first.to_string().c_str(),
                q.last.to_string().c_str(), netsim::to_string(q.metric),
                q.metric_lo, q.metric_hi, q.bins, budget_ms);
  std::string out = buf;
  if (q.platform) {
    out += "&platform=";
    out += confsim::to_string(*q.platform);
  }
  if (q.access) {
    out += "&access=";
    out += netsim::to_string(*q.access);
  }
  return out;
}

}  // namespace e2ebench
