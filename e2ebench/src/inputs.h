// Seeded inputs for the end-to-end benchmark.
//
// Everything the service receives is generated here from the run's seed:
// conferencing sessions shaped like the throughput bench's synthetic calls,
// social posts simulated by social::RedditSim, and the query mixes of the
// three workloads. The generator also precomputes, per record, what the
// answer oracle needs (oracle.h) — posts are scored with the unfused
// nlp::SentimentAnalyzer and KeywordDictionary, never with the service's
// fused PostScorer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "confsim/call.h"
#include "core/date.h"
#include "core/rng.h"
#include "social/post.h"
#include "usaas/query_service.h"

namespace e2ebench {

using usaas::core::Date;
using usaas::service::Query;

/// The year every generated record falls in.
inline constexpr int kYear = 2022;
inline constexpr int kDaysInYear = 365;
inline constexpr int kParticipantsPerCall = 4;

/// Day index in [0, 365) of a date in kYear.
[[nodiscard]] int day_index(const Date& d);

/// One session reduced to the fields queries read, for the oracle.
struct SessionFacts {
  std::int16_t day{0};
  std::uint8_t platform{0};
  std::uint8_t access{0};
  bool rated{false};
  double mos{0.0};
  double metric[4]{};      // latency, loss, jitter, bandwidth session means
  double engagement[3]{};  // presence, cam-on, mic-on
};

/// One post reduced to what queries read, scored by the unfused analyzer.
struct PostFacts {
  std::int16_t day{0};
  bool strong_positive{false};
  bool strong_negative{false};
  bool negative_enough{false};  // negative score >= 0.4 (outage filter)
  std::uint32_t keyword_hits{0};
};

/// A corpus in push order, with the oracle's view of every record.
struct Corpus {
  std::vector<usaas::confsim::CallRecord> calls;
  std::vector<usaas::social::Post> posts;
  std::vector<SessionFacts> sessions;  // flattened, call order
  std::vector<PostFacts> post_facts;   // post order
};

struct CorpusSize {
  std::size_t calls{0};
  std::size_t posts{0};
};

/// Generates `size.calls` calls (4 sessions each, dates uniform over
/// kYear) and `size.posts` posts drawn from a RedditSim year, all from
/// `seed`. `id_base` offsets call and post ids so streams stay distinct.
[[nodiscard]] Corpus make_corpus(CorpusSize size, std::uint64_t seed,
                                 std::uint64_t id_base = 0);

/// TPC-C's non-uniform random number NURand(A, x, y), with the run
/// constant C drawn once from the seed (SNIPPETS.md, tpccbench).
class NuRand {
 public:
  NuRand(std::uint64_t seed, std::int64_t a);
  [[nodiscard]] std::int64_t next(usaas::core::Rng& rng, std::int64_t x,
                                  std::int64_t y) const;

 private:
  std::int64_t a_;
  std::int64_t c_;
};

/// Zipf(s) over ranks [0, n): rank r is drawn with weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t next(usaas::core::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One wire request the benchmark sends, and whether its answer is
/// expected to fail the mos_spearman check because of the known fault
/// (mos_correlation ignores the query's selector).
struct PlannedQuery {
  std::string tenant;
  Query query;
  bool whole_corpus{false};
};

/// scan_adhoc: rounds of four distinct queries. Slot 0 spans the whole
/// corpus unfiltered (its window runs from December of the year before
/// to January of the year after); slots 1-3 cut month boundaries inside
/// kYear, the last two adding a platform or an access filter. Metric,
/// range and bins vary per query and never match a summary axis.
inline constexpr std::size_t kScanRoundSize = 4;
[[nodiscard]] std::vector<PlannedQuery> make_scan_rounds(std::size_t rounds,
                                                         std::uint64_t seed);

/// dashboard_live: the small set of whole-month, quarter and year
/// queries (default summary axes), in popularity-rank order for `seed`.
[[nodiscard]] std::vector<Query> make_dashboard_set(std::uint64_t seed);

/// ingest_backfill: every whole-month-aligned read-back query (month
/// range x platform x access x summary axis), in a seeded order.
[[nodiscard]] std::vector<PlannedQuery> make_readback(std::uint64_t seed);

/// The GET /query target for a request (lo/hi printed round-trip exact).
[[nodiscard]] std::string query_target(const PlannedQuery& q,
                                       double budget_ms);

}  // namespace e2ebench
