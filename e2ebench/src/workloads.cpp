#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "deployment.h"
#include "inputs.h"
#include "loop.h"
#include "oracle.h"
#include "spans.h"

namespace e2ebench {

namespace service = usaas::service;

namespace {

// ---- Sizes and rates (README.md records why) ----------------------------

/// Base corpus every workload backfills: 200k sessions, 60k posts.
constexpr CorpusSize kBase{50'000, 60'000};
/// Set-ups per run: three before the measured work (the last one serves
/// it) and two after, so the samples span the run rather than one moment
/// of this host's drifting speed. setup_s and the query workloads' ingest
/// rates are the median over all five.
constexpr std::size_t kSetupsBefore = 3;
constexpr std::size_t kSetupsAfter = 2;
/// ingest_backfill: share of the run spent backfilling; the rest reads the
/// corpus back over the wire, cycling through every whole-month query, as
/// an open loop: it checks the ingested data and is no throughput test. A
/// closed loop saturates the 4 cores, and host steal then halves its rate.
constexpr double kBackfillShare = 0.6;
constexpr double kReadbackRate = 250.0;
/// Untraced runs measure in slices, taking ingest samples between them
/// (run_segments); the query workloads take this many per gap.
constexpr std::size_t kSegments = 4;
constexpr std::size_t kBackfillsPerGap = 4;
/// query_per_s is the median rate over blocks of this many consecutive
/// requests, so that a stall slows a few blocks rather than the figure.
constexpr std::size_t kRateBlock = 250;
/// dashboard_live: open-loop request rate, tenants, and the producer.
constexpr double kDashboardRate = 500.0;
constexpr std::int64_t kTenants = 16;
constexpr double kProducerTick = 2.0;  // seconds between producer flushes
constexpr std::size_t kTickCalls = 500;  // 2,000 sessions per tick
constexpr std::size_t kTickPosts = 200;
/// Traced open loops replay one request in four.
constexpr std::size_t kOpenLoopReplayEvery = 4;
/// scan_adhoc: analysts in the closed loop, and a plan with enough rounds
/// for them at up to 3000 queries/s.
constexpr std::size_t kScanClients = 4;
constexpr double kScanPlanRate = 3000.0;
/// Envelope a traced request's layers must add up within: |sum - latency|
/// <= 25% of the latency + 1 ms.
constexpr double kEnvelopeShare = 0.25;
constexpr double kEnvelopeFloorS = 1e-3;

// ---- Set-up -------------------------------------------------------------

struct Setup {
  std::unique_ptr<Deployment> deployment;
  std::vector<double> seconds;
  std::vector<Backfill> backfills;
  std::vector<double> train_s;
};

/// Builds `n` deployments in turn, timing each, and keeps the last one
/// when it is to `serve` the workload. Each other one is torn down before
/// the next is built.
void set_up(Setup& s, std::size_t n, bool serve, const Corpus& base,
            SpanBuffer* spans, bool keep_traces, Ledger& ledger) {
  for (std::size_t k = 0; k < n; ++k) {
    std::unique_ptr<Deployment> d;
    {
      const SpanScope span{spans, "setup"};
      const Clock::time_point t0 = Clock::now();
      d = std::make_unique<Deployment>(base, /*listen=*/true, spans,
                                       keep_traces);
      s.seconds.push_back(seconds(Clock::now() - t0));
    }
    s.backfills.push_back(d->initial_backfill());
    s.train_s.push_back(d->train_s());
    ledger.check(d->error().empty() ? "" : "set-up: " + d->error());
    if (serve && k + 1 == n) s.deployment = std::move(d);
  }
}

// ---- Query phases --------------------------------------------------------

/// Records in the corpus at one version: a prefix of the push order.
struct Prefix {
  std::size_t sessions{0};
  std::size_t posts{0};
};

struct QueryPhase {
  LoopResult loop;
  std::vector<double> block_rates;  // answered queries/s of each block
  std::uint64_t versions_bumped{0};
  std::uint64_t cache_hits{0};
  std::uint64_t cache_misses{0};
};

QueryPhase run_phase(Deployment& d, const std::vector<PlannedQuery>& plan,
                     const PlanPick& pick, const LoopSpec& spec,
                     Replayer* replayer, SpanLog* log,
                     std::uint64_t id_base) {
  QueryPhase p;
  const auto before = d.service().stats();
  p.loop = run_loop(d.port(), plan, pick, spec, replayer, log, id_base);
  const auto after = d.service().stats();
  if (replayer != nullptr) {
    // Join each request with the TraceRecord the service kept for it.
    std::unordered_map<std::uint64_t, usaas::core::telemetry::TraceRecord> kept;
    for (const auto& t : d.service().tracer().snapshot()) kept[t.trace_id] = t;
    for (RequestRecord& r : p.loop.requests) {
      const auto it = kept.find(r.id);
      if (it != kept.end()) {
        r.server = std::make_unique<usaas::core::telemetry::TraceRecord>(
            it->second);
      }
    }
  }
  p.versions_bumped = after.corpus_version - before.corpus_version;
  p.cache_hits = after.insight_cache.hits - before.insight_cache.hits;
  p.cache_misses = after.insight_cache.misses - before.insight_cache.misses;
  return p;
}

std::vector<double> latencies(const QueryPhase& p) {
  std::vector<double> out;
  for (const RequestRecord& r : p.loop.requests) {
    if (r.transport_ok) out.push_back(r.latency_s());
  }
  return out;
}

/// Answered queries/s of each run of kRateBlock consecutive requests, from
/// the first one's due time to the last answer. A remainder shorter than a
/// block is left out, unless the phase has no whole block.
std::vector<double> block_rates(const QueryPhase& p) {
  const std::vector<RequestRecord>& rs = p.loop.requests;
  const std::size_t block = std::min(kRateBlock, rs.size());
  std::vector<double> out;
  for (std::size_t b = 0; block > 0 && b + block <= rs.size(); b += block) {
    Clock::time_point first = rs[b].due;
    Clock::time_point last = rs[b].timing.end;
    std::size_t answered = 0;
    for (std::size_t i = b; i < b + block; ++i) {
      first = std::min(first, rs[i].due);
      last = std::max(last, rs[i].timing.end);
      if (rs[i].transport_ok) ++answered;
    }
    out.push_back(static_cast<double>(answered) / seconds(last - first));
  }
  return out;
}

/// Runs the untraced measured load as kSegments slices of spec.seconds /
/// kSegments each, calling `before(segment)` ahead of each slice. The
/// slices continue one plan (`pick_from(offset)` picks request i of a
/// slice that starts `offset` requests in), and between them the run takes
/// its ingest samples, so both kinds of measurement span the whole run.
QueryPhase run_segments(Deployment& d, const std::vector<PlannedQuery>& plan,
                        const std::function<PlanPick(std::size_t)>& pick_from,
                        LoopSpec spec, std::size_t segments,
                        const std::function<void(std::size_t)>& before) {
  QueryPhase all;
  const std::size_t max_requests = spec.max_requests;
  spec.seconds /= static_cast<double>(segments);
  if (spec.open_loop) {
    spec.max_requests = static_cast<std::size_t>(spec.rate * spec.seconds) + 1;
  }
  for (std::size_t s = 0; s < segments; ++s) {
    before(s);
    const std::size_t offset = all.loop.requests.size();
    if (!spec.open_loop) spec.max_requests = max_requests - offset;
    QueryPhase p = run_phase(d, plan, pick_from(offset), spec, nullptr,
                             nullptr, offset);
    if (s == 0) all.loop.start = p.loop.start;
    all.loop.end = p.loop.end;
    const std::vector<double> rates = block_rates(p);
    all.block_rates.insert(all.block_rates.end(), rates.begin(), rates.end());
    all.versions_bumped += p.versions_bumped;
    all.cache_hits += p.cache_hits;
    all.cache_misses += p.cache_misses;
    for (RequestRecord& r : p.loop.requests) {
      all.loop.requests.push_back(std::move(r));
    }
  }
  return all;
}



/// Checks answers whose corpus version maps to a known prefix of the push
/// order (`prefixes`: version -> sessions, posts) against the counts
/// oracle, oldest version first.
void verify_counts(const std::vector<const RequestRecord*>& requests,
                   const std::vector<PlannedQuery>& plan,
                   const std::map<std::uint64_t, Prefix>& prefixes,
                   CountOracle& oracle, bool predicted_expected,
                   Ledger& ledger) {
  std::vector<const RequestRecord*> order = requests;
  std::stable_sort(order.begin(), order.end(),
                   [](const RequestRecord* a, const RequestRecord* b) {
                     return a->answer.corpus_version < b->answer.corpus_version;
                   });
  for (const RequestRecord* r : order) {
    if (!r->transport_ok) {
      ledger.record("transport error");
      continue;
    }
    const auto it = prefixes.find(r->answer.corpus_version);
    if (it == prefixes.end()) {
      ledger.record("answer from an unknown corpus version " +
                    std::to_string(r->answer.corpus_version));
      continue;
    }
    oracle.advance_to(it->second.sessions, it->second.posts);
    const std::string error = check_wire(
        r->answer, oracle.expect(plan[r->plan].query), predicted_expected);
    ledger.record(error.empty() ? "" : "answer: " + error);
  }
}

/// scan_adhoc: the wire fields against the oracle, then the whole Insight
/// of an in-process `svc.run` of the same query. A mos_spearman mismatch
/// on a query narrower than the corpus is the known fault.
void verify_insights(const std::vector<const RequestRecord*>& requests,
                     const std::vector<PlannedQuery>& plan,
                     const service::QueryService& svc,
                     const InsightOracle& oracle, Ledger& ledger) {
  std::vector<std::string> errors(requests.size());
  std::vector<char> expected(requests.size(), 0);
  // Work is handed out one query at a time: the costly whole-corpus query
  // is every fourth, so a fixed stride would load one thread with all of
  // them.
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < requests.size(); i = next++) {
        const RequestRecord& r = *requests[i];
        const PlannedQuery& pq = plan[r.plan];
        if (!r.transport_ok) {
          errors[i] = "transport error";
          continue;
        }
        const ExpectedInsight want = oracle.expect(pq.query);
        const std::string wire = check_wire(r.answer, want.counts, true);
        if (!wire.empty()) {
          errors[i] = "answer: " + wire;
          continue;
        }
        const InsightVerdict v = check_insight(svc.run(pq.query), want);
        errors[i] = v.error.empty() ? "" : "insight: " + v.error;
        expected[i] = v.only_spearman && !pq.whole_corpus ? 1 : 0;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ledger.record(errors[i], expected[i] != 0);
  }
}

// ---- The live producer (dashboard_live) ----------------------------------

/// Streams `stream` into the deployment at a fixed rate: every tick one
/// chunk of calls is pushed and flushed, then one chunk of posts. Each
/// flush publishes one corpus version, recorded with the prefix of the
/// push order it holds. A traced run mirrors every chunk into the twin.
class Producer {
 public:
  Producer(Deployment& target, service::StreamIngestor* twin,
           const Corpus& stream, Prefix base)
      : target_{target}, twin_{twin}, stream_{stream}, pushed_{base} {
    prefixes_[target.service().corpus_version()] = base;
    thread_ = std::thread{[this] { loop(); }};
  }
  ~Producer() { stop(); }
  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  // Valid after stop().
  [[nodiscard]] const std::map<std::uint64_t, Prefix>& prefixes() const {
    return prefixes_;
  }
  [[nodiscard]] const std::vector<double>& flush_s() const { return flush_s_; }
  [[nodiscard]] const Ledger& ledger() const { return ledger_; }

 private:
  /// Pushes and flushes the next `n` records of `all`; `count` is the
  /// prefix counter they advance, by `weight` per record.
  template <typename Record>
  void push(const std::vector<Record>& all, std::size_t& cursor, std::size_t n,
            std::size_t& count, std::size_t weight) {
    const std::size_t end = std::min(all.size(), cursor + n);
    if (end == cursor) return;
    const std::span<const Record> chunk{all.data() + cursor, end - cursor};
    cursor = end;
    const std::size_t accepted = target_.ingestor().push_many(chunk);
    const Clock::time_point t0 = Clock::now();
    const bool flushed = target_.ingestor().flush();
    flush_s_.push_back(seconds(Clock::now() - t0));
    count += chunk.size() * weight;
    prefixes_[target_.service().corpus_version()] = pushed_;
    ledger_.record(accepted == chunk.size() && flushed
                       ? ""
                       : "producer: stream ingestor refused records");
    if (twin_ != nullptr) {
      (void)twin_->push_many(chunk);
      (void)twin_->flush();
    }
  }

  void loop() {
    const Clock::time_point start = Clock::now();
    std::size_t calls = 0;
    std::size_t posts = 0;
    for (std::size_t tick = 1; !stop_.load(); ++tick) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(kProducerTick *
                                                    static_cast<double>(tick))));
      if (stop_.load()) break;
      push(stream_.calls, calls, kTickCalls, pushed_.sessions,
           kParticipantsPerCall);
      push(stream_.posts, posts, kTickPosts, pushed_.posts, 1);
    }
  }

  Deployment& target_;
  service::StreamIngestor* twin_;
  const Corpus& stream_;
  Prefix pushed_;
  std::map<std::uint64_t, Prefix> prefixes_;
  std::vector<double> flush_s_;
  Ledger ledger_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: it uses every member above
};

// ---- Ingest rounds (ingest_backfill) --------------------------------------

/// One backfill of `corpus` into a fresh service.
Backfill fresh_backfill(const Corpus& corpus, SpanBuffer* spans) {
  usaas::core::telemetry::Registry registry;
  service::QueryServiceConfig cfg;
  cfg.telemetry = &registry;
  service::QueryService svc{cfg};
  service::StreamIngestor ingestor{svc};
  return backfill(svc, ingestor, corpus, spans);
}

/// ingest_backfill's operations: fresh backfills, repeated for `secs`.
void ingest_rounds(const Corpus& corpus, double secs, SpanBuffer* spans,
                   std::vector<Backfill>& rounds, Ledger& ledger) {
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(secs));
  do {
    rounds.push_back(fresh_backfill(corpus, spans));
    ledger.record(rounds.back().error.empty()
                      ? ""
                      : "backfill: " + rounds.back().error);
  } while (Clock::now() < stop);
}

// ---- Metrics ---------------------------------------------------------------

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

template <typename F>
double mean_of(const std::vector<Backfill>& v, F f) {
  std::vector<double> xs;
  for (const Backfill& b : v) xs.push_back(f(b));
  return mean(xs);
}

void end_to_end_metrics(const Setup& setup, const std::vector<Backfill>& ingest,
                        const Corpus& base, const QueryPhase& q,
                        double peak_rss, std::vector<Metric>& out) {
  std::vector<double> sessions_rate;
  std::vector<double> posts_rate;
  for (const Backfill& b : ingest) {
    sessions_rate.push_back(static_cast<double>(base.sessions.size()) /
                            b.sessions_s);
    posts_rate.push_back(static_cast<double>(base.posts.size()) / b.posts_s);
  }
  const std::vector<double> lat = latencies(q);
  out.push_back({"setup_s", median(setup.seconds), "s"});
  out.push_back({"peak_rss_mb", peak_rss, "MB"});
  out.push_back({"ingest_sessions_per_s", median(sessions_rate), "sessions/s"});
  out.push_back({"ingest_posts_per_s", median(posts_rate), "posts/s"});
  out.push_back({"query_per_s", median(q.block_rates), "queries/s"});
  out.push_back({"query_p50_ms", 1e3 * quantile(lat, 0.50), "ms"});
}

void per_layer_metrics(const Setup& setup, const std::vector<Backfill>& ingest,
                       const std::vector<double>& producer_flush_s,
                       const QueryPhase& untraced, const QueryPhase& traced,
                       const SpanLog& log, std::vector<Metric>& out) {
  // Ingest, per backfill of the base corpus.
  const auto engine_s = [](const Backfill& b) {
    return b.sessions.total_seconds + b.posts.total_seconds;
  };
  out.push_back({"stream_ingestor.push_s",
                 mean_of(ingest, [](const Backfill& b) { return b.push_s + b.flush_s; }),
                 "s"});
  out.push_back({"stream_ingestor.self_s",
                 mean_of(ingest, [&](const Backfill& b) {
                   return b.push_s + b.flush_s - engine_s(b);
                 }),
                 "s"});
  out.push_back({"stream_ingestor.flushes",
                 mean_of(ingest, [](const Backfill& b) {
                   return static_cast<double>(b.flushes);
                 }),
                 "count"});
  out.push_back({"correlation_engine.ingest.count_s",
                 mean_of(ingest, [](const Backfill& b) { return b.sessions.count_seconds; }),
                 "s"});
  out.push_back({"correlation_engine.ingest.plan_s",
                 mean_of(ingest, [](const Backfill& b) { return b.sessions.plan_seconds; }),
                 "s"});
  out.push_back({"correlation_engine.ingest.scatter_s",
                 mean_of(ingest, [](const Backfill& b) { return b.sessions.scatter_seconds; }),
                 "s"});
  out.push_back({"correlation_engine.ingest.summarize_s",
                 mean_of(ingest, [](const Backfill& b) { return b.sessions.summarize_seconds; }),
                 "s"});
  out.push_back({"correlation_engine.ingest.mb_moved",
                 mean_of(ingest, [](const Backfill& b) {
                   return static_cast<double>(b.sessions.bytes_moved) / 1e6;
                 }),
                 "MB"});
  out.push_back({"post_scorer.scatter_s",
                 mean_of(ingest, [](const Backfill& b) { return b.posts.scatter_seconds; }),
                 "s"});
  out.push_back({"query_service.ingest_posts.summarize_s",
                 mean_of(ingest, [](const Backfill& b) { return b.posts.summarize_seconds; }),
                 "s"});
  out.push_back({"mos_predictor.train_s", mean(setup.train_s), "s"});
  std::vector<double> flush_s = producer_flush_s;
  if (flush_s.empty()) {
    for (const Backfill& b : ingest) flush_s.push_back(b.flush_s / 2.0);
  }
  out.push_back({"stream_ingestor.flush_s", mean(flush_s), "s"});

  // Queries, per traced request: the service's own TraceRecord of the
  // request (scheduler wait, run and its laps), the twin's replayed
  // submit (scheduler overhead), the twin engine's calls, the client's
  // connect and the wire: the round trip less the submit that served it.
  std::vector<const RequestRecord*> traced_requests;
  std::vector<const RequestRecord*> sampled;
  for (const RequestRecord& r : traced.loop.requests) {
    if (!r.server || !r.replay) continue;
    traced_requests.push_back(&r);
    if (r.replay->sampled) sampled.push_back(&r);
  }
  const auto mean_over = [](const std::vector<const RequestRecord*>& rs,
                            auto f) {
    std::vector<double> xs;
    for (const RequestRecord* r : rs) xs.push_back(f(*r));
    return mean(xs);
  };
  const auto per_query = [&](auto f) { return mean_over(traced_requests, f); };
  const auto per_sample = [&](auto f) { return mean_over(sampled, f); };
  const auto server_s = [](const RequestRecord& r) {
    return r.server->wait_seconds + r.server->run_seconds;
  };
  out.push_back({"query_service.run_s",
                 per_query([](const RequestRecord& r) { return r.server->run_seconds; }),
                 "s"});
  out.push_back({"query_service.implicit_s",
                 per_query([](const RequestRecord& r) { return r.server->implicit_seconds; }),
                 "s"});
  out.push_back({"query_service.social_s",
                 per_query([](const RequestRecord& r) { return r.server->social_seconds; }),
                 "s"});
  out.push_back({"query_service.cache_probe_s",
                 per_query([](const RequestRecord& r) {
                   return r.server->cache_probe_seconds;
                 }),
                 "s"});
  out.push_back({"correlation_engine.engagement_curve_s",
                 per_sample([](const RequestRecord& r) { return r.replay->curve_s; }), "s"});
  out.push_back({"correlation_engine.mos_correlation_s",
                 per_sample([](const RequestRecord& r) { return r.replay->mos_s; }), "s"});
  out.push_back({"correlation_engine.tally_s",
                 per_sample([](const RequestRecord& r) { return r.replay->tally_s; }), "s"});
  out.push_back({"mos_predictor.predict_s",
                 per_sample([](const RequestRecord& r) {
                   return r.replay->tally_s - r.replay->tally_plain_s;
                 }),
                 "s"});
  out.push_back({"correlation_engine.shards_scanned",
                 per_query([](const RequestRecord& r) {
                   return static_cast<double>(r.server->shards_scanned);
                 }),
                 "count"});
  out.push_back({"correlation_engine.shards_from_summary",
                 per_query([](const RequestRecord& r) {
                   return static_cast<double>(r.server->shards_from_summary);
                 }),
                 "count"});
  out.push_back({"http_listener.connect_s",
                 per_query([](const RequestRecord& r) {
                   return seconds(r.timing.connected - r.timing.start);
                 }),
                 "s"});
  out.push_back({"http_listener.wire_s",
                 per_query([&](const RequestRecord& r) {
                   return seconds(r.timing.end - r.timing.connected) - server_s(r);
                 }),
                 "s"});
  out.push_back({"http_listener.wire_probe_s",
                 per_sample([](const RequestRecord& r) { return r.wire_probe_s; }), "s"});
  out.push_back({"query_scheduler.wait_s",
                 per_query([](const RequestRecord& r) { return r.server->wait_seconds; }),
                 "s"});
  out.push_back({"query_scheduler.overhead_s",
                 per_query([](const RequestRecord& r) {
                   return r.replay->submit_s - r.replay->wait_s - r.replay->run_s;
                 }),
                 "s"});
  out.push_back({"generator.lag_ms",
                 1e3 * per_query([](const RequestRecord& r) { return r.lag_s(); }), "ms"});

  // Cache and serving path, over the traced phase on the wire deployment.
  const double lookups = static_cast<double>(traced.cache_hits + traced.cache_misses);
  out.push_back({"insight_cache.hits", static_cast<double>(traced.cache_hits), "count"});
  out.push_back({"insight_cache.misses", static_cast<double>(traced.cache_misses), "count"});
  out.push_back({"insight_cache.hit_ratio",
                 lookups > 0 ? static_cast<double>(traced.cache_hits) / lookups : 0.0,
                 "ratio"});
  std::map<std::string, double> served;
  for (const RequestRecord& r : traced.loop.requests) served[r.answer.served_by] += 1;
  out.push_back({"query_service.served_by.cache", served["cache"], "count"});
  out.push_back({"query_service.served_by.summary_merge", served["summary-merge"], "count"});
  out.push_back({"query_service.served_by.scan", served["scan"], "count"});
  out.push_back({"query_service.served_by.mixed", served["mixed"], "count"});
  out.push_back({"query_service.versions_bumped",
                 static_cast<double>(traced.versions_bumped), "count"});

  // Does each request's blocking path add up? Independently measured
  // layers — lag, connect, the wire probe sent right after it, and the
  // scheduler wait and run the service traced for it — against the
  // latency the client saw.
  std::size_t within = 0;
  std::vector<double> error_s;
  for (const RequestRecord* r : sampled) {
    const double latency = r->latency_s();
    const double sum = r->lag_s() + seconds(r->timing.connected - r->timing.start) +
                       r->wire_probe_s + server_s(*r);
    error_s.push_back(sum - latency);
    if (std::abs(sum - latency) <= kEnvelopeShare * latency + kEnvelopeFloorS) ++within;
  }
  out.push_back({"trace.requests", static_cast<double>(traced_requests.size()), "count"});
  out.push_back({"trace.sampled_requests", static_cast<double>(sampled.size()), "count"});
  out.push_back({"trace.within_envelope_pct",
                 sampled.empty() ? 0.0
                                 : 100.0 * static_cast<double>(within) /
                                       static_cast<double>(sampled.size()),
                 "%"});
  out.push_back({"trace.sum_minus_latency_ms", 1e3 * mean(error_s), "ms"});
  const auto layers = log.layers();
  const auto self_of = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() || it->second.count == 0
               ? 0.0
               : it->second.self_s / static_cast<double>(it->second.count);
  };
  out.push_back({"trace.request.self_s", self_of("request"), "s"});
  out.push_back({"trace.replay.self_s", self_of("replay"), "s"});

  // Tracing overhead: traced minus untraced client latency.
  const double p50_untraced = quantile(latencies(untraced), 0.5);
  const double p50_traced = quantile(latencies(traced), 0.5);
  out.push_back({"query.untraced_p50_ms", 1e3 * p50_untraced, "ms"});
  // The tail stays a per-layer figure: on this host a run's p99 tracks
  // scheduling stalls more than the service (README.md, "End-to-end").
  out.push_back({"query.untraced_p99_ms", 1e3 * quantile(latencies(untraced), 0.99),
                 "ms"});
  out.push_back({"query.traced_p50_ms", 1e3 * p50_traced, "ms"});
  out.push_back({"tracing.overhead_ms", 1e3 * (p50_traced - p50_untraced), "ms"});
  out.push_back({"tracing.overhead_pct",
                 p50_untraced > 0 ? 100.0 * (p50_traced - p50_untraced) / p50_untraced
                                  : 0.0,
                 "%"});
}

std::vector<const RequestRecord*> all_requests(
    std::initializer_list<const QueryPhase*> phases) {
  std::vector<const RequestRecord*> out;
  for (const QueryPhase* p : phases) {
    for (const RequestRecord& r : p->loop.requests) out.push_back(&r);
  }
  return out;
}

void check_listener(const Deployment& d, Ledger& ledger) {
  const service::HttpListenerStats s = d.listener_stats();
  ledger.check(s.reconciles() && s.saturated == 0 && s.status_429 == 0 &&
                        s.status_504 == 0 && s.read_failures == 0 &&
                        s.write_failures == 0
                    ? ""
                    : "listener ledger: saturated, shed, expired or broken "
                      "connections");
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "ingest_backfill" || name == "scan_adhoc" ||
         name == "dashboard_live";
}

RunOutput run_workload(const RunArgs& args) {
  RunOutput out;
  Ledger ledger;
  SpanLog log;
  SpanBuffer* spans = args.trace ? &log.buffer() : nullptr;
  SpanLog* client_log = args.trace ? &log : nullptr;
  const Corpus base = make_corpus(kBase, args.seed);
  const Prefix base_size{base.sessions.size(), base.posts.size()};

  Setup setup;
  set_up(setup, kSetupsBefore, /*serve=*/true, base, spans, args.trace, ledger);
  Deployment& d = *setup.deployment;
  std::unique_ptr<Replayer> replayer;
  if (args.trace) replayer = std::make_unique<Replayer>(base);
  // Traced runs measure half the time untraced, half traced.
  const double phase_s = args.trace ? args.seconds / 2.0 : args.seconds;

  std::vector<Backfill> ingest;
  std::vector<double> producer_flush_s;
  QueryPhase untraced;
  QueryPhase traced;
  // When the measured work ends: read peak memory (before verification
  // allocates the oracle's working sets), then take the later set-ups.
  double peak_rss = 0.0;
  const auto measured = [&] {
    peak_rss = peak_rss_mb();
    set_up(setup, kSetupsAfter, /*serve=*/false, base, spans, args.trace,
           ledger);
  };

  // Untraced runs slice the measured load; a traced run keeps each half
  // whole, as its replays need.
  const std::size_t segments = args.trace ? 1 : kSegments;
  // The query workloads' ingest samples between slices. They are checks,
  // not operations: every run then attempts whole rounds of queries only.
  const auto sample_ingest = [&](std::size_t segment) {
    for (std::size_t k = 0; segment > 0 && k < kBackfillsPerGap; ++k) {
      setup.backfills.push_back(fresh_backfill(base, spans));
      ledger.check(setup.backfills.back().error);
    }
  };

  if (args.workload == "ingest_backfill") {
    const std::vector<PlannedQuery> plan = make_readback(args.seed);
    const auto cycle = [&plan](std::size_t offset) -> PlanPick {
      return [&plan, offset](std::size_t i) { return (offset + i) % plan.size(); };
    };
    LoopSpec spec;
    spec.open_loop = true;
    spec.rate = kReadbackRate;
    spec.replay_every = kOpenLoopReplayEvery;
    spec.seconds = (1.0 - kBackfillShare) * phase_s;
    spec.max_requests = static_cast<std::size_t>(kReadbackRate * spec.seconds) + 1;
    const double slice_s = args.seconds / static_cast<double>(segments);
    untraced = run_segments(d, plan, cycle, spec, segments, [&](std::size_t) {
      ingest_rounds(base, kBackfillShare * slice_s, spans, ingest, ledger);
    });
    if (args.trace) {
      const std::size_t offset = untraced.loop.requests.size();
      traced = run_phase(d, plan, cycle(offset), spec, replayer.get(),
                         client_log, offset);
    }
    measured();
    CountOracle oracle{base.sessions, base.post_facts};
    const std::map<std::uint64_t, Prefix> prefixes{
        {d.service().corpus_version(), base_size}};
    verify_counts(all_requests({&untraced, &traced}), plan, prefixes, oracle,
                  /*predicted_expected=*/true, ledger);
  } else if (args.workload == "scan_adhoc") {
    const auto rounds = static_cast<std::size_t>(
        kScanPlanRate * args.seconds / kScanRoundSize) + 8;
    const std::vector<PlannedQuery> plan = make_scan_rounds(rounds, args.seed);
    LoopSpec spec;
    spec.clients = kScanClients;
    spec.round_size = kScanRoundSize;
    spec.seconds = phase_s;
    spec.max_requests = plan.size();
    untraced = run_segments(
        d, plan,
        [](std::size_t offset) -> PlanPick {
          return [offset](std::size_t i) { return offset + i; };
        },
        spec, segments, sample_ingest);
    if (args.trace) {
      const std::size_t offset = untraced.loop.requests.size();
      spec.max_requests = plan.size() - offset;
      traced = run_phase(d, plan, [offset](std::size_t i) { return offset + i; },
                         spec, replayer.get(), client_log, offset);
    }
    measured();
    ingest = setup.backfills;
    // Each query's whole Insight comes from an in-process run on a service
    // backfilled with the same inputs and config but no trained predictor:
    // every field but predicted_mean_mos (checked on the wire) is computed
    // by the same code, without the per-row prediction that dominates a
    // scan's cost.
    usaas::core::telemetry::Registry registry;
    service::QueryServiceConfig cfg;
    cfg.telemetry = &registry;
    service::QueryService twin{cfg};
    service::StreamIngestor twin_ingestor{twin};
    ledger.check(backfill(twin, twin_ingestor, base, nullptr).error);
    const InsightOracle oracle{base};
    verify_insights(all_requests({&untraced, &traced}), plan, twin, oracle,
                    ledger);
  } else {  // dashboard_live
    const auto ticks =
        static_cast<std::size_t>(args.seconds / kProducerTick) + 40;
    const Corpus stream = make_corpus({ticks * kTickCalls, ticks * kTickPosts},
                                      args.seed + 0x57e4, 1'000'000'000);
    std::vector<PlannedQuery> plan;
    const std::vector<Query> dashboards = make_dashboard_set(args.seed);
    for (std::int64_t t = 0; t < kTenants; ++t) {
      for (const Query& q : dashboards) {
        plan.push_back({"tenant-" + std::to_string(t), q, false});
      }
    }
    const NuRand tenants{args.seed, 7};
    const Zipf popularity{dashboards.size(), 1.0};
    const usaas::core::Rng picks{args.seed ^ 0xd1ce};
    const auto pick_from = [&](std::size_t offset) -> PlanPick {
      return [&, offset](std::size_t i) {
        usaas::core::Rng rng = picks.split(offset + i);
        const auto tenant =
            static_cast<std::size_t>(tenants.next(rng, 0, kTenants - 1));
        return tenant * dashboards.size() + popularity.next(rng);
      };
    };
    LoopSpec spec;
    spec.open_loop = true;
    spec.rate = kDashboardRate;
    spec.replay_every = kOpenLoopReplayEvery;
    spec.seconds = phase_s;
    spec.max_requests = static_cast<std::size_t>(kDashboardRate * phase_s) + 1;
    Producer producer{d,
                      replayer ? &replayer->twin().ingestor() : nullptr,
                      stream, base_size};
    untraced = run_segments(d, plan, pick_from, spec, segments, sample_ingest);
    if (args.trace) {
      const std::size_t offset = untraced.loop.requests.size();
      traced = run_phase(d, plan, pick_from(offset), spec, replayer.get(),
                         client_log, offset);
    }
    producer.stop();
    measured();
    ingest = setup.backfills;
    ledger.merge(producer.ledger());
    producer_flush_s = producer.flush_s();
    std::vector<SessionFacts> sessions = base.sessions;
    sessions.insert(sessions.end(), stream.sessions.begin(), stream.sessions.end());
    std::vector<PostFacts> posts = base.post_facts;
    posts.insert(posts.end(), stream.post_facts.begin(), stream.post_facts.end());
    CountOracle oracle{std::move(sessions), std::move(posts)};
    verify_counts(all_requests({&untraced, &traced}), plan, producer.prefixes(),
                  oracle, /*predicted_expected=*/false, ledger);
  }

  if (!d.stop()) ledger.check("listener: a worker failed to exit");
  check_listener(d, ledger);
  if (args.trace) {
    per_layer_metrics(setup, ingest, producer_flush_s, untraced, traced, log,
                      out.metrics);
    if (!args.trace_path.empty() && !log.write(args.trace_path)) {
      ledger.check("could not write the span file " + args.trace_path);
    }
  } else {
    end_to_end_metrics(setup, ingest, base, untraced, peak_rss, out.metrics);
  }
  out.ledger = ledger;
  out.correct = ledger.unexpected == 0;
  return out;
}

}  // namespace e2ebench
