#include "loop.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>

namespace e2ebench {

namespace service = usaas::service;

namespace {

/// An open loop sleeps until this long before a request is due and spins
/// the rest: on a virtual machine a sleeping generator can wake ~0.1 ms
/// late, and far later while its host steals CPU, which would count as
/// latency.
constexpr auto kSpinBeforeDue = std::chrono::microseconds{300};

void wait_until(Clock::time_point due) {
  std::this_thread::sleep_until(due - kSpinBeforeDue);
  while (Clock::now() < due) {
  }
}

}  // namespace

Replayer::Replayer(const Corpus& corpus)
    : twin_{corpus, /*listen=*/false, nullptr},
      engine_{service::ShardingPolicy::kMonthPlatform} {
  // The engine as QueryService configures it: month x platform shards,
  // default summaries, one batch of every call, predicted-MOS tallies
  // refreshed from a predictor trained on the same rated sessions.
  engine_.configure_summaries(service::SummaryConfig{});
  engine_.ingest(std::span<const usaas::confsim::CallRecord>{corpus.calls});
  predictor_.train(engine_.rated_sessions_canonical());
  engine_.refresh_predicted_tallies(
      [this](const usaas::confsim::ParticipantRecord& r) {
        return predictor_.predict(r);
      });
}

void Replayer::submit(const PlannedQuery& pq, std::uint64_t request,
                      SpanBuffer& spans, Replay& out) {
  const Query& q = pq.query;
  {
    const Clock::time_point t0 = Clock::now();
    const service::ScheduledResult r =
        twin_.scheduler().submit(pq.tenant, q, kBudgetMs / 1000.0);
    const Clock::time_point t1 = Clock::now();
    spans.add("query_scheduler.submit", t0, t1, request);
    out.submit_s = seconds(t1 - t0);
    out.wait_s = r.wait_seconds;
    const service::QueryExecution& e = r.insight.execution;
    out.run_s = e.seconds;
    out.cache_probe_s = e.cache_probe_seconds;
    out.implicit_s = e.implicit_seconds;
    out.social_s = e.social_seconds;
  }
}

void Replayer::engine_calls(const PlannedQuery& pq, std::uint64_t request,
                            SpanBuffer& spans, Replay& out) {
  const Query& q = pq.query;
  out.sampled = true;
  const service::ShardSelector selector{q.first, q.last, q.platform, q.access};
  service::SweepSpec spec;
  spec.metric = q.metric;
  spec.lo = q.metric_lo;
  spec.hi = q.metric_hi;
  spec.bins = q.bins;
  spec.control_others = false;
  service::QueryFanoutStats fanout;
  constexpr service::EngagementMetric kMetrics[] = {
      service::EngagementMetric::kPresence, service::EngagementMetric::kCamOn,
      service::EngagementMetric::kMicOn};
  const auto timed = [&](const char* name, auto&& call) {
    const Clock::time_point t0 = Clock::now();
    call();
    const Clock::time_point t1 = Clock::now();
    spans.add(name, t0, t1, request);
    return seconds(t1 - t0);
  };
  out.curve_s = timed("correlation_engine.engagement_curve", [&] {
    for (const auto m : kMetrics) {
      (void)engine_.engagement_curve(spec, m, nullptr, selector, &fanout);
    }
  });
  out.mos_s = timed("correlation_engine.mos_correlation", [&] {
    for (const auto m : kMetrics) (void)engine_.mos_correlation(m, 50, &fanout);
  });
  const std::function<double(const usaas::confsim::ParticipantRecord&)>
      predict = [this](const usaas::confsim::ParticipantRecord& r) {
        return predictor_.predict(r);
      };
  out.tally_s = timed("correlation_engine.tally", [&] {
    (void)engine_.tally(nullptr, selector, predict, &fanout);
  });
  out.tally_plain_s = timed("correlation_engine.tally_unpredicted", [&] {
    (void)engine_.tally(nullptr, selector, nullptr, nullptr);
  });
  out.shards_scanned = fanout.shards_scanned;
  out.shards_from_summary = fanout.shards_from_summary;
}

LoopResult run_loop(std::uint16_t port, const std::vector<PlannedQuery>& plan,
                    const PlanPick& pick, const LoopSpec& spec,
                    Replayer* replayer, SpanLog* log,
                    std::uint64_t request_id_base) {
  LoopResult result;
  // One record list per generator thread, merged in request order.
  std::vector<std::vector<RequestRecord>> records(spec.clients);
  std::atomic<std::size_t> next{0};
  result.start = Clock::now();
  const Clock::time_point stop =
      result.start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(spec.seconds));
  const double period = spec.open_loop ? 1.0 / spec.rate : 0.0;

  const auto send = [&](std::size_t i, Clock::time_point due,
                        HttpClient& client, SpanBuffer* spans,
                        std::vector<RequestRecord>& out) {
    RequestRecord& rec = out.emplace_back();
    rec.plan = pick(i);
    rec.due = due;
    rec.id = request_id_base + i + 1;
    const std::uint64_t id = rec.id;
    const PlannedQuery& pq = plan[rec.plan];
    std::string response;
    rec.transport_ok =
        client.get(query_target(pq, kBudgetMs), id, response, rec.timing);
    if (!rec.transport_ok) rec.timing.end = Clock::now();
    if (rec.transport_ok) rec.answer = parse_answer(response);
    if (spans == nullptr) return;
    // The request span runs from the due time, so the generator's
    // lateness is one of its children.
    const std::uint64_t root =
        spans->add("request", due, rec.timing.end, id);
    spans->add("generator.lag", due, rec.timing.start, id, root);
    if (!rec.transport_ok) return;
    spans->add("http_listener.connect", rec.timing.start, rec.timing.connected,
               id, root);
    spans->add("http_listener.exchange", rec.timing.connected, rec.timing.end,
               id, root);
    if (replayer == nullptr) return;
    const bool sampled = i % spec.replay_every == 0;
    WireTiming probe;
    if (sampled && client.get("/wire-probe", 0, response, probe)) {
      rec.wire_probe_s = seconds(probe.end - probe.connected);
      spans->add("http_listener.wire_probe", probe.connected, probe.end, id);
    }
    const SpanScope replay{spans, "replay", id};
    rec.replay = std::make_unique<Replay>();
    replayer->submit(pq, id, *spans, *rec.replay);
    if (sampled) replayer->engine_calls(pq, id, *spans, *rec.replay);
  };

  const auto generator = [&](std::vector<RequestRecord>& out) {
    SpanBuffer* spans = log != nullptr ? &log->buffer() : nullptr;
    HttpClient client{port};
    for (;;) {
      if (spec.open_loop) {
        const std::size_t i = next.fetch_add(1);
        const Clock::time_point due =
            result.start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   period * static_cast<double>(i)));
        if (i >= spec.max_requests || due >= stop) return;
        wait_until(due);
        send(i, due, client, spans, out);
      } else {
        const std::size_t r = next.fetch_add(1);
        const std::size_t first = r * spec.round_size;
        if (first + spec.round_size > spec.max_requests ||
            Clock::now() >= stop) {
          return;
        }
        for (std::size_t k = 0; k < spec.round_size; ++k) {
          send(first + k, Clock::now(), client, spans, out);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(spec.clients);
  for (std::size_t c = 0; c < spec.clients; ++c) {
    threads.emplace_back(generator, std::ref(records[c]));
  }
  for (std::thread& t : threads) t.join();
  result.end = Clock::now();
  std::size_t total = 0;
  for (const std::vector<RequestRecord>& list : records) total += list.size();
  result.requests.reserve(total);
  for (std::vector<RequestRecord>& list : records) {
    for (RequestRecord& r : list) result.requests.push_back(std::move(r));
    std::vector<RequestRecord>{}.swap(list);  // free as we go
  }
  std::sort(result.requests.begin(), result.requests.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.id < b.id;
            });
  return result;
}

}  // namespace e2ebench
