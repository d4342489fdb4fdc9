#include "deployment.h"

namespace e2ebench {

namespace service = usaas::service;

namespace {

service::IngestStats minus(const service::IngestStats& a,
                           const service::IngestStats& b) {
  service::IngestStats d;
  d.batches = a.batches - b.batches;
  d.records = a.records - b.records;
  d.bytes_moved = a.bytes_moved - b.bytes_moved;
  d.shards_touched = a.shards_touched - b.shards_touched;
  d.count_seconds = a.count_seconds - b.count_seconds;
  d.plan_seconds = a.plan_seconds - b.plan_seconds;
  d.scatter_seconds = a.scatter_seconds - b.scatter_seconds;
  d.summarize_seconds = a.summarize_seconds - b.summarize_seconds;
  d.total_seconds = a.total_seconds - b.total_seconds;
  return d;
}

}  // namespace

Backfill backfill(service::QueryService& svc, service::StreamIngestor& ingestor,
                  const Corpus& corpus, SpanBuffer* spans) {
  Backfill out;
  const SpanScope whole{spans, "stream_ingestor.backfill"};
  const auto sessions0 = svc.session_ingest_stats();
  const auto posts0 = svc.post_ingest_stats();
  const auto flushes0 = ingestor.stats().health.flushes;
  const std::size_t have_sessions = svc.ingested_sessions();
  const std::size_t have_posts = svc.ingested_posts();

  const Clock::time_point t0 = Clock::now();
  const std::size_t calls_in = ingestor.push_many(
      std::span<const usaas::confsim::CallRecord>{corpus.calls});
  const Clock::time_point t1 = Clock::now();
  const bool calls_ok = ingestor.flush();
  const Clock::time_point t2 = Clock::now();
  const std::size_t posts_in = ingestor.push_many(
      std::span<const usaas::social::Post>{corpus.posts});
  const Clock::time_point t3 = Clock::now();
  const bool posts_ok = ingestor.flush();
  const Clock::time_point t4 = Clock::now();
  if (spans != nullptr) {
    spans->add("stream_ingestor.push_many.calls", t0, t1, 0);
    spans->add("stream_ingestor.flush", t1, t2, 0);
    spans->add("stream_ingestor.push_many.posts", t2, t3, 0);
    spans->add("stream_ingestor.flush", t3, t4, 0);
  }

  out.sessions_s = seconds(t2 - t0);
  out.posts_s = seconds(t4 - t2);
  out.push_s = seconds(t1 - t0) + seconds(t3 - t2);
  out.flush_s = seconds(t2 - t1) + seconds(t4 - t3);
  const auto stats = ingestor.stats();
  out.flushes = stats.health.flushes - flushes0;
  out.sessions = minus(svc.session_ingest_stats(), sessions0);
  out.posts = minus(svc.post_ingest_stats(), posts0);
  if (calls_in != corpus.calls.size() || posts_in != corpus.posts.size() ||
      !calls_ok || !posts_ok || stats.health.quarantined != 0 ||
      stats.health.rejected != 0 || stats.health.dropped != 0) {
    out.error = "stream ingestor refused or quarantined records";
  } else if (svc.ingested_sessions() !=
                 have_sessions + corpus.sessions.size() ||
             svc.ingested_posts() != have_posts + corpus.posts.size()) {
    out.error = "service record counts disagree with the records pushed";
  }
  return out;
}

Deployment::Deployment(const Corpus& corpus, bool listen, SpanBuffer* spans,
                       bool keep_traces) {
  registry_ = std::make_unique<usaas::core::telemetry::Registry>();
  service::QueryServiceConfig cfg;
  cfg.telemetry = registry_.get();
  if (keep_traces) {
    cfg.trace.sampling = usaas::core::telemetry::TraceSampling::kAll;
    cfg.trace.tail_entries = std::size_t{1} << 16;
  }
  service_ = std::make_unique<service::QueryService>(cfg);
  ingestor_ = std::make_unique<service::StreamIngestor>(*service_);
  backfill_ = backfill(*service_, *ingestor_, corpus, spans);
  error_ = backfill_.error;
  {
    const SpanScope span{spans, "mos_predictor.train"};
    const Clock::time_point t0 = Clock::now();
    if (!service_->train_predictor()) error_ = "predictor failed to train";
    train_s_ = seconds(Clock::now() - t0);
  }
  service::SchedulerConfig sched;
  sched.default_qos = {1e9, 1e9};
  scheduler_ = std::make_unique<service::QueryScheduler>(*service_, sched);
  if (listen) {
    const SpanScope span{spans, "http_listener.start"};
    listener_ = std::make_unique<service::HttpListener>(*scheduler_, *service_);
    if (!listener_->start()) {
      error_ = "listener failed to start";
    } else {
      port_ = listener_->port();
    }
  }
}

service::HttpListenerStats Deployment::listener_stats() const {
  return listener_ ? listener_->stats() : service::HttpListenerStats{};
}

bool Deployment::stop() { return listener_ ? listener_->stop() : true; }

}  // namespace e2ebench
