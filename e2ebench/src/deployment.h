// The service under test, assembled the way an operator would run it:
// QueryService (default configuration, its own telemetry registry)
// <- StreamIngestor (default configuration) for every record, a trained
// MOS predictor, and QueryScheduler + HttpListener (defaults) in front.
//
// The only settings changed from their defaults are the scheduler's
// default tenant QoS, raised so no benchmark tenant is ever rate-limited
// (the benchmark measures service time, not admission policy), and the
// budget each request names (kBudgetMs).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/telemetry/metrics.h"
#include "inputs.h"
#include "spans.h"
#include "usaas/http_listener.h"
#include "usaas/query_scheduler.h"
#include "usaas/query_service.h"
#include "usaas/stream_ingestor.h"

namespace e2ebench {

/// Per-request budget: far above any service time here, so nothing
/// expires.
inline constexpr double kBudgetMs = 5000.0;

/// One StreamIngestor backfill of a corpus: calls pushed with push_many
/// then flush(), then posts the same way.
struct Backfill {
  double sessions_s{0.0};  // push_many(calls) + flush()
  double posts_s{0.0};     // push_many(posts) + flush()
  double push_s{0.0};      // the two push_many calls
  double flush_s{0.0};     // the two explicit flush() calls
  std::uint64_t flushes{0};  // every flush, watermark ones included
  usaas::service::IngestStats sessions;  // engine deltas
  usaas::service::IngestStats posts;
  std::string error;  // "" when every record landed
};

[[nodiscard]] Backfill backfill(usaas::service::QueryService& service,
                                usaas::service::StreamIngestor& ingestor,
                                const Corpus& corpus, SpanBuffer* spans);


class Deployment {
 public:
  /// Builds the service, backfills `corpus`, trains the predictor and
  /// (when `listen`) starts the HTTP listener on an ephemeral port.
  /// `keep_traces` (traced runs) makes the service's request tracer keep
  /// every TraceRecord, so each wire request's own scheduler wait and run
  /// laps can be read back by its X-Request-Id.
  Deployment(const Corpus& corpus, bool listen, SpanBuffer* spans,
             bool keep_traces = false);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] usaas::service::QueryService& service() { return *service_; }
  [[nodiscard]] usaas::service::StreamIngestor& ingestor() {
    return *ingestor_;
  }
  [[nodiscard]] usaas::service::QueryScheduler& scheduler() {
    return *scheduler_;
  }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const Backfill& initial_backfill() const { return backfill_; }
  [[nodiscard]] double train_s() const { return train_s_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] usaas::service::HttpListenerStats listener_stats() const;
  /// Stops the listener; false when a worker failed to exit in time.
  bool stop();

 private:
  std::unique_ptr<usaas::core::telemetry::Registry> registry_;
  std::unique_ptr<usaas::service::QueryService> service_;
  std::unique_ptr<usaas::service::StreamIngestor> ingestor_;
  std::unique_ptr<usaas::service::QueryScheduler> scheduler_;
  std::unique_ptr<usaas::service::HttpListener> listener_;
  Backfill backfill_;
  double train_s_{0.0};
  std::uint16_t port_{0};
  std::string error_;
};

}  // namespace e2ebench
