// Load generation over the wire, and the traced run's in-process replay.
//
// run_loop drives up to kClients concurrent generator threads, each with
// at most one connection in flight:
//   * closed loop — a client takes the next whole round of requests and
//     sends each one only after the previous answer arrived; no round
//     starts after the stop time, and a started round always finishes;
//   * open loop — request i is due at start + i / rate whatever the
//     service does; a free thread takes the next due request, so a stall
//     makes later requests late, and that lateness counts in their
//     latency (measured from the due time, not the send time).
//
// In a traced run every answered request is replayed in-process, by the
// same client thread right after the wire answer, on a twin deployment
// built from the same inputs (QueryScheduler::submit, timed). Every
// request of a closed loop, and every n-th of an open one (LoopSpec), is
// also followed by a wire probe and replayed on a twin CorrelationEngine
// (each engine call the Insight makes, timed).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/telemetry/request_trace.h"
#include "deployment.h"
#include "inputs.h"
#include "spans.h"
#include "usaas/correlation_engine.h"
#include "usaas/mos_predictor.h"
#include "wire.h"

namespace e2ebench {

inline constexpr std::size_t kClients = 4;

/// What the traced replay measured for one request. The scheduler part is
/// replayed for every request (so the twin's insight cache sees the same
/// traffic as the wire deployment's); the engine part and the wire probe
/// only for sampled ones (`sampled`).
struct Replay {
  bool sampled{false};
  double submit_s{0.0};    // QueryScheduler::submit on the twin
  double wait_s{0.0};      // ScheduledResult::wait_seconds
  double run_s{0.0};       // Insight::execution.seconds
  double cache_probe_s{0.0};
  double implicit_s{0.0};
  double social_s{0.0};
  double curve_s{0.0};     // 3 x engagement_curve on the twin engine
  double mos_s{0.0};       // 3 x mos_correlation
  double tally_s{0.0};     // tally with the predictor
  double tally_plain_s{0.0};  // tally without it
  std::uint64_t shards_scanned{0};
  std::uint64_t shards_from_summary{0};
};

struct RequestRecord {
  std::size_t plan{0};  // index of the PlannedQuery sent
  std::uint64_t id{0};  // X-Request-Id, hence the service's trace id
  Clock::time_point due;
  WireTiming timing;
  bool transport_ok{false};
  /// Traced runs: exchange time of a request the listener answers
  /// without the scheduler (404), sent right after this one — the wire
  /// layer under the same load.
  double wire_probe_s{0.0};
  WireAnswer answer;
  // Traced runs only (pointers keep untraced records small: a run keeps
  // tens of thousands and its peak memory is a metric).
  std::unique_ptr<Replay> replay;
  /// The TraceRecord the service kept for this very request.
  std::unique_ptr<usaas::core::telemetry::TraceRecord> server;

  [[nodiscard]] double latency_s() const { return seconds(timing.end - due); }
  [[nodiscard]] double lag_s() const { return seconds(timing.start - due); }
};

struct LoopSpec {
  std::size_t clients{kClients};    // generator threads, at most kClients
  bool open_loop{false};
  double rate{0.0};                 // open loop: requests per second
  std::size_t round_size{1};        // closed loop: requests per round
  std::size_t max_requests{0};      // hard cap on requests sent
  double seconds{0.0};              // stop time, from the loop's start
  /// Traced runs probe the wire and replay the engine calls for every
  /// n-th request (an open loop cannot absorb them after every request
  /// without falling behind its schedule).
  std::size_t replay_every{1};
};

/// Chooses the plan entry for request `i`.
using PlanPick = std::function<std::size_t(std::size_t i)>;

/// The twin deployment and engine a traced run replays on.
class Replayer {
 public:
  explicit Replayer(const Corpus& corpus);
  /// QueryScheduler::submit of the query on the twin, timed.
  void submit(const PlannedQuery& q, std::uint64_t request, SpanBuffer& spans,
              Replay& out);
  /// The engine calls the Insight makes, each timed, on the twin engine.
  void engine_calls(const PlannedQuery& q, std::uint64_t request,
                    SpanBuffer& spans, Replay& out);
  [[nodiscard]] Deployment& twin() { return twin_; }

 private:
  Deployment twin_;
  usaas::service::CorrelationEngine engine_;
  usaas::service::MosPredictor predictor_;
};

struct LoopResult {
  std::vector<RequestRecord> requests;  // in request order
  Clock::time_point start;
  Clock::time_point end;
};

/// Runs the loop against `port`. `replayer` (traced runs only) replays
/// each answered request; `log` receives the client-side spans.
[[nodiscard]] LoopResult run_loop(std::uint16_t port,
                                  const std::vector<PlannedQuery>& plan,
                                  const PlanPick& pick, const LoopSpec& spec,
                                  Replayer* replayer, SpanLog* log,
                                  std::uint64_t request_id_base);

}  // namespace e2ebench
