// A minimal loopback HTTP/1.1 client for GET /query, and the parser for
// the listener's flat JSON answer.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Client-side timestamps of one exchange.
struct WireTiming {
  Clock::time_point start;      // request began (before any connect)
  Clock::time_point connected;  // connect() returned; == start on reuse
  Clock::time_point end;        // last byte of the response read
  bool reused{false};           // sent on a kept-alive connection
};

/// One generator thread's HTTP/1.1 client. Responses are framed by
/// Content-Length; the connection is kept for the next request unless
/// the response says "Connection: close" (the listener closes after
/// every response today, so every request connects; a listener with
/// keep-alive would be measured without reconnects).
class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port) : port_{port} {}
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends `GET target` with an X-Request-Id header and reads the whole
  /// response. False on any transport error (connect, send, receive,
  /// malformed framing or a 5 s socket timeout).
  [[nodiscard]] bool get(const std::string& target, std::uint64_t request_id,
                         std::string& response, WireTiming& timing);

 private:
  bool exchange(const std::string& request, std::string& response,
                bool& close_after);
  void disconnect();

  std::uint16_t port_;
  int fd_{-1};
};

/// The fields of a /query answer the benchmark reads.
struct WireAnswer {
  int status{0};
  std::string outcome;
  std::string served_by;
  std::uint64_t corpus_version{0};
  std::uint64_t staleness{0};
  std::size_t sessions{0};
  std::size_t rated_sessions{0};
  std::size_t posts{0};
  double strong_positive_share{0.0};
  std::optional<double> predicted_mean_mos;
  std::optional<double> observed_mean_mos;
  double wait_ms{0.0};
  bool parsed{false};  // status line and every required field present
};

[[nodiscard]] WireAnswer parse_answer(const std::string& response);

}  // namespace e2ebench
