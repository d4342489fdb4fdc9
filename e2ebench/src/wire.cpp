#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace e2ebench {

namespace {

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Value text of "key": in a flat JSON object (number or string), or
/// nullptr when absent.
const char* field(const std::string& body, const char* key) {
  char needle[64];
  std::snprintf(needle, sizeof needle, "\"%s\":", key);
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return nullptr;
  return body.c_str() + at + std::strlen(needle);
}

bool number(const std::string& body, const char* key, double& out) {
  const char* p = field(body, key);
  if (p == nullptr) return false;
  char* end = nullptr;
  out = std::strtod(p, &end);
  return end != p;
}

bool count(const std::string& body, const char* key, std::uint64_t& out) {
  const char* p = field(body, key);
  if (p == nullptr) return false;
  char* end = nullptr;
  out = std::strtoull(p, &end, 10);
  return end != p;
}

bool text(const std::string& body, const char* key, std::string& out) {
  const char* p = field(body, key);
  if (p == nullptr || *p != '"') return false;
  const char* end = std::strchr(p + 1, '"');
  if (end == nullptr) return false;
  out.assign(p + 1, end);
  return true;
}

}  // namespace

HttpClient::~HttpClient() { disconnect(); }

void HttpClient::disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool HttpClient::get(const std::string& target, std::uint64_t request_id,
                     std::string& response, WireTiming& timing) {
  char id[24];
  std::snprintf(id, sizeof id, "%016llx",
                static_cast<unsigned long long>(request_id));
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: localhost\r\nX-Request-Id: " +
                              id + "\r\n\r\n";
  timing.start = Clock::now();
  timing.reused = fd_ >= 0;
  bool close_after = false;
  if (timing.reused) {
    timing.connected = timing.start;
    if (exchange(request, response, close_after)) {
      timing.end = Clock::now();
      if (close_after) disconnect();
      return true;
    }
    // The server may have closed the idle connection: reconnect once.
    disconnect();
    timing.reused = false;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  timeval tv{};
  tv.tv_sec = 5;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    disconnect();
    return false;
  }
  timing.connected = Clock::now();
  const bool ok = exchange(request, response, close_after);
  timing.end = Clock::now();
  if (!ok || close_after) disconnect();
  return ok;
}

bool HttpClient::exchange(const std::string& request, std::string& response,
                          bool& close_after) {
  response.clear();
  if (!send_all(fd_, request)) return false;
  std::size_t needed = std::string::npos;
  char buf[4096];
  while (needed == std::string::npos || response.size() < needed) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    response.append(buf, static_cast<std::size_t>(n));
    if (needed != std::string::npos) continue;
    const std::size_t header_end = response.find("\r\n\r\n");
    if (header_end == std::string::npos) continue;
    std::string headers = response.substr(0, header_end);
    for (char& c : headers) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    const std::size_t cl = headers.find("\r\ncontent-length:");
    if (cl == std::string::npos) return false;
    needed = header_end + 4 +
             std::strtoull(headers.c_str() + cl + 17, nullptr, 10);
    close_after = headers.find("\r\nconnection: close") != std::string::npos;
  }
  return response.size() == needed;
}

WireAnswer parse_answer(const std::string& response) {
  WireAnswer a;
  if (std::sscanf(response.c_str(), "HTTP/1.1 %d", &a.status) != 1) return a;
  const std::size_t body_at = response.find("\r\n\r\n");
  if (body_at == std::string::npos) return a;
  const std::string body = response.substr(body_at + 4);
  std::uint64_t sessions = 0;
  std::uint64_t rated = 0;
  std::uint64_t posts = 0;
  a.parsed = text(body, "outcome", a.outcome) &&
             text(body, "served_by", a.served_by) &&
             count(body, "corpus_version", a.corpus_version) &&
             count(body, "staleness", a.staleness) &&
             count(body, "sessions", sessions) &&
             count(body, "rated_sessions", rated) &&
             count(body, "posts", posts) &&
             number(body, "strong_positive_share", a.strong_positive_share) &&
             number(body, "wait_ms", a.wait_ms);
  a.sessions = sessions;
  a.rated_sessions = rated;
  a.posts = posts;
  double v = 0.0;
  if (number(body, "predicted_mean_mos", v)) a.predicted_mean_mos = v;
  if (number(body, "observed_mean_mos", v)) a.observed_mean_mos = v;
  return a;
}

}  // namespace e2ebench
