// Spans the traced run records around calls into each layer.
//
// A span is (name, start, end, parent, request id). Each thread records
// into its own SpanBuffer, so recording takes no lock; buffers live in the
// SpanLog until the run ends, when they are summarized per layer (total
// and self time, self = the span less the part its children cover) and
// written out as JSON lines. A null SpanBuffer* records nothing, which is
// how the untraced run pays no tracing cost.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "wire.h"

namespace e2ebench {

struct Span {
  const char* name{nullptr};
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id{0};
  std::uint64_t parent{0};   // 0 = root
  std::uint64_t request{0};  // 0 = not part of a request
};

class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint64_t id_base) : next_id_{id_base} {}

  /// Opens a span nested in the innermost open one; returns its id.
  std::uint64_t open(const char* name, std::uint64_t request);
  void close(std::uint64_t id);
  /// Records an already-finished span as a child of the innermost open
  /// one (or of `parent` when given); returns its id.
  std::uint64_t add(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t request,
                    std::uint64_t parent = 0);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_id_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices into spans_
};

/// RAII span over a possibly-null buffer.
class SpanScope {
 public:
  SpanScope(SpanBuffer* buffer, const char* name, std::uint64_t request = 0)
      : buffer_{buffer},
        id_{buffer != nullptr ? buffer->open(name, request) : 0} {}
  ~SpanScope() {
    if (buffer_ != nullptr) buffer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanBuffer* buffer_;
  std::uint64_t id_;
};

struct LayerTime {
  std::size_t count{0};
  double total_s{0.0};
  double self_s{0.0};
};

class SpanLog {
 public:
  /// A buffer for one thread (stable address; owned by the log).
  SpanBuffer& buffer();

  [[nodiscard]] std::vector<Span> all() const;
  /// Per span name: count, summed duration and summed self time.
  [[nodiscard]] std::map<std::string, LayerTime> layers() const;
  /// One JSON object per span, times in microseconds from the first span.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::deque<SpanBuffer> buffers_;
};

}  // namespace e2ebench
