#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

namespace e2ebench {

std::uint64_t SpanBuffer::open(const char* name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.id = ++next_id_;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.request = request;
  s.start = Clock::now();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return s.id;
}

void SpanBuffer::close(std::uint64_t id) {
  const Clock::time_point now = Clock::now();
  // Spans close innermost-first; anything left above `id` is closed too.
  while (!open_.empty()) {
    Span& s = spans_[open_.back()];
    open_.pop_back();
    s.end = now;
    if (s.id == id) break;
  }
}

std::uint64_t SpanBuffer::add(const char* name, Clock::time_point start,
                              Clock::time_point end, std::uint64_t request,
                              std::uint64_t parent) {
  Span s;
  s.name = name;
  s.id = ++next_id_;
  s.parent = parent != 0 ? parent
                         : (open_.empty() ? 0 : spans_[open_.back()].id);
  s.request = request;
  s.start = start;
  s.end = end;
  spans_.push_back(s);
  return s.id;
}

SpanBuffer& SpanLog::buffer() {
  const std::lock_guard<std::mutex> lock{mu_};
  // Ids stay unique across buffers: each buffer owns a 2^40 id range.
  buffers_.emplace_back(static_cast<std::uint64_t>(buffers_.size() + 1) << 40);
  return buffers_.back();
}

std::vector<Span> SpanLog::all() const {
  const std::lock_guard<std::mutex> lock{mu_};
  std::vector<Span> out;
  for (const SpanBuffer& b : buffers_) {
    out.insert(out.end(), b.spans().begin(), b.spans().end());
  }
  return out;
}

std::map<std::string, LayerTime> SpanLog::layers() const {
  const std::vector<Span> spans = all();
  std::unordered_map<std::uint64_t, double> child_time;
  for (const Span& s : spans) {
    if (s.parent != 0) child_time[s.parent] += seconds(s.end - s.start);
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans) {
    LayerTime& t = out[s.name];
    const double d = seconds(s.end - s.start);
    ++t.count;
    t.total_s += d;
    const auto it = child_time.find(s.id);
    t.self_s += d - (it == child_time.end() ? 0.0 : it->second);
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  const std::vector<Span> spans = all();
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f{
      std::fopen(path.c_str(), "w"), &std::fclose};
  if (!f) return false;
  Clock::time_point epoch = Clock::time_point::max();
  for (const Span& s : spans) epoch = std::min(epoch, s.start);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  for (const Span& s : spans) {
    std::fprintf(f.get(),
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 s.name, us(s.start), us(s.end),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return true;
}

}  // namespace e2ebench
