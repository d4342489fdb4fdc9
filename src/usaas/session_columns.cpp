#include "usaas/session_columns.h"

namespace usaas::service {

namespace {

/// Applies `fn` to every column, keeping the per-column operations in one
/// place so a new column cannot be added to the struct without showing up
/// in resize/reserve/memory accounting.
template <typename Columns, typename Fn>
void for_each_column(Columns& c, Fn&& fn) {
  fn(c.day_key);
  fn(c.user_id);
  fn(c.platform);
  fn(c.access);
  fn(c.meeting_size);
  fn(c.latency_mean);
  fn(c.latency_median);
  fn(c.latency_tail);
  fn(c.loss_mean);
  fn(c.loss_median);
  fn(c.loss_tail);
  fn(c.jitter_mean);
  fn(c.jitter_median);
  fn(c.jitter_tail);
  fn(c.bandwidth_mean);
  fn(c.bandwidth_median);
  fn(c.bandwidth_tail);
  fn(c.duration_s);
  fn(c.sample_count);
  fn(c.presence);
  fn(c.cam_on);
  fn(c.mic_on);
  fn(c.dropped_early);
  fn(c.mos);
  fn(c.mos_valid);
}

}  // namespace

void SessionColumns::resize_uninit(std::size_t n) {
  for_each_column(*this, [n](auto& col) { col.resize_uninit(n); });
}

void SessionColumns::reserve(std::size_t n) {
  for_each_column(*this, [n](auto& col) { col.reserve(n); });
}

void SessionColumns::shrink_to_fit() {
  for_each_column(*this, [](auto& col) { col.shrink_to_fit(); });
}

void SessionColumns::append(const core::Date& date,
                            const confsim::ParticipantRecord& rec) {
  const std::size_t i = size();
  resize_uninit(i + 1);
  set(i, pack_day_key(date), rec);
}

void SessionColumns::set(std::size_t i, std::int32_t packed_day,
                         const confsim::ParticipantRecord& rec) {
  day_key[i] = packed_day;
  user_id[i] = rec.user_id;
  platform[i] = static_cast<std::uint8_t>(rec.platform);
  access[i] = static_cast<std::uint8_t>(rec.access);
  meeting_size[i] = static_cast<std::int32_t>(rec.meeting_size);
  const netsim::SessionNetworkSummary& net = rec.network;
  latency_mean[i] = net.latency_ms.mean;
  latency_median[i] = net.latency_ms.median;
  latency_tail[i] = net.latency_ms.p95;
  loss_mean[i] = net.loss_pct.mean;
  loss_median[i] = net.loss_pct.median;
  loss_tail[i] = net.loss_pct.p95;
  jitter_mean[i] = net.jitter_ms.mean;
  jitter_median[i] = net.jitter_ms.median;
  jitter_tail[i] = net.jitter_ms.p95;
  bandwidth_mean[i] = net.bandwidth_mbps.mean;
  bandwidth_median[i] = net.bandwidth_mbps.median;
  bandwidth_tail[i] = net.bandwidth_mbps.p95;
  duration_s[i] = net.duration_seconds;
  sample_count[i] = static_cast<std::uint32_t>(net.sample_count);
  presence[i] = rec.presence_pct;
  cam_on[i] = rec.cam_on_pct;
  mic_on[i] = rec.mic_on_pct;
  dropped_early[i] = rec.dropped_early ? 1 : 0;
  mos_valid[i] = rec.mos.has_value() ? 1 : 0;
  mos[i] = rec.mos ? rec.mos->score() : 0.0;
}

confsim::ParticipantRecord SessionColumns::record(std::size_t i) const {
  confsim::ParticipantRecord rec;
  rec.user_id = user_id[i];
  rec.platform = static_cast<confsim::Platform>(platform[i]);
  rec.meeting_size = static_cast<int>(meeting_size[i]);
  rec.access = static_cast<netsim::AccessTechnology>(access[i]);
  rec.network.latency_ms = {latency_mean[i], latency_median[i],
                            latency_tail[i]};
  rec.network.loss_pct = {loss_mean[i], loss_median[i], loss_tail[i]};
  rec.network.jitter_ms = {jitter_mean[i], jitter_median[i], jitter_tail[i]};
  rec.network.bandwidth_mbps = {bandwidth_mean[i], bandwidth_median[i],
                                bandwidth_tail[i]};
  rec.network.duration_seconds = duration_s[i];
  rec.network.sample_count = sample_count[i];
  rec.presence_pct = presence[i];
  rec.cam_on_pct = cam_on[i];
  rec.mic_on_pct = mic_on[i];
  rec.dropped_early = dropped_early[i] != 0;
  if (mos_valid[i] != 0) rec.mos = core::Mos{mos[i]};
  return rec;
}

const double* SessionColumns::mean_column(netsim::Metric m) const {
  switch (m) {
    case netsim::Metric::kLatency: return latency_mean.data();
    case netsim::Metric::kLoss: return loss_mean.data();
    case netsim::Metric::kJitter: return jitter_mean.data();
    case netsim::Metric::kBandwidth: return bandwidth_mean.data();
  }
  return latency_mean.data();
}

const double* SessionColumns::tail_column(netsim::Metric m) const {
  switch (m) {
    case netsim::Metric::kLatency: return latency_tail.data();
    case netsim::Metric::kLoss: return loss_tail.data();
    case netsim::Metric::kJitter: return jitter_tail.data();
    case netsim::Metric::kBandwidth: return bandwidth_tail.data();
  }
  return latency_tail.data();
}

const double* SessionColumns::engagement_column(EngagementMetric m) const {
  switch (m) {
    case EngagementMetric::kPresence: return presence.data();
    case EngagementMetric::kCamOn: return cam_on.data();
    case EngagementMetric::kMicOn: return mic_on.data();
  }
  return presence.data();
}

std::size_t SessionColumns::memory_bytes() const {
  std::size_t bytes = 0;
  for_each_column(*this, [&bytes](const auto& col) {
    using T = std::remove_pointer_t<decltype(col.data())>;
    bytes += col.capacity() * sizeof(T);
  });
  return bytes;
}

}  // namespace usaas::service
