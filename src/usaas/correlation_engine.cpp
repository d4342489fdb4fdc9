#include "usaas/correlation_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/correlation.h"
#include "core/flat_index.h"
#include "core/stats.h"

namespace usaas::service {

namespace {

using core::month_key;

[[nodiscard]] double seconds_between(
    std::chrono::steady_clock::time_point a,
    std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Two-phase columnar scan kernels.
//
// Phase 1 (selection) compiles the residual predicates shard pruning could
// not discharge — date window, platform, access — into branchless compares
// over the day-key / platform / access columns and emits the matching row
// indices. Optional refines preserve the row scan's predicate order: the
// opaque ParticipantFilter runs on materialized rows *after* the structural
// predicates and *before* the confounder control check, exactly as
// record_matches -> filter -> others_in_control used to.
//
// Phase 2 (aggregation) is a tight add-only loop over the selected indices
// touching just the columns the query names. Because the selected row set,
// its order, and every value fed to Binner1D/Grid2D/sum are identical to
// the row scan's, results are bit-identical, not merely close.
// ---------------------------------------------------------------------------

constexpr std::int32_t kDayMin = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kDayMax = std::numeric_limits<std::int32_t>::max();

/// Residual per-row predicates, wildcarded so the selection loop runs all
/// four compares unconditionally: an unchecked bound widens to +-inf and an
/// unchecked equality OR-s with its `*_any` flag.
struct Residual {
  std::int32_t day_lo{kDayMin};
  std::int32_t day_hi{kDayMax};
  std::uint8_t platform{0};
  std::uint8_t platform_any{1};
  std::uint8_t access{0};
  std::uint8_t access_any{1};

  [[nodiscard]] bool none() const {
    return day_lo == kDayMin && day_hi == kDayMax && platform_any != 0 &&
           access_any != 0;
  }
};

[[nodiscard]] Residual make_residual(bool check_dates, bool check_platform,
                                     const ShardSelector& selector) {
  Residual p;
  if (check_dates) {
    // pack_day_key preserves Date ordering, so the inclusive window check
    // becomes two integer compares.
    if (selector.first) p.day_lo = SessionColumns::pack_day_key(*selector.first);
    if (selector.last) p.day_hi = SessionColumns::pack_day_key(*selector.last);
  }
  if (check_platform) {
    p.platform = static_cast<std::uint8_t>(*selector.platform);
    p.platform_any = 0;
  }
  if (selector.access) {
    p.access = static_cast<std::uint8_t>(*selector.access);
    p.access_any = 0;
  }
  return p;
}

/// The selected row set a scan aggregates over. idx == nullptr means the
/// identity [0, n) — no residual predicate survived, no index vector is
/// materialized, and the aggregation loop runs dense.
struct ScanSet {
  const std::uint32_t* idx{nullptr};
  std::size_t n{0};
};

/// Phase-1 structural selection: branchless compare-and-append over the
/// filter columns only.
[[nodiscard]] ScanSet select_structural(const SessionColumns& cols,
                                        const Residual& p,
                                        std::vector<std::uint32_t>& scratch) {
  const std::size_t n = cols.size();
  scratch.resize(n);
  const std::int32_t* day = cols.day_key.data();
  const std::uint8_t* plat = cols.platform.data();
  const std::uint8_t* acc = cols.access.data();
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned keep =
        static_cast<unsigned>(day[i] >= p.day_lo) &
        static_cast<unsigned>(day[i] <= p.day_hi) &
        (static_cast<unsigned>(plat[i] == p.platform) | p.platform_any) &
        (static_cast<unsigned>(acc[i] == p.access) | p.access_any);
    scratch[m] = static_cast<std::uint32_t>(i);
    m += keep;
  }
  scratch.resize(m);
  return {scratch.data(), m};
}

/// Compacts `in` down to the rows where `keep(row)` holds. `in.idx` may
/// alias `scratch.data()` (the write cursor never passes the read cursor);
/// an identity input materializes into `scratch`.
template <typename Keep>
[[nodiscard]] ScanSet refine(ScanSet in, std::vector<std::uint32_t>& scratch,
                             Keep&& keep) {
  std::size_t m = 0;
  if (in.idx == nullptr) {
    scratch.resize(in.n);
    for (std::size_t i = 0; i < in.n; ++i) {
      scratch[m] = static_cast<std::uint32_t>(i);
      m += static_cast<std::size_t>(keep(i) ? 1 : 0);
    }
  } else {
    for (std::size_t j = 0; j < in.n; ++j) {
      const std::uint32_t r = in.idx[j];
      scratch[m] = r;
      m += static_cast<std::size_t>(keep(r) ? 1 : 0);
    }
  }
  scratch.resize(m);
  return {scratch.data(), m};
}

/// The three non-swept metric columns + their control windows, resolved
/// once per shard so the confounder refine is three compare pairs per row.
struct ControlColumns {
  const double* col[3] = {nullptr, nullptr, nullptr};
  double lo[3] = {0.0, 0.0, 0.0};
  double hi[3] = {0.0, 0.0, 0.0};
};

[[nodiscard]] ControlColumns make_control_columns(
    const SessionColumns& cols, netsim::Metric swept,
    const netsim::ControlWindows& w, SessionAggregate agg) {
  const double los[4] = {w.latency_lo_ms, w.loss_lo_pct, w.jitter_lo_ms,
                         w.bandwidth_lo_mbps};
  const double his[4] = {w.latency_hi_ms, w.loss_hi_pct, w.jitter_hi_ms,
                         w.bandwidth_hi_mbps};
  ControlColumns out;
  std::size_t j = 0;
  for (int m = 0; m < 4; ++m) {
    if (m == static_cast<int>(swept)) continue;
    const auto metric = static_cast<netsim::Metric>(m);
    out.col[j] = agg == SessionAggregate::kP95 ? cols.tail_column(metric)
                                               : cols.mean_column(metric);
    out.lo[j] = los[m];
    out.hi[j] = his[m];
    ++j;
  }
  return out;
}

/// Resolves the swept-metric value column for the requested aggregate —
/// the array netsim::metric_value(aggregate_conditions(rec), m) reads
/// row-wise (the tail column mirrors p95_conditions verbatim, including
/// bandwidth's low-tail P5 slot).
[[nodiscard]] const double* sweep_column(const SessionColumns& cols,
                                         netsim::Metric metric,
                                         SessionAggregate agg) {
  return agg == SessionAggregate::kP95 ? cols.tail_column(metric)
                                       : cols.mean_column(metric);
}

/// True when row `r`'s three non-swept metrics sit inside their control
/// windows (the confounder filter: "other metrics roughly constant").
[[nodiscard]] bool in_control(const ControlColumns& cc, std::size_t r) {
  unsigned ok = 1;
  for (std::size_t j = 0; j < 3; ++j) {
    ok &= static_cast<unsigned>(cc.col[j][r] >= cc.lo[j]) &
          static_cast<unsigned>(cc.col[j][r] <= cc.hi[j]);
  }
  return ok != 0;
}

/// Phase-2 curve fold over one shard's survivors: the swept metric's bin
/// once per row, then one add per curve — `ys[c]` into binners[c], and
/// the widened drop-off byte into binners[kCurves] when `dropped` is set
/// (exactly the `dropped_early ? 1.0 : 0.0` the row scan fed). `control`,
/// when set, gates rows the way the confounder refine did. The curve
/// count is a template argument, so the per-row curve loop unrolls.
template <std::size_t kCurves>
void fold_curves(core::Binner1D* binners, const double* x,
                 const double* const* ys, const std::uint8_t* dropped,
                 const ControlColumns* control, ScanSet set) {
  const core::Binner1D& layout = binners[0];
  const std::size_t n_bins = layout.bin_count();
  const auto row = [&](std::size_t r) {
    if (control != nullptr && !in_control(*control, r)) return;
    const std::size_t bin = layout.bin_of(x[r]);
    if (bin >= n_bins) return;
    for (std::size_t c = 0; c < kCurves; ++c) {
      binners[c].add_to_bin(bin, ys[c][r]);
    }
    if (dropped != nullptr) {
      binners[kCurves].add_to_bin(bin, static_cast<double>(dropped[r]));
    }
  };
  if (set.idx == nullptr) {
    for (std::size_t r = 0; r < set.n; ++r) row(r);
  } else {
    for (std::size_t j = 0; j < set.n; ++j) row(set.idx[j]);
  }
}

using FoldCurves = void (*)(core::Binner1D*, const double*,
                            const double* const*, const std::uint8_t*,
                            const ControlColumns*, ScanSet);
/// fold_curves for 0..kNumEngagementMetrics curves, indexed by count.
constexpr FoldCurves kFoldCurves[] = {fold_curves<0>, fold_curves<1>,
                                      fold_curves<2>, fold_curves<3>};
static_assert(std::size(kFoldCurves) == kNumEngagementMetrics + 1);

/// Phase-2 tally and rated gather over the same survivors (either may be
/// null): session count, observed-MOS sum and rated (engagement x3, MOS).
void fold_tally_and_rated(const SessionColumns& cols,
                          CorrelationEngine::Tally* tally,
                          CorrelationEngine::RatedRows* rated, ScanSet set) {
  if (tally == nullptr && rated == nullptr) return;
  const std::uint8_t* valid = cols.mos_valid.data();
  const double* mos = cols.mos.data();
  const double* pres = cols.presence.data();
  const double* cam = cols.cam_on.data();
  const double* mic = cols.mic_on.data();
  std::size_t rated_rows = 0;
  double observed = 0.0;
  const auto row = [&](std::size_t r) {
    if (valid[r] == 0) return;
    ++rated_rows;
    observed += mos[r];
    if (rated != nullptr) {
      rated->engagement[0].push_back(pres[r]);
      rated->engagement[1].push_back(cam[r]);
      rated->engagement[2].push_back(mic[r]);
      rated->mos.push_back(mos[r]);
    }
  };
  if (set.idx == nullptr) {
    for (std::size_t r = 0; r < set.n; ++r) row(r);
  } else {
    for (std::size_t j = 0; j < set.n; ++j) row(set.idx[j]);
  }
  if (tally != nullptr) {  // a scanned shard's tally starts from zero
    tally->sessions = set.n;
    tally->rated = rated_rows;
    tally->observed_mos_sum = observed;
  }
}

/// Pearson, Spearman and the Fig-4 decile curve over paired rated samples.
[[nodiscard]] std::optional<CorrelationEngine::MosCorrelation> correlate(
    const std::vector<double>& eng, const std::vector<double>& mos,
    std::size_t min_samples) {
  if (eng.size() < min_samples) return std::nullopt;
  CorrelationEngine::MosCorrelation out;
  out.rated_sessions = eng.size();
  out.pearson = core::pearson(eng, mos);
  out.spearman = core::spearman(eng, mos);

  // Decile curve: mean MOS per engagement decile. Ties are broken on the
  // (engagement, MOS) value pair so the sorted sequence — and hence every
  // decile sum — is a function of the sample multiset alone, identical
  // across shard layouts and thread counts.
  std::vector<std::size_t> order(eng.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (eng[a] != eng[b]) return eng[a] < eng[b];
    return mos[a] < mos[b];
  });
  const std::size_t deciles = 10;
  for (std::size_t dec = 0; dec < deciles; ++dec) {
    const std::size_t lo = dec * order.size() / deciles;
    const std::size_t hi = (dec + 1) * order.size() / deciles;
    if (hi <= lo) continue;
    double eng_acc = 0.0;
    double mos_acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      eng_acc += eng[order[i]];
      mos_acc += mos[order[i]];
    }
    const auto n = static_cast<double>(hi - lo);
    out.decile_curve.push_back({eng_acc / n, mos_acc / n, hi - lo});
  }
  return out;
}

void add_fanout(QueryFanoutStats* out, const QueryFanoutStats& plan) {
  if (out == nullptr) return;
  out->shards_from_summary += plan.shards_from_summary;
  out->shards_scanned += plan.shards_scanned;
}

}  // namespace

double EngagementCurve::relative_drop_percent() const {
  if (points.size() < 2) return 0.0;
  double best = 0.0;
  for (const CurvePoint& p : points) best = std::max(best, p.engagement);
  if (best <= 0.0) return 0.0;
  return 100.0 * (best - points.back().engagement) / best;
}

EngagementCurve EngagementCurve::normalized() const {
  EngagementCurve out = *this;
  double best = 0.0;
  for (const CurvePoint& p : out.points) best = std::max(best, p.engagement);
  if (best <= 0.0) return out;
  for (CurvePoint& p : out.points) p.engagement = 100.0 * p.engagement / best;
  return out;
}

int CorrelationEngine::packed_key(const core::Date& date,
                                  confsim::Platform platform) const {
  if (sharding_ == ShardingPolicy::kSingleShard) return 0;
  return month_key(date) * confsim::kNumPlatforms + static_cast<int>(platform);
}

void CorrelationEngine::set_telemetry(core::telemetry::Registry* registry,
                                      std::string_view corpus) {
  registry_ = registry;
  corpus_ = std::string{corpus};
  if (registry == nullptr) {
    ingest_tel_ = {};
    for (SessionShard& shard : shards_) {
      shard.summary_touches = {};
      shard.scan_touches = {};
    }
    return;
  }
  const auto phase = [&](const char* name) {
    return registry->histogram(
        "usaas_ingest_batch_seconds",
        "Per-batch ingest phase durations (two-pass counted pipeline)",
        {{"corpus", corpus_}, {"phase", name}});
  };
  ingest_tel_ = {phase("count"), phase("plan"), phase("scatter"),
                 phase("summarize"), phase("total")};
  // Shards ingested before telemetry was attached get counters now;
  // shards created later register in shard_for_key.
  for (SessionShard& shard : shards_) register_shard_touches(shard);
}

void CorrelationEngine::register_shard_touches(SessionShard& shard) {
  if (registry_ == nullptr || !registry_->enabled()) return;
  std::string label;
  if (sharding_ == ShardingPolicy::kSingleShard) {
    label = "flat";
  } else {
    // Floored decode so pre-epoch (negative) month keys render sanely.
    const int mk = shard.month_key;
    const int year = (mk >= 0 ? mk : mk - 11) / 12;
    const int month = mk - year * 12 + 1;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%04d-%02d/", year, month);
    label = buf;
    label += confsim::to_string(shard.platform);
  }
  const auto touch = [&](const char* source) {
    return registry_->counter(
        "usaas_shard_touches_total",
        "Per-shard query touches by answer source (summary merge vs "
        "record scan) — the access-frequency signal for spill-to-disk "
        "eviction",
        {{"corpus", corpus_}, {"shard", label}, {"source", source}});
  };
  shard.summary_touches = touch("summary");
  shard.scan_touches = touch("scan");
}

void CorrelationEngine::note_shard_touches(
    const std::vector<SelectedShard>& selected,
    const std::vector<char>& use_summary, std::uint64_t n_summary,
    QueryFanoutStats* out) const {
  for (std::size_t i = 0; i < selected.size(); ++i) {
    (use_summary[i] ? selected[i].shard->summary_touches
                    : selected[i].shard->scan_touches)
        .add();
  }
  note_fanout(n_summary, selected.size() - n_summary, out);
}

CorrelationEngine::SessionShard& CorrelationEngine::shard_for_key(int key) {
  const auto [it, inserted] = shard_index_.try_emplace(key, shards_.size());
  if (inserted) {
    // Unpack with floored semantics so pre-epoch month keys (negative)
    // still round-trip; under kSingleShard the key is the constant 0.
    const int platform_idx =
        ((key % confsim::kNumPlatforms) + confsim::kNumPlatforms) %
        confsim::kNumPlatforms;
    SessionShard shard;
    shard.month_key = (key - platform_idx) / confsim::kNumPlatforms;
    shard.platform = static_cast<confsim::Platform>(platform_idx);
    if (summary_cfg_) shard.summary = ShardSummary{*summary_cfg_};
    register_shard_touches(shard);
    shards_.push_back(std::move(shard));
  }
  return shards_[it->second];
}

CorrelationEngine::SessionShard& CorrelationEngine::shard_for(
    const core::Date& date, confsim::Platform platform) {
  return shard_for_key(packed_key(date, platform));
}

void CorrelationEngine::append(SessionShard& shard, const core::Date& date,
                               const confsim::ParticipantRecord& rec) {
  shard.columns.append(date, rec);
  shard.summary.fold(rec);
}

void CorrelationEngine::ingest(const confsim::CallRecord& call) {
  predicted_fresh_ = false;
  for (const auto& p : call.participants) {
    append(shard_for(call.start.date, p.platform), call.start.date, p);
  }
  ingest_stats_.records += call.participants.size();
  ingest_stats_.bytes_moved +=
      call.participants.size() * SessionColumns::bytes_per_row();
}

void CorrelationEngine::ingest(std::span<const confsim::CallRecord> calls) {
  if (calls.empty()) return;
  if (calls.size() == 1) {  // the two-pass machinery isn't worth one call
    ingest(calls.front());
    return;
  }
  predicted_fresh_ = false;
  const auto t0 = std::chrono::steady_clock::now();

  // Contiguous in-order call chunks. Fan-out is capped by the pool's
  // *effective* parallelism (1 on a single-core host, where both passes
  // then run inline with a single chunk) and floored by a grain so chunks
  // stay large enough to amortize their counting structures.
  constexpr std::size_t kGrainCalls = 64;
  const std::size_t parallelism = core::effective_parallelism(pool_);
  const std::size_t chunks =
      std::min({calls.size(), parallelism * 4,
                std::max<std::size_t>(1, calls.size() / kGrainCalls)});
  const auto chunk_begin = [&](std::size_t c) {
    return c * calls.size() / chunks;
  };

  // ---- Pass 1: per-chunk x per-shard-key record counts, in parallel,
  // over a flat dense key index (no node-based map in the inner loop).
  // The count arrays persist across batches; clear() keeps their range.
  scratch_.counts.resize(chunks);
  for (core::DenseKeyCounts& c : scratch_.counts) c.clear();
  std::vector<core::DenseKeyCounts>& counts = scratch_.counts;
  core::parallel_for(pool_, chunks, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      core::DenseKeyCounts& local = counts[c];
      for (std::size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
        const core::Date date = calls[i].start.date;
        for (const auto& p : calls[i].participants) {
          local.add(packed_key(date, p.platform));
        }
      }
    }
  });
  const auto t1 = std::chrono::steady_clock::now();

  // ---- Prefix-sum the counts into a scatter plan, pre-size every
  // destination shard's columns for this batch (resize_uninit: no memset,
  // the scatter writes every new slot exactly once), and lay out the
  // batch-wide permutation space: key-major, slot order inside each key.
  const core::ScatterPlan plan = core::build_scatter_plan(counts);
  IngestStats batch;
  batch.batches = 1;
  if (plan.num_keys == 0) {  // every call in the batch was empty
    batch.total_seconds = seconds_between(t0, t1);
    batch.count_seconds = batch.total_seconds;
    ingest_stats_.merge(batch);
    return;
  }
  // Create shards first (growing shards_ may move SessionShard objects),
  // then size them and capture stable pointers.
  for (std::size_t k = 0; k < plan.num_keys; ++k) {
    if (plan.totals[k] > 0) shard_for_key(plan.min_key + static_cast<int>(k));
  }
  struct Slice {
    SessionShard* shard{nullptr};  // stable: shards_ stops growing above
    std::size_t base{0};           // first new row in the shard's columns
  };
  std::vector<Slice> slices(plan.num_keys);
  scratch_.batch_offsets.assign(plan.num_keys, 0);
  std::size_t batch_rows = 0;
  for (std::size_t k = 0; k < plan.num_keys; ++k) {
    scratch_.batch_offsets[k] = batch_rows;
    if (plan.totals[k] == 0) continue;
    SessionShard& shard = shard_for_key(plan.min_key + static_cast<int>(k));
    slices[k] = {&shard, shard.columns.size()};
    shard.columns.resize_uninit(slices[k].base + plan.totals[k]);
    batch_rows += plan.totals[k];
    ++batch.shards_touched;
  }
  batch.records = batch_rows;
  const std::vector<std::size_t>& batch_offsets = scratch_.batch_offsets;
  scratch_.perm.resize_uninit(batch_rows);
  SourceSlot* perm = scratch_.perm.data();
  const auto t2 = std::chrono::steady_clock::now();

  // ---- Pass 2a: build the permutation, in parallel over chunks. A
  // chunk's cursor row starts at the prefix-sum offsets, so slot order is
  // (chunk index, in-chunk order) == sequential ingest order, and chunks
  // write disjoint slots (no synchronization, no merge step).
  core::parallel_for(pool_, chunks, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      std::vector<std::size_t> cursor = plan.chunk_cursor(c);
      for (std::size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
        const core::Date date = calls[i].start.date;
        const std::int32_t day = SessionColumns::pack_day_key(date);
        for (const auto& p : calls[i].participants) {
          const auto k = static_cast<std::size_t>(
              packed_key(date, p.platform) - plan.min_key);
          perm[batch_offsets[k] + cursor[k]++] = {&p, day};
        }
      }
    }
  });

  // ---- Pass 2b: destination-major scatter. Tasks are contiguous slot
  // sub-ranges within one shard's slice (hot shards split across
  // workers), so every column write is sequential per task and tasks
  // touch disjoint rows. Writing all ~25 columns per slot would cycle
  // through 25 interleaved store streams — more than the store buffers
  // can combine — so the scatter runs in small blocks with a handful of
  // fused per-column passes: each pass writes <= 6 sequential streams,
  // and the block's source records (pulled into cache by the first pass,
  // prefetched a few slots ahead) are re-read from L1/L2 by the rest.
  const std::vector<core::ShardRange> tasks =
      core::plan_shard_ranges(plan.totals, parallelism, /*min_grain=*/4096);
  core::parallel_for(pool_, tasks.size(), [&](std::size_t tb, std::size_t te) {
    constexpr std::size_t kBlock = 256;  // ~47 KB of records per block
    for (std::size_t t = tb; t < te; ++t) {
      const core::ShardRange& range = tasks[t];
      const Slice& slice = slices[range.key];
      SessionColumns& cols = slice.shard->columns;
      const SourceSlot* src = perm + batch_offsets[range.key];
      // Hoisted raw destination pointers: the uint8 column stores could
      // otherwise alias the PodColumn pointer members themselves, forcing
      // the compiler to reload every column base after every store.
      std::int32_t* const day_out = cols.day_key.data() + slice.base;
      std::uint64_t* const user_out = cols.user_id.data() + slice.base;
      std::uint8_t* const plat_out = cols.platform.data() + slice.base;
      std::uint8_t* const acc_out = cols.access.data() + slice.base;
      std::int32_t* const size_out = cols.meeting_size.data() + slice.base;
      double* const lat_mean = cols.latency_mean.data() + slice.base;
      double* const lat_med = cols.latency_median.data() + slice.base;
      double* const lat_tail = cols.latency_tail.data() + slice.base;
      double* const loss_mean = cols.loss_mean.data() + slice.base;
      double* const loss_med = cols.loss_median.data() + slice.base;
      double* const loss_tail = cols.loss_tail.data() + slice.base;
      double* const jit_mean = cols.jitter_mean.data() + slice.base;
      double* const jit_med = cols.jitter_median.data() + slice.base;
      double* const jit_tail = cols.jitter_tail.data() + slice.base;
      double* const bw_mean = cols.bandwidth_mean.data() + slice.base;
      double* const bw_med = cols.bandwidth_median.data() + slice.base;
      double* const bw_tail = cols.bandwidth_tail.data() + slice.base;
      double* const dur_out = cols.duration_s.data() + slice.base;
      std::uint32_t* const samp_out = cols.sample_count.data() + slice.base;
      double* const pres_out = cols.presence.data() + slice.base;
      double* const cam_out = cols.cam_on.data() + slice.base;
      double* const mic_out = cols.mic_on.data() + slice.base;
      std::uint8_t* const drop_out = cols.dropped_early.data() + slice.base;
      double* const mos_out = cols.mos.data() + slice.base;
      std::uint8_t* const valid_out = cols.mos_valid.data() + slice.base;
      for (std::size_t s = range.begin; s < range.end; s += kBlock) {
        const std::size_t n = std::min(kBlock, range.end - s);
        const SourceSlot* blk = src + s;
        for (std::size_t i = 0; i < n; ++i) {  // header + record warm-up
          if (i + 8 < n) {
            const auto* next = reinterpret_cast<const char*>(blk[i + 8].rec);
            __builtin_prefetch(next);
            __builtin_prefetch(next + 64);
            __builtin_prefetch(next + 128);
          }
          const confsim::ParticipantRecord& r = *blk[i].rec;
          day_out[s + i] = blk[i].day;
          user_out[s + i] = r.user_id;
          plat_out[s + i] = static_cast<std::uint8_t>(r.platform);
          acc_out[s + i] = static_cast<std::uint8_t>(r.access);
          size_out[s + i] = static_cast<std::int32_t>(r.meeting_size);
        }
        for (std::size_t i = 0; i < n; ++i) {
          const netsim::SessionNetworkSummary& net = blk[i].rec->network;
          lat_mean[s + i] = net.latency_ms.mean;
          lat_med[s + i] = net.latency_ms.median;
          lat_tail[s + i] = net.latency_ms.p95;
          loss_mean[s + i] = net.loss_pct.mean;
          loss_med[s + i] = net.loss_pct.median;
          loss_tail[s + i] = net.loss_pct.p95;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const netsim::SessionNetworkSummary& net = blk[i].rec->network;
          jit_mean[s + i] = net.jitter_ms.mean;
          jit_med[s + i] = net.jitter_ms.median;
          jit_tail[s + i] = net.jitter_ms.p95;
          bw_mean[s + i] = net.bandwidth_mbps.mean;
          bw_med[s + i] = net.bandwidth_mbps.median;
          bw_tail[s + i] = net.bandwidth_mbps.p95;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const confsim::ParticipantRecord& r = *blk[i].rec;
          dur_out[s + i] = r.network.duration_seconds;
          samp_out[s + i] = static_cast<std::uint32_t>(r.network.sample_count);
          pres_out[s + i] = r.presence_pct;
          cam_out[s + i] = r.cam_on_pct;
          mic_out[s + i] = r.mic_on_pct;
          drop_out[s + i] = r.dropped_early ? 1 : 0;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const std::optional<core::Mos>& m = blk[i].rec->mos;
          valid_out[s + i] = m.has_value() ? 1 : 0;
          mos_out[s + i] = m ? m->score() : 0.0;
        }
      }
    }
  });
  const auto t3 = std::chrono::steady_clock::now();

  // ---- Pass 3 (summaries on): fold each shard's new rows into its
  // summary, straight from the columns, in slot order == sequential
  // ingest order. Shards are disjoint, so the fold parallelizes over
  // keys with no synchronization.
  if (summary_cfg_) {
    core::parallel_for(
        pool_, plan.num_keys, [&](std::size_t kb, std::size_t ke) {
          for (std::size_t k = kb; k < ke; ++k) {
            if (plan.totals[k] == 0) continue;
            slices[k].shard->summary.fold(slices[k].shard->columns,
                                          slices[k].base,
                                          slices[k].base + plan.totals[k]);
          }
        });
  }
  const auto t4 = std::chrono::steady_clock::now();

  batch.bytes_moved = batch.records * SessionColumns::bytes_per_row();
  batch.count_seconds = seconds_between(t0, t1);
  batch.plan_seconds = seconds_between(t1, t2);
  batch.scatter_seconds = seconds_between(t2, t3);
  batch.summarize_seconds = seconds_between(t3, t4);
  batch.total_seconds = seconds_between(t0, t4);
  ingest_stats_.merge(batch);
  // Telemetry reuses the timestamps already taken for IngestStats — the
  // instrumented path adds atomic observes, not extra clock reads.
  ingest_tel_.count.observe(batch.count_seconds);
  ingest_tel_.plan.observe(batch.plan_seconds);
  ingest_tel_.scatter.observe(batch.scatter_seconds);
  ingest_tel_.summarize.observe(batch.summarize_seconds);
  ingest_tel_.total.observe(batch.total_seconds);
}

std::size_t CorrelationEngine::session_count() const {
  std::size_t n = 0;
  for (const SessionShard& s : shards_) n += s.columns.size();
  return n;
}

void CorrelationEngine::configure_summaries(SummaryConfig config) {
  if (session_count() != 0) {
    throw std::logic_error(
        "CorrelationEngine::configure_summaries: corpus is not empty; "
        "summaries folded from a partial corpus would under-count");
  }
  // Validates the layout eagerly (Binner1D/Grid2D reject bad extents).
  [[maybe_unused]] const ShardSummary probe{config};
  summary_cfg_ = std::move(config);
  for (SessionShard& shard : shards_) shard.summary = ShardSummary{*summary_cfg_};
}

std::size_t CorrelationEngine::summary_memory_bytes() const {
  std::size_t bytes = 0;
  for (const SessionShard& s : shards_) bytes += s.summary.memory_bytes();
  return bytes;
}

void CorrelationEngine::refresh_predicted_tallies(
    const RowPredictor& predictor) {
  if (!summary_cfg_) return;
  core::parallel_for(pool_, shards_.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      shards_[i].summary.refresh_predicted(shards_[i].columns, predictor);
    }
  });
  predicted_fresh_ = static_cast<bool>(predictor);
}

void CorrelationEngine::shrink_to_fit() {
  core::parallel_for(pool_, shards_.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) shards_[i].columns.shrink_to_fit();
  });
}

std::vector<CorrelationEngine::SelectedShard> CorrelationEngine::select_shards(
    const ShardSelector& selector) const {
  std::vector<SelectedShard> out;
  out.reserve(shards_.size());
  for (const auto& [key, idx] : shard_index_) {
    const SessionShard& shard = shards_[idx];
    SelectedShard sel;
    sel.shard = &shard;
    if (sharding_ == ShardingPolicy::kSingleShard) {
      sel.check_dates = selector.first.has_value() || selector.last.has_value();
      sel.check_platform = selector.platform.has_value();
    } else {
      if (selector.platform && shard.platform != *selector.platform) continue;
      if (selector.first && shard.month_key < month_key(*selector.first)) {
        continue;
      }
      if (selector.last && shard.month_key > month_key(*selector.last)) {
        continue;
      }
      // Only window-boundary months whose boundary actually cuts into the
      // month still need per-record date checks: a window starting on the
      // 1st (or ending on the last day) covers its boundary month whole,
      // so the shard stays summary-answerable.
      const bool first_cuts =
          selector.first && month_key(*selector.first) == shard.month_key &&
          selector.first->day() > 1;
      const bool last_cuts =
          selector.last && month_key(*selector.last) == shard.month_key &&
          selector.last->day() <
              core::Date::days_in_month(selector.last->year(),
                                        selector.last->month());
      sel.check_dates = first_cuts || last_cuts;
    }
    out.push_back(sel);
  }
  return out;
}

CorrelationEngine::PlanResult CorrelationEngine::execute(
    const PlanSpec& plan) const {
  using Clock = std::chrono::steady_clock;
  const auto now = [&] {
    return plan.timed ? Clock::now() : Clock::time_point{};
  };
  const auto expired = [&] { return plan.expired && plan.expired(); };
  const auto abandoned = [] {
    PlanResult out;
    out.expired = true;
    return out;
  };
  const auto t0 = now();
  const std::vector<SelectedShard> selected = select_shards(plan.selector);
  const SweepSpec& sweep = plan.sweep;
  const std::size_t n_curves = plan.curves.size();
  if (n_curves > static_cast<std::size_t>(kNumEngagementMetrics)) {
    throw std::invalid_argument(
        "CorrelationEngine::execute: more curves than engagement metrics");
  }
  const bool want_curves = n_curves > 0 || plan.dropoff;

  // Summary fast path for curves: the shape must match a precomputed axis
  // exactly (metric/lo/hi/bins, mean aggregate, no confounder filter);
  // drop-off rates are never summarized.
  std::optional<std::size_t> axis;
  if (summary_cfg_ && !plan.dropoff && !sweep.control_others &&
      sweep.aggregate == SessionAggregate::kMean) {
    const SummaryAxis wanted{sweep.metric, sweep.lo, sweep.hi, sweep.bins};
    for (std::size_t a = 0; a < summary_cfg_->axes.size(); ++a) {
      if (summary_cfg_->axes[a] == wanted) {
        axis = a;
        break;
      }
    }
  }

  // Per shard: which outputs its summary answers, and whether any output
  // still needs its rows. A summary answers only a shard whose pruning is
  // fully discharged (no date cut into its month, no per-row platform
  // check) and no opaque filter. Predicted sums merge only while they are
  // fresh for the caller's predictor (refresh_predicted_tallies).
  struct ShardWork {
    bool scan{false};
    bool curves_merged{false};
    bool tally_merged{false};
    bool rated_merged{false};
    std::vector<core::Binner1D> binners;  // plan.curves..., then drop-off
    Tally tally;
    RatedRows rated;
    PlanTimings seconds;  // this shard's share of each phase
  };
  std::vector<ShardWork> work(selected.size());
  std::vector<char> from_summary(selected.size(), 0);
  std::uint64_t n_summary = 0;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const SelectedShard& sel = selected[i];
    ShardWork& w = work[i];
    const bool merge = !plan.filter && !sel.check_dates &&
                       !sel.check_platform && sel.shard->summary.enabled();
    w.curves_merged = merge && axis.has_value();
    w.tally_merged = merge && (!plan.predictor || predicted_fresh_);
    w.rated_merged = merge;
    w.scan = (want_curves && !w.curves_merged) ||
             (plan.tally && !w.tally_merged) ||
             (plan.rated && !w.rated_merged);
    from_summary[i] = w.scan ? 0 : 1;
    n_summary += w.scan ? 0 : 1;
  }
  PlanResult out;
  note_shard_touches(selected, from_summary, n_summary, &out.fanout);

  const auto t_plan = now();

  // ---- Per shard: merge what its summary answers; a scanned shard then
  // runs phase 1 (selection), phase 2 (the fold) and the prediction
  // kernel back to back over one survivor list, in scratch its worker
  // reuses across shards. The budget is checked before each shard's fold
  // and once more after the last.
  const auto access = plan.selector.access;
  std::atomic<bool> out_of_time{false};
  core::parallel_for(pool_, selected.size(), [&](std::size_t b, std::size_t e) {
    std::vector<std::uint32_t> rows;  // survivors; backs set.idx
    std::vector<double> predicted;
    for (std::size_t i = b; i < e; ++i) {
      if (out_of_time.load(std::memory_order_relaxed)) break;
      if (expired()) {
        out_of_time.store(true, std::memory_order_relaxed);
        break;
      }
      ShardWork& w = work[i];
      const auto t_start = now();
      const ShardSummary& summary = selected[i].shard->summary;
      if (want_curves) {
        w.binners.reserve(n_curves + 1);
        for (std::size_t c = 0; c < n_curves + (plan.dropoff ? 1 : 0); ++c) {
          w.binners.emplace_back(sweep.lo, sweep.hi, sweep.bins);
        }
        if (w.curves_merged) {
          for (std::size_t c = 0; c < n_curves; ++c) {
            summary.add_curve_to(w.binners[c], *axis, plan.curves[c], access);
          }
        }
      }
      if (plan.tally && w.tally_merged) {
        const SummaryTally& st = summary.tally(access);
        w.tally.sessions += st.sessions;
        w.tally.rated += st.rated;
        w.tally.observed_mos_sum += st.observed_mos_sum;
        if (plan.predictor) {
          w.tally.predicted_mos_sum += st.predicted_mos_sum;
          w.tally.predicted += st.predicted;
        }
      }
      if (plan.rated && w.rated_merged) {
        const std::size_t n = summary.tally(access).rated;
        for (std::vector<double>& column : w.rated.engagement) {
          column.reserve(n);
        }
        w.rated.mos.reserve(n);
        for (const RatedSample& rs : summary.rated()) {
          if (access && rs.access != static_cast<std::uint8_t>(*access)) {
            continue;
          }
          for (std::size_t m = 0; m < rs.engagement.size(); ++m) {
            w.rated.engagement[m].push_back(rs.engagement[m]);
          }
          w.rated.mos.push_back(rs.mos);
        }
      }
      if (!w.scan) {
        w.seconds.fold_seconds = seconds_between(t_start, now());
        continue;
      }

      // Phase 1: structural selection (+ opaque filter).
      const SelectedShard& sel = selected[i];
      const SessionColumns& cols = sel.shard->columns;
      const auto t_select = now();
      const Residual res =
          make_residual(sel.check_dates, sel.check_platform, plan.selector);
      ScanSet set{nullptr, cols.size()};
      if (!res.none()) set = select_structural(cols, res, rows);
      if (plan.filter) {
        // Materialize rows for the opaque predicate — same call set, same
        // order as the row scan (which also ran it after record_matches).
        set = refine(set, rows, [&](std::size_t r) {
          return plan.filter(cols.record(r));
        });
      }
      const auto t_fold = now();

      // Phase 2: the swept-metric bin once per row feeds every curve; the
      // tally and the rated gather take one more loop over the same
      // survivors.
      if (want_curves && !w.curves_merged) {
        std::array<const double*, kNumEngagementMetrics> ys{};
        for (std::size_t c = 0; c < n_curves; ++c) {
          ys[c] = cols.engagement_column(plan.curves[c]);
        }
        const ControlColumns cc =
            sweep.control_others
                ? make_control_columns(cols, sweep.metric, sweep.control,
                                       sweep.aggregate)
                : ControlColumns{};
        kFoldCurves[n_curves](
            w.binners.data(),
            sweep_column(cols, sweep.metric, sweep.aggregate), ys.data(),
            plan.dropoff ? cols.dropped_early.data() : nullptr,
            sweep.control_others ? &cc : nullptr, set);
      }
      fold_tally_and_rated(cols, plan.tally && !w.tally_merged ? &w.tally
                                                               : nullptr,
                           plan.rated && !w.rated_merged ? &w.rated : nullptr,
                           set);
      const auto t_predict = now();

      // Predicted MOS: the column kernel over the same survivors, summed
      // in row order into its own accumulator.
      if (plan.tally && plan.predictor && !w.tally_merged) {
        predicted.resize(set.n);
        plan.predictor.predict_rows(cols, set.idx, set.n, predicted.data());
        for (const double p : predicted) w.tally.predicted_mos_sum += p;
        w.tally.predicted += set.n;
      }
      const auto t_end = now();
      w.seconds = {seconds_between(t_select, t_fold),
                   seconds_between(t_start, t_select) +
                       seconds_between(t_fold, t_predict),
                   seconds_between(t_predict, t_end)};
    }
  });
  if (out_of_time.load(std::memory_order_relaxed) || expired()) {
    return abandoned();
  }
  const auto t_reduce = now();

  // ---- Reduce the per-shard partials in shard-key order.
  for (std::size_t c = 0; c < n_curves + (plan.dropoff ? 1 : 0); ++c) {
    core::Binner1D total{sweep.lo, sweep.hi, sweep.bins};
    for (const ShardWork& w : work) total.merge(w.binners[c]);
    std::vector<CurvePoint> points;
    for (const core::Bin& bin : total.bins()) {
      points.push_back({bin.center(), bin.mean_y, bin.count});
    }
    if (c == n_curves) {
      out.dropoff = std::move(points);
    } else {
      out.curves.push_back({sweep.metric, plan.curves[c], std::move(points)});
    }
  }
  std::size_t rated_total = 0;
  for (const ShardWork& w : work) rated_total += w.rated.mos.size();
  for (std::vector<double>& column : out.rated.engagement) {
    column.reserve(rated_total);
  }
  out.rated.mos.reserve(rated_total);
  for (const ShardWork& w : work) {
    out.tally.sessions += w.tally.sessions;
    out.tally.rated += w.tally.rated;
    out.tally.observed_mos_sum += w.tally.observed_mos_sum;
    out.tally.predicted_mos_sum += w.tally.predicted_mos_sum;
    out.tally.predicted += w.tally.predicted;
    for (std::size_t m = 0; m < out.rated.engagement.size(); ++m) {
      out.rated.engagement[m].insert(out.rated.engagement[m].end(),
                                     w.rated.engagement[m].begin(),
                                     w.rated.engagement[m].end());
    }
    out.rated.mos.insert(out.rated.mos.end(), w.rated.mos.begin(),
                         w.rated.mos.end());
  }
  if (plan.timed) {
    out.timings.select_seconds = seconds_between(t0, t_plan);
    out.timings.fold_seconds = seconds_between(t_reduce, now());
    for (const ShardWork& w : work) {
      out.timings.select_seconds += w.seconds.select_seconds;
      out.timings.fold_seconds += w.seconds.fold_seconds;
      out.timings.tally_seconds += w.seconds.tally_seconds;
    }
  }
  return out;
}

EngagementCurve CorrelationEngine::engagement_curve(
    const SweepSpec& spec, EngagementMetric engagement,
    const ParticipantFilter& filter, const ShardSelector& selector,
    QueryFanoutStats* fanout) const {
  PlanSpec plan;
  plan.selector = selector;
  plan.filter = filter;
  plan.sweep = spec;
  plan.curves = {engagement};
  PlanResult result = execute(plan);
  add_fanout(fanout, result.fanout);
  return std::move(result.curves.front());
}

std::vector<CurvePoint> CorrelationEngine::dropoff_curve(
    const SweepSpec& spec, const ParticipantFilter& filter,
    const ShardSelector& selector) const {
  PlanSpec plan;
  plan.selector = selector;
  plan.filter = filter;
  plan.sweep = spec;
  plan.dropoff = true;
  return std::move(execute(plan).dropoff);
}

std::optional<CorrelationEngine::MosCorrelation>
CorrelationEngine::mos_correlation(EngagementMetric engagement,
                                   std::size_t min_samples,
                                   QueryFanoutStats* fanout,
                                   const ShardSelector& selector) const {
  PlanSpec plan;
  plan.selector = selector;
  plan.rated = true;
  const PlanResult result = execute(plan);
  add_fanout(fanout, result.fanout);
  return correlate(
      result.rated.engagement[static_cast<std::size_t>(engagement)],
      result.rated.mos, min_samples);
}

CorrelationEngine::Tally CorrelationEngine::tally(
    const ParticipantFilter& filter, const ShardSelector& selector,
    const RowPredictor& predictor, QueryFanoutStats* fanout) const {
  PlanSpec plan;
  plan.selector = selector;
  plan.filter = filter;
  plan.tally = true;
  plan.predictor = predictor;
  const PlanResult result = execute(plan);
  add_fanout(fanout, result.fanout);
  return result.tally;
}

core::Grid2D CorrelationEngine::compounding_grid(EngagementMetric engagement,
                                                 double latency_hi_ms,
                                                 std::size_t lat_bins,
                                                 double loss_hi_pct,
                                                 std::size_t loss_bins) const {
  const auto selected = select_shards({});
  // Summary fast path: when the requested grid layout matches the
  // configured one, merge each shard's precomputed grid (same per-record
  // add sequence as the scan — bit-identical).
  const SummaryGrid wanted{latency_hi_ms, lat_bins, loss_hi_pct, loss_bins};
  const bool summary_capable =
      summary_cfg_.has_value() && wanted == summary_cfg_->grid;
  std::vector<char> use_summary(selected.size(), 0);
  std::uint64_t n_summary = 0;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    use_summary[i] = summary_capable && selected[i].shard->summary.enabled();
    n_summary += use_summary[i] ? 1 : 0;
  }
  note_shard_touches(selected, use_summary, n_summary, nullptr);
  std::vector<core::Grid2D> partials;
  partials.reserve(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    partials.emplace_back(0.0, latency_hi_ms, lat_bins, 0.0, loss_hi_pct,
                          loss_bins);
  }
  core::parallel_for(pool_, selected.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      core::Grid2D& grid = partials[i];
      if (use_summary[i] &&
          selected[i].shard->summary.add_grid_to(grid, engagement, wanted)) {
        continue;
      }
      // Dense three-column kernel: compounding_grid takes no selector or
      // filter, so there is no selection phase at all.
      const SessionColumns& cols = selected[i].shard->columns;
      const double* lat = cols.latency_mean.data();
      const double* loss = cols.loss_mean.data();
      const double* eng = cols.engagement_column(engagement);
      for (std::size_t r = 0; r < cols.size(); ++r) {
        grid.add(lat[r], loss[r], eng[r]);
      }
    }
  });
  core::Grid2D total{0.0, latency_hi_ms, lat_bins, 0.0, loss_hi_pct,
                     loss_bins};
  for (const core::Grid2D& p : partials) total.merge(p);
  return total;
}

std::vector<confsim::ParticipantRecord> CorrelationEngine::sessions() const {
  std::vector<confsim::ParticipantRecord> out;
  out.reserve(session_count());
  for (const auto& [key, idx] : shard_index_) {
    const SessionColumns& cols = shards_[idx].columns;
    for (std::size_t r = 0; r < cols.size(); ++r) {
      out.push_back(cols.record(r));
    }
  }
  return out;
}

std::vector<confsim::ParticipantRecord>
CorrelationEngine::rated_sessions_canonical() const {
  std::vector<confsim::ParticipantRecord> out;
  if (sharding_ == ShardingPolicy::kMonthPlatform) {
    for (const auto& [key, idx] : shard_index_) {
      const SessionColumns& cols = shards_[idx].columns;
      const std::uint8_t* valid = cols.mos_valid.data();
      for (std::size_t r = 0; r < cols.size(); ++r) {
        if (valid[r] != 0) out.push_back(cols.record(r));
      }
    }
    return out;
  }
  // Flat layout: stable-sort rated rows into the same (month, platform,
  // ingest) order the sharded layout yields naturally. month_key falls
  // straight out of the packed day key: year*12 + month - 1.
  struct Keyed {
    int month_key;
    int platform;
    std::size_t seq;
  };
  std::vector<Keyed> keys;
  for (const SessionShard& shard : shards_) {
    const SessionColumns& cols = shard.columns;
    const std::uint8_t* valid = cols.mos_valid.data();
    for (std::size_t r = 0; r < cols.size(); ++r) {
      if (valid[r] == 0) continue;
      const std::int32_t day = cols.day_key[r];
      keys.push_back({(day / 512) * 12 + ((day / 32) % 16) - 1,
                      static_cast<int>(cols.platform[r]), r});
    }
  }
  std::stable_sort(keys.begin(), keys.end(),
                   [](const Keyed& a, const Keyed& b) {
                     if (a.month_key != b.month_key) {
                       return a.month_key < b.month_key;
                     }
                     return a.platform < b.platform;
                   });
  out.reserve(keys.size());
  for (const Keyed& k : keys) {
    // All rated rows live in the single flat shard under this policy.
    out.push_back(shards_.front().columns.record(k.seq));
  }
  return out;
}

}  // namespace usaas::service
