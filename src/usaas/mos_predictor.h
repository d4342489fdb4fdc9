// MOS prediction from engagement + network conditions (§5).
//
// The paper's motivation: MOS is sampled (0.1-1 % of sessions) and
// delayed, while engagement signals exist for every session. If MOS is
// predictable from engagement + network metrics, USaaS can backfill call
// quality for the unsampled 99 %. MosPredictor trains a ridge-regularized
// linear model on the rated subset and evaluates on held-out raters,
// against two baselines (constant mean; network-metrics-only).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "confsim/call.h"
#include "core/regression.h"
#include "usaas/session_columns.h"

namespace usaas::service {

struct MosPredictorConfig {
  double ridge{1.0};
  /// Fraction of rated sessions held out for evaluation.
  double holdout_fraction{0.3};
  std::uint64_t split_seed{2023};
};

/// Evaluation of one model variant.
struct MosEvaluation {
  core::RegressionMetrics full;          // engagement + network features
  core::RegressionMetrics network_only;  // network features only
  core::RegressionMetrics engagement_only;
  core::RegressionMetrics mean_baseline; // predict the training mean
  std::size_t train_sessions{0};
  std::size_t test_sessions{0};
};

class MosPredictor {
 public:
  explicit MosPredictor(MosPredictorConfig config = {});

  /// The paper's minimum rated-subset size for a usable fit.
  static constexpr std::size_t kMinRatedSessions = 30;

  /// Trains on the rated subset of the sessions. Throws std::runtime_error
  /// when fewer than kMinRatedSessions rated sessions exist; the predictor
  /// is left untrained (never with a stale earlier model) in that case.
  /// Retraining on new data is always safe.
  void train(std::span<const confsim::ParticipantRecord> sessions);

  [[nodiscard]] bool trained() const { return trained_; }

  /// Returns to the untrained state, dropping any fitted model.
  void reset();

  /// Predicts MOS for any session (rated or not).
  [[nodiscard]] double predict(const confsim::ParticipantRecord& rec) const;

  /// The 7-column prediction kernel: out[j] = predict(cols.record(r)) for
  /// the j-th row r of `rows` (the identity 0..n-1 when rows is null). It
  /// reads the engagement and session-mean metric columns directly, with
  /// predict()'s feature order, add order and clamp, so every value is
  /// bit-identical to predict() on the materialized record.
  void predict_rows(const SessionColumns& cols, const std::uint32_t* rows,
                    std::size_t n, double* out) const;

  /// Train/test evaluation with baselines.
  [[nodiscard]] MosEvaluation evaluate(
      std::span<const confsim::ParticipantRecord> sessions) const;

  /// The 7 features: presence, cam, mic, latency, loss, jitter, bandwidth.
  static constexpr std::size_t kNumFeatures = 7;
  [[nodiscard]] static std::array<double, kNumFeatures> features(
      const confsim::ParticipantRecord& rec);

 private:
  MosPredictorConfig config_;
  core::LinearModel model_;
  bool trained_{false};
};

/// Per-row MOS prediction over a column store, as query plans and summary
/// refreshes consume it: a trained MosPredictor runs as its 7-column
/// kernel; any other callable sees each row materialized as a record.
/// Holds a MosPredictor by reference (it must outlive this object).
class RowPredictor {
 public:
  RowPredictor() = default;
  RowPredictor(std::nullptr_t) {}  // NOLINT: "no predictor", like nullptr
  RowPredictor(const MosPredictor& model)  // NOLINT: implicit by design
      : model_{&model} {}
  template <typename F>
    requires std::is_invocable_r_v<double, const F&,
                                   const confsim::ParticipantRecord&>
  RowPredictor(F fn)  // NOLINT: implicit, so callers pass lambdas directly
      : fn_{std::move(fn)} {}

  /// False for "no predictor" (default, nullptr, or an empty function).
  explicit operator bool() const {
    return model_ != nullptr || static_cast<bool>(fn_);
  }

  /// Predictions for rows of `cols`, in MosPredictor::predict_rows' shape.
  void predict_rows(const SessionColumns& cols, const std::uint32_t* rows,
                    std::size_t n, double* out) const;

 private:
  const MosPredictor* model_{nullptr};
  std::function<double(const confsim::ParticipantRecord&)> fn_;
};

}  // namespace usaas::service
