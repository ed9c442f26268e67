// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// Per-request stage tracing. A Trace rides a single request through
// HttpServer → ServiceApi → QueryService → EnginePool → PredicateMechanism →
// StarJoinExecutor, accumulating one monotonic-clock duration per Stage. It
// is deliberately NOT internally synchronized: a request's trace has exactly
// one writer at a time (the handler thread before dispatch, the pool worker
// during execution, the handler again after future.get()), and the
// promise/future handoff between them publishes the worker's writes. Code
// that wants concurrent aggregate views uses StageMetrics, which folds
// finished traces into registry histograms.
//
// All trace parameters threaded through the engine layers default to nullptr,
// so call sites that don't trace pay a predictable-branch nullptr check and
// nothing else.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/prof/counters.h"

namespace dpstarj::obs {

/// The instrumented stages of a request: the first twelve in pipeline order,
/// later ones appended so that every earlier stage keeps its index.
enum class Stage : int {
  kHeaderRead = 0,  ///< socket read until headers complete
  kBodyRead,        ///< socket read of the body
  kAdmission,       ///< per-tenant fair-admission check
  kLedgerSpend,     ///< budget ledger spend (and refunds)
  kQueueWait,       ///< enqueue → worker pickup
  kBind,            ///< SQL parse + bind
  kCacheLookup,     ///< answer-cache probe
  kPlanCompile,     ///< plan-cache miss: scaffold compile
  kBitmapRebuild,   ///< per-dimension predicate bitmap build
  kScan,            ///< fact sweep / aggregation
  kNoiseDraw,       ///< predicate perturbation sampling
  kEncode,          ///< result → JSON response body
  kPlanExtend,      ///< plan-cache append hit: incremental scaffold extend
  kIngestApply,     ///< ingest: row append + epoch bump under the write lock
  kPlanCells,       ///< plan-cache first hit: the plan's cell layout build
  kDecode,          ///< request body → typed request (JSON parse + fields)
};

inline constexpr int kStageCount = static_cast<int>(Stage::kDecode) + 1;

/// Stable lower_snake_case stage name ("header_read", "scan", ...), used as
/// the `stage` label value and the access-log key.
const char* StageName(Stage stage);

/// \brief One request's accumulated stage spans plus route/outcome flags.
class Trace {
 public:
  /// A fresh trace with a unique 16-hex-char id and start time = now.
  Trace();

  const std::string& id() const { return id_; }

  /// Adds `ns` to the stage's span (stages touched more than once — e.g. a
  /// ledger spend followed by a refund — accumulate).
  void Record(Stage stage, uint64_t ns) {
    stage_ns_[static_cast<int>(stage)] += ns;
    touched_ |= 1u << static_cast<int>(stage);
  }

  uint64_t stage_ns(Stage stage) const {
    return stage_ns_[static_cast<int>(stage)];
  }
  uint64_t stage_us(Stage stage) const { return stage_ns(stage) / 1000; }
  bool touched(Stage stage) const {
    return (touched_ & (1u << static_cast<int>(stage))) != 0;
  }

  /// Accumulates a hardware-counter delta for the stage. Deltas are taken by
  /// ScopedStage on the thread that ran the span, so per-thread counters stay
  /// valid even as the trace hops threads between stages.
  void RecordProf(Stage stage, const prof::CounterSet& delta) {
    stage_prof_[static_cast<int>(stage)].Accumulate(delta);
  }

  const prof::CounterSet& stage_prof(Stage stage) const {
    return stage_prof_[static_cast<int>(stage)];
  }

  /// Wall time since construction, in nanoseconds.
  uint64_t ElapsedNs() const;

  // Route flags set as the request moves through the cache layers.
  bool plan_cache_hit = false;
  bool answer_cache_hit = false;

 private:
  std::string id_;
  std::chrono::steady_clock::time_point start_;
  uint64_t stage_ns_[kStageCount] = {};
  prof::CounterSet stage_prof_[kStageCount] = {};
  uint32_t touched_ = 0;
};

/// \brief RAII span: records the scope's duration — and the thread's
/// hardware-counter delta — into `trace` (when non-null) at destruction. The
/// null check makes untraced paths free to instrument. Construction and
/// destruction always happen on the same thread, which is what makes the
/// per-thread counter delta meaningful.
class ScopedStage {
 public:
  ScopedStage(Trace* trace, Stage stage)
      : trace_(trace),
        stage_(stage),
        start_(trace == nullptr ? std::chrono::steady_clock::time_point()
                                : std::chrono::steady_clock::now()),
        prof_start_(trace == nullptr ? prof::CounterSet()
                                     : prof::SampleThreadCounters()) {}
  ~ScopedStage() {
    if (trace_ == nullptr) return;
    trace_->Record(stage_,
                   static_cast<uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - start_)
                           .count()));
    trace_->RecordProf(stage_, prof::SampleThreadCounters() - prof_start_);
  }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  Trace* trace_;
  Stage stage_;
  std::chrono::steady_clock::time_point start_;
  prof::CounterSet prof_start_;
};

/// \brief Scrape-side aggregation of traces: one registry histogram per stage
/// (dpstarj_stage_duration_seconds{stage=...}) plus one counter per stage per
/// hardware series (dpstarj_stage_cycles_total{stage=...}, ...), resolved
/// once at construction. Construction also publishes the
/// dpstarj_profiler_mode gauge (one child per mode, active mode = 1) so a
/// scrape can tell "zero cycles" apart from "no PMU access".
class StageMetrics {
 public:
  explicit StageMetrics(MetricsRegistry* registry);

  /// Folds every touched stage of a finished trace into the histograms and
  /// counter series.
  void ObserveTrace(const Trace& trace);

 private:
  Histogram* histograms_[kStageCount] = {};
  Counter* cycles_[kStageCount] = {};
  Counter* instructions_[kStageCount] = {};
  Counter* llc_misses_[kStageCount] = {};
  Counter* branch_misses_[kStageCount] = {};
  Counter* task_clock_ns_[kStageCount] = {};
};

}  // namespace dpstarj::obs
