#include "obs/trace.h"

#include <atomic>
#include <random>

namespace dpstarj::obs {

namespace {

// splitmix64 over a process-unique counter seeded from the OS entropy pool:
// ids are unique within a process run and unpredictable enough across runs to
// be grep-able without colliding in merged logs.
uint64_t NextTraceSeed() {
  static std::atomic<uint64_t> counter = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) | rd();
  }();
  uint64_t z = counter.fetch_add(0x9E3779B97F4A7C15ull, std::memory_order_relaxed) +
               0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string HexId(uint64_t v) {
  static const char kDigits[] = "0123456789abcdef";
  std::string id(16, '0');
  for (int i = 15; i >= 0; --i) {
    id[static_cast<size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return id;
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kHeaderRead: return "header_read";
    case Stage::kBodyRead: return "body_read";
    case Stage::kAdmission: return "admission";
    case Stage::kLedgerSpend: return "ledger_spend";
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kBind: return "bind";
    case Stage::kCacheLookup: return "cache_lookup";
    case Stage::kPlanCompile: return "plan_compile";
    case Stage::kBitmapRebuild: return "bitmap_rebuild";
    case Stage::kScan: return "scan";
    case Stage::kNoiseDraw: return "noise_draw";
    case Stage::kEncode: return "encode";
    case Stage::kPlanExtend: return "plan_extend";
    case Stage::kIngestApply: return "ingest_apply";
    case Stage::kPlanCells: return "plan_cells";
    case Stage::kDecode: return "decode";
  }
  return "unknown";
}

Trace::Trace()
    : id_(HexId(NextTraceSeed())), start_(std::chrono::steady_clock::now()) {}

uint64_t Trace::ElapsedNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

StageMetrics::StageMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  for (int i = 0; i < kStageCount; ++i) {
    const char* name = StageName(static_cast<Stage>(i));
    histograms_[i] = registry->GetHistogram(
        "dpstarj_stage_duration_seconds",
        "Per-request time spent in each pipeline stage", {{"stage", name}});
    cycles_[i] = registry->GetCounter(
        "dpstarj_stage_cycles_total",
        "CPU cycles burned in each pipeline stage (0 in fallback mode)",
        {{"stage", name}});
    instructions_[i] = registry->GetCounter(
        "dpstarj_stage_instructions_total",
        "Instructions retired in each pipeline stage (0 in fallback mode)",
        {{"stage", name}});
    llc_misses_[i] = registry->GetCounter(
        "dpstarj_stage_llc_misses_total",
        "Last-level cache misses in each pipeline stage (0 in fallback mode)",
        {{"stage", name}});
    branch_misses_[i] = registry->GetCounter(
        "dpstarj_stage_branch_misses_total",
        "Branch mispredictions in each pipeline stage (0 in fallback mode)",
        {{"stage", name}});
    task_clock_ns_[i] = registry->GetCounter(
        "dpstarj_stage_task_clock_ns_total",
        "Thread CPU time (ns) in each pipeline stage; valid in both profiler "
        "modes",
        {{"stage", name}});
  }
  // One child per mode; the active one reads 1. Resolving the mode here (at
  // service construction) also performs the first perf_event_open attempt on
  // a known-good thread rather than mid-request.
  const prof::CounterMode active = prof::ActiveCounterMode();
  for (prof::CounterMode mode :
       {prof::CounterMode::kPerfEvents, prof::CounterMode::kFallback}) {
    registry
        ->GetGauge("dpstarj_profiler_mode",
                   "Counter sourcing mode: the active child reads 1",
                   {{"mode", prof::CounterModeName(mode)}})
        ->Set(mode == active ? 1.0 : 0.0);
  }
}

void StageMetrics::ObserveTrace(const Trace& trace) {
  for (int i = 0; i < kStageCount; ++i) {
    if (histograms_[i] == nullptr) continue;
    const Stage stage = static_cast<Stage>(i);
    if (!trace.touched(stage)) continue;
    histograms_[i]->Observe(static_cast<double>(trace.stage_ns(stage)) * 1e-9);
    const prof::CounterSet& prof = trace.stage_prof(stage);
    cycles_[i]->Inc(prof.cycles);
    instructions_[i]->Inc(prof.instructions);
    llc_misses_[i]->Inc(prof.llc_misses);
    branch_misses_[i]->Inc(prof.branch_misses);
    task_clock_ns_[i]->Inc(prof.task_clock_ns);
  }
}

}  // namespace dpstarj::obs
