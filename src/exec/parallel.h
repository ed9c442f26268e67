// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// Morsel-parallel execution substrate: a reusable pool of worker threads that
// splits an index range [0, total) into fixed-size morsels. Each job exposes
// `num_workers` *roles*; role w owns morsels w, w+W, w+2W, ... and processes
// them in order. Static role→morsel assignment (rather than work stealing)
// makes every run with the same worker count process rows in exactly the same
// order regardless of which thread executes which role — partial aggregates
// merge deterministically, so a query answer is reproducible run-to-run at
// any fixed thread count.
//
// Concurrency model: jobs from concurrent callers queue into the shared pool
// and their roles are claimed by whichever pool threads are free; the calling
// thread always executes role 0 and then adopts any still-unclaimed roles of
// its *own* job. A Run is therefore work-conserving and never blocks behind
// another caller's scan — with a busy pool it degrades to the caller scanning
// alone, which is exactly the "engine-pool workers divide the cores" regime
// of the service layer. Run(1, ...) touches no synchronization at all.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dpstarj::exec {

/// \brief Topology-derived default morsel granularity in fact rows: sized so
/// one morsel's streaming working set (budgeted at ~32 bytes per row:
/// resolved dimension rows, weight, and the fact-side group keys a grouped
/// sweep reads) stays within the detected per-core L2
/// (common/cpu.h), clamped to [2^14, 2^18] rows. Falls back to 2^16 when the
/// OS reports no L2 size. Smaller morsels would thrash the job queue; larger
/// ones evict their own lines before the next pass over the range.
int64_t DefaultMorselSize();

/// \brief A reusable morsel worker pool with deterministic role assignment.
class MorselPool {
 public:
  /// Callback for one morsel: the role (worker index in [0, num_workers))
  /// and the half-open row range [begin, end).
  using MorselFn = std::function<void(int worker, int64_t begin, int64_t end)>;

  MorselPool() = default;
  ~MorselPool();

  MorselPool(const MorselPool&) = delete;
  MorselPool& operator=(const MorselPool&) = delete;

  /// \brief Runs `fn` over [0, total) in morsels of `morsel_size` rows with
  /// `num_workers` roles. Blocks until every morsel has been processed.
  void Run(int num_workers, int64_t total, int64_t morsel_size, const MorselFn& fn);

  /// The process-wide shared pool.
  static MorselPool& Shared();

  /// \brief Resolves a worker count for a morsel scan of `total` items:
  /// `threads` ≤ 0 means one worker per hardware thread, and the result
  /// never exceeds the number of morsels, so tiny scans stay on the calling
  /// thread. Shared by every MorselPool caller so the 0-means-auto rule lives
  /// in one place.
  static int ResolveWorkers(int threads, int64_t morsel_size, int64_t total);

  /// Number of worker threads currently in the pool.
  int num_threads() const;

  /// \brief One pool thread's lifetime utilization snapshot. busy_ns counts
  /// time inside RunRole (claim-to-finish); everything else is idle wait.
  /// Covers pool threads only — the calling thread's role-0 work shows up in
  /// its own stage spans, not here.
  struct WorkerStats {
    uint64_t busy_ns = 0;
    uint64_t roles = 0;  ///< roles executed (≥1 morsel each)
  };

  /// Snapshot of every pool thread's counters, index-aligned with creation
  /// order (thread i is named "dpsj-morsel-i").
  std::vector<WorkerStats> worker_stats() const;

  /// \brief When enabled, pool threads created afterwards are pinned
  /// round-robin across the host's cores (the calling thread — role 0 —
  /// is left to the OS scheduler). Opt-in via dpstarj-server --pin-workers:
  /// pinning helps steady-state scans on dedicated hosts and hurts on
  /// shared/oversubscribed ones, so the default is off. Threads that already
  /// exist keep their affinity; enable before the first Run to pin the whole
  /// pool.
  static void SetPinWorkers(bool on);

 private:
  struct Job {
    const MorselFn* fn = nullptr;
    int64_t total = 0;
    int64_t morsel_size = 0;
    int num_workers = 0;
    int next_role = 1;       // roles 1..W-1 are claimable; 0 is the caller's
    int completed_roles = 0; // job done when == num_workers
  };

  // Per-thread busy counters, padded to a cache line: each pool thread
  // updates only its own slot, so the writes never contend. A deque keeps
  // slot addresses stable as EnsureThreads grows the pool.
  struct alignas(64) WorkerCounters {
    std::atomic<uint64_t> busy_ns{0};
    std::atomic<uint64_t> roles{0};
  };

  static void RunRole(const Job& job, int role);
  // Marks one role of `job` finished; notifies the owning Run when the job
  // completes. Caller must NOT hold mu_.
  void FinishRole(Job* job);
  void EnsureThreads(int n);  // caller holds mu_
  void ThreadLoop(WorkerCounters* counters);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // pool threads: a job or shutdown arrived
  std::condition_variable done_cv_;  // callers: some role finished
  std::vector<std::thread> threads_;
  std::deque<WorkerCounters> worker_counters_;  // index-aligned with threads_
  std::deque<Job*> pending_;  // jobs with unclaimed roles, FIFO
  bool shutdown_ = false;
};

}  // namespace dpstarj::exec
