// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// EnginePool — a fixed pool of DpStarJoin engines behind a bounded,
// tenant-fair work queue. `DpStarJoin` is documented not thread-safe (it owns
// one Rng); the pool gives each worker thread its own engine with an
// independent RNG stream (forked from the base seed), so N workers answer
// queries concurrently without sharing any mutable mechanism state.
//
// Dispatch order is fair across tenants: each tenant has its own FIFO
// sub-queue, and workers take the head of the next tenant's queue in
// round-robin order. A tenant that queues 100 jobs therefore delays a
// one-job tenant by at most one job's service time per engine, not by the
// whole backlog — the starvation the single global FIFO of PR 1 allowed.
// Jobs dispatched without a tenant share one anonymous sub-queue (exactly
// the old global-FIFO behavior when every caller does this).
//
// Capacity stays global: producers block (Dispatch) or are refused
// (TryDispatch → Unavailable) when `queue_capacity` jobs are waiting.
// Per-tenant admission caps are the AdmissionController's job
// (service/admission.h) — the pool only orders what was admitted.

#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "core/dp_star_join.h"
#include "exec/query_result.h"
#include "storage/catalog.h"

namespace dpstarj::service {

/// \brief A pool of worker threads, each owning one DpStarJoin engine.
///
/// Work items are callables taking the worker's engine and returning some
/// Result<T>; that value is delivered through a std::future<Result<T>>. A job
/// that throws resolves its future to Internal instead. Dispatch blocks while
/// the queue is at capacity. Shutdown drains every queued job before joining
/// the workers, so no future is ever abandoned.
class EnginePool {
 public:
  /// The unit of work: runs on a worker thread against that worker's engine.
  template <typename T>
  using Job = std::function<Result<T>(core::DpStarJoin&)>;

  /// \brief Creates `num_engines` engines over `catalog`, with worker i's RNG
  /// stream forked deterministically from `engine_options.seed`. The options'
  /// `total_budget` is cleared: budget accounting belongs to the service's
  /// BudgetLedger, not to individual pool engines.
  EnginePool(const storage::Catalog* catalog, int num_engines, size_t queue_capacity,
             core::DpStarJoinOptions engine_options = {});

  /// Drains the queue and joins the workers.
  ~EnginePool();

  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  /// \brief Enqueues `job` on `tenant`'s FIFO sub-queue, blocking while the
  /// global queue is full. Returns the future of the job's result, or an
  /// error without enqueuing when the pool has been shut down.
  template <typename Fn>
  auto Dispatch(Fn job, const std::string& tenant = std::string()) {
    return Enqueue(Job<JobValue<Fn>>(std::move(job)), tenant, /*blocking=*/true);
  }

  /// \brief Non-blocking Dispatch: never waits for queue space. A full queue
  /// returns Unavailable immediately — the admission signal the network front
  /// door converts into HTTP 429 instead of stalling its accept loop.
  template <typename Fn>
  auto TryDispatch(Fn job, const std::string& tenant = std::string()) {
    return Enqueue(Job<JobValue<Fn>>(std::move(job)), tenant,
                   /*blocking=*/false);
  }

  /// Queued jobs not yet picked up by a worker (approximate under load).
  size_t queue_depth() const;

  /// Queued jobs of one tenant (approximate under load).
  size_t queue_depth(const std::string& tenant) const;

  /// \brief Stops accepting work, lets the workers drain the queue, and joins
  /// them. Idempotent; also called by the destructor.
  void Shutdown();

  /// Number of engines (== worker threads).
  int num_engines() const { return static_cast<int>(engines_.size()); }
  /// Queue capacity.
  size_t queue_capacity() const { return queue_capacity_; }

  /// \brief One worker's lifetime utilization snapshot: busy_ns is time spent
  /// executing jobs (everything else the worker was parked on the queue),
  /// jobs the number executed. Worker i is the thread named "dpsj-eng-i".
  struct WorkerStats {
    uint64_t busy_ns = 0;
    uint64_t jobs = 0;
  };

  /// Snapshot of every worker's counters, index-aligned with engines.
  std::vector<WorkerStats> worker_stats() const;

 private:
  /// T of a job callable returning Result<T>.
  template <typename Fn>
  using JobValue =
      typename std::invoke_result_t<Fn&, core::DpStarJoin&>::ValueType;

  /// A queued job with its result type erased: Run executes the job against
  /// the worker's engine and resolves the job's future.
  struct Task {
    Task() = default;
    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;
    virtual ~Task() = default;
    virtual void Run(core::DpStarJoin& engine) = 0;
  };
  template <typename T>
  struct TypedTask final : Task {
    explicit TypedTask(Job<T> j) : job(std::move(j)) {}
    void Run(core::DpStarJoin& engine) override {
      promise.set_value(RunGuarded<T>(job, engine));
    }
    Job<T> job;
    std::promise<Result<T>> promise;
  };

  // Cache-line-padded so each worker's updates stay on its own line.
  struct alignas(64) WorkerCounters {
    std::atomic<uint64_t> busy_ns{0};
    std::atomic<uint64_t> jobs{0};
  };

  template <typename T>
  Result<std::future<Result<T>>> Enqueue(Job<T> job, const std::string& tenant,
                                         bool blocking) {
    if (!job) return Status::InvalidArgument("job must be callable");
    auto task = std::make_unique<TypedTask<T>>(std::move(job));
    std::future<Result<T>> future = task->promise.get_future();
    DPSTARJ_RETURN_NOT_OK(EnqueueTask(std::move(task), tenant, blocking));
    return future;
  }

  /// Runs `job`, converting an escaping exception into Internal: the library
  /// is exception-free by contract, but a job can still throw
  /// (std::bad_alloc, user callables), and an escape would std::terminate
  /// the whole service.
  template <typename T>
  static Result<T> RunGuarded(const Job<T>& job, core::DpStarJoin& engine) {
    try {
      return job(engine);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("query job threw: ") + e.what());
    } catch (...) {
      return Status::Internal("query job threw a non-standard exception");
    }
  }

  /// Queues `task` on `tenant`'s sub-queue (see Dispatch / TryDispatch).
  Status EnqueueTask(std::unique_ptr<Task> task, const std::string& tenant,
                     bool blocking);

  /// Pops the next task in round-robin tenant order. Requires mu_ held and
  /// queued_total_ > 0.
  std::unique_ptr<Task> PopNextLocked();

  void WorkerLoop(int engine_index);

  const size_t queue_capacity_;
  std::vector<std::unique_ptr<core::DpStarJoin>> engines_;
  std::vector<std::thread> workers_;
  /// Sized once in the constructor (before the workers spawn); index-aligned
  /// with workers_.
  std::vector<WorkerCounters> worker_counters_;

  mutable std::mutex mu_;
  std::condition_variable queue_not_full_;
  std::condition_variable queue_not_empty_;
  /// Per-tenant FIFO sub-queues; entries are erased when drained so the map
  /// only holds tenants with waiting work.
  std::map<std::string, std::deque<std::unique_ptr<Task>>> tenant_queues_;
  /// Round-robin service order: one entry per non-empty sub-queue.
  std::deque<std::string> active_tenants_;
  size_t queued_total_ = 0;
  bool shutdown_ = false;
};

}  // namespace dpstarj::service
