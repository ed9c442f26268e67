#include "service/engine_pool.h"

#include <chrono>
#include <cstdlib>

#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_name.h"

namespace dpstarj::service {

namespace {

// Allocates once, so glibc binds the calling thread to a malloc arena now
// rather than at its first real allocation.
void BindMallocArena() {
  void* p = std::malloc(1);
  __asm__ __volatile__("" : : "r"(p) : "memory");  // keeps the pair alive
  std::free(p);
}

}  // namespace

EnginePool::EnginePool(const storage::Catalog* catalog, int num_engines,
                       size_t queue_capacity,
                       core::DpStarJoinOptions engine_options)
    : queue_capacity_(queue_capacity == 0 ? 1 : queue_capacity) {
  DPSTARJ_CHECK(catalog != nullptr, "catalog must not be null");
  DPSTARJ_CHECK(num_engines > 0, "engine pool needs at least one engine");
  // Budget accounting lives in the service's ledger; a per-engine budget
  // would fragment a tenant's ε across whichever workers its queries land on.
  engine_options.total_budget.reset();
  // Derive one independent RNG stream per engine from the base seed. Each
  // stream is deterministic given (seed, num_engines), but which worker picks
  // up a given query depends on scheduling — end-to-end noise is only
  // reproducible for serialized submissions to a single-engine pool.
  Rng seeder(engine_options.seed);
  engines_.reserve(static_cast<size_t>(num_engines));
  for (int i = 0; i < num_engines; ++i) {
    core::DpStarJoinOptions per_engine = engine_options;
    per_engine.seed = seeder.engine()();
    engines_.push_back(std::make_unique<core::DpStarJoin>(catalog, per_engine));
  }
  worker_counters_ = std::vector<WorkerCounters>(static_cast<size_t>(num_engines));
  workers_.reserve(static_cast<size_t>(num_engines));
  for (int i = 0; i < num_engines; ++i) {
    workers_.emplace_back([this, i] {
      common::SetCurrentThreadName("dpsj-eng-", i);
      // Bind before the first job: by then other threads may have taken the
      // arenas an earlier pool's engines released, and this engine's plan
      // scaffolds would grow another arena, which keeps its pages. Over
      // perfbench's nine service restarts per run, binding at the first job
      // raised fresh_scan's peak RSS from 116 to 180 MB.
      BindMallocArena();
      WorkerLoop(i);
    });
  }
}

EnginePool::~EnginePool() { Shutdown(); }

Status EnginePool::EnqueueTask(std::unique_ptr<Task> task,
                               const std::string& tenant, bool blocking) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (blocking) {
      queue_not_full_.wait(
          lock, [this] { return shutdown_ || queued_total_ < queue_capacity_; });
    }
    if (shutdown_) {
      return Status::Internal("engine pool is shut down");
    }
    if (queued_total_ >= queue_capacity_) {
      return Status::Unavailable(
          Format("work queue full (%zu queued)", queued_total_));
    }
    std::deque<std::unique_ptr<Task>>& queue = tenant_queues_[tenant];
    if (queue.empty()) active_tenants_.push_back(tenant);
    queue.push_back(std::move(task));
    ++queued_total_;
  }
  queue_not_empty_.notify_one();
  return Status::OK();
}

size_t EnginePool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_total_;
}

size_t EnginePool::queue_depth(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenant_queues_.find(tenant);
  return it == tenant_queues_.end() ? 0 : it->second.size();
}

std::vector<EnginePool::WorkerStats> EnginePool::worker_stats() const {
  // worker_counters_ is sized before the workers spawn and never resized, so
  // no lock is needed; the loads race benignly with worker updates.
  std::vector<WorkerStats> out(worker_counters_.size());
  for (size_t i = 0; i < worker_counters_.size(); ++i) {
    out[i].busy_ns = worker_counters_[i].busy_ns.load(std::memory_order_relaxed);
    out[i].jobs = worker_counters_[i].jobs.load(std::memory_order_relaxed);
  }
  return out;
}

std::unique_ptr<EnginePool::Task> EnginePool::PopNextLocked() {
  // Serve the head of the next tenant's FIFO: the tenant rotates to the back
  // of the round-robin while it still has waiting work, and drops out of the
  // active list (its map entry erased) when drained.
  const std::string tenant = std::move(active_tenants_.front());
  active_tenants_.pop_front();
  auto it = tenant_queues_.find(tenant);
  std::unique_ptr<Task> task = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) {
    tenant_queues_.erase(it);
  } else {
    active_tenants_.push_back(tenant);
  }
  --queued_total_;
  return task;
}

void EnginePool::WorkerLoop(int engine_index) {
  core::DpStarJoin& engine = *engines_[static_cast<size_t>(engine_index)];
  for (;;) {
    std::unique_ptr<Task> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_not_empty_.wait(lock,
                            [this] { return shutdown_ || queued_total_ > 0; });
      if (queued_total_ == 0) return;  // shutdown with a drained queue
      task = PopNextLocked();
    }
    queue_not_full_.notify_one();
    const auto busy_start = std::chrono::steady_clock::now();
    task->Run(engine);  // resolves the job's future, also when the job throws
    WorkerCounters& counters = worker_counters_[static_cast<size_t>(engine_index)];
    counters.busy_ns.fetch_add(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - busy_start)
                .count()),
        std::memory_order_relaxed);
    counters.jobs.fetch_add(1, std::memory_order_relaxed);
  }
}

void EnginePool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

}  // namespace dpstarj::service
