// The benchmark workloads (perfbench/README.md): request streams that
// are pure functions of (workload, seed, index), plus the model of what the
// server must answer — expected epochs, row counts and the ε each answer
// costs (every answer is a fresh release) — that the exact-count checks use.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "ssb/ssb_generator.h"
#include "storage/value.h"

namespace perfbench {

enum class OpKind { kQuery, kWorkload, kIngest };

/// One query of an operation.
struct QuerySpec {
  std::string sql;
  /// Dyadic (a multiple of 2^-20), so ledger sums are exact in a double.
  double epsilon = 0.0;
  bool grouped = false;
  /// Plan-cache execution signature (shape without constants or ε).
  std::string signature;
};

/// One HTTP request of a workload.
struct Op {
  OpKind kind = OpKind::kQuery;
  /// Position in its stream (timed ops count from 0; warm-up ops carry their
  /// own index range).
  uint64_t index = 0;
  std::vector<QuerySpec> queries;                    ///< kQuery: 1, kWorkload: n
  std::vector<std::vector<dpstarj::storage::Value>> rows;  ///< kIngest
  /// Fact-table epoch every answer of this op must carry; for an ingest, the
  /// table version the server must report after applying it.
  uint64_t expected_epoch = 0;
  /// kIngest: Lineorder row count after the batch.
  int64_t expected_rows_total = 0;
  std::string path;  ///< "/v1/query", "/v1/workload" or "/v1/ingest"
  std::string body;  ///< the request bytes
};

/// Fixed properties of a workload.
struct WorkloadConfig {
  std::string name;
  double scale_factor = 0.01;
  int connections = 1;
};

/// The tenant every workload spends from.
inline constexpr char kTenant[] = "bench";
/// Its budget: a power of two, so the ledger's running sums stay exact.
inline constexpr double kTenantBudget = 1099511627776.0;  // 2^40
/// Fewest timed requests a run may make: latency_p99_ms needs at least ten
/// samples beyond the 99th percentile.
inline constexpr uint64_t kMinTimedRequests = 1000;

/// A seeded request stream.
class Workload {
 public:
  virtual ~Workload() = default;

  /// `scale` multiplies the workload's scale factor (the self-test runs the
  /// benchmark at a tiny scale).
  static dpstarj::Result<std::unique_ptr<Workload>> Create(const std::string& name,
                                                           uint64_t seed,
                                                           double scale = 1.0);

  const WorkloadConfig& config() const { return config_; }
  uint64_t seed() const { return seed_; }

  /// The ops that bring a fresh stack to the workload's steady state (answer
  /// and plan caches populated), sent over one connection in order.
  virtual std::vector<Op> WarmupOps() const = 0;

  /// Timed op `i` (i = 0, 1, ...).
  virtual Op MakeOp(uint64_t i) const = 0;

  /// Ops a run of `seconds` performs when the workload runs a fixed op count
  /// (so its counts repeat exactly for a seed); 0 for a time-bound loop.
  virtual uint64_t FixedOpCount(double /*seconds*/) const { return 0; }

  /// Ingest batch `n`: 2,000 valid Lineorder rows whose orderkeys are past
  /// every generated order. Batch n moves an ingesting workload's fact table
  /// to version n + 1; the traced run's storage probe uses its own range of n.
  std::vector<std::vector<dpstarj::storage::Value>> IngestRows(uint64_t n) const;

  /// Lineorder rows right after catalog generation.
  int64_t base_fact_rows() const { return base_fact_rows_; }

  /// FNV-1a over the warm-up ops and the first `timed_ops` timed ops
  /// (path and body of each), so "same seed, same bytes" can be checked.
  uint64_t InputHash(uint64_t timed_ops) const;

 protected:
  Workload(WorkloadConfig config, uint64_t seed);

  /// Fills path and body of `op` from its queries or rows.
  static void Encode(Op* op);

  /// The dyadic ε of query number `q` of the stream: in [0.25, 1), distinct
  /// for every q below 3·2^18, so no two requests share an answer-cache key.
  double StreamEpsilon(uint64_t q) const;

  WorkloadConfig config_;
  uint64_t seed_;
  dpstarj::ssb::SsbSizes sizes_;
  int64_t base_fact_rows_ = 0;
};

}  // namespace perfbench
