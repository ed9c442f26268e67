// Closed-loop load generation against a Stack, and the exact (non-private)
// answers the accuracy metric compares the noisy ones with.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "stack.h"
#include "workloads.h"

namespace perfbench {

struct LoopOptions {
  int connections = 1;
  /// Time bound of the loop; ignored when `op_limit` is set.
  double seconds = 1.0;
  /// Ops to run (from op 0); 0 runs until `seconds` have passed.
  uint64_t op_limit = 0;
};

/// One request as the client saw it.
struct RequestRecord {
  uint64_t op_index = 0;
  uint64_t start_ns = 0;  ///< since the loop started
  uint64_t latency_ns = 0;
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
};

struct LoopResult {
  double elapsed_s = 0.0;
  double process_cpu_s = 0.0;  ///< whole process, over the loop
  double client_cpu_s = 0.0;   ///< Σ client threads' own CPU
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t queries_answered = 0;
  uint64_t retries_429 = 0;
  uint64_t ingests = 0;        ///< accepted ingest batches
  uint64_t rows_ingested = 0;  ///< rows those batches appended
  double fresh_epsilon = 0.0;
  std::vector<RequestRecord> requests;  ///< sorted by op index
  std::vector<Answer> answers;          ///< sorted by (op index, query)
  std::vector<std::string> errors;      ///< the first few failures
};

/// Runs timed ops 0, 1, ... over `options.connections` keep-alive
/// connections, each sending its next op when the previous one is answered.
LoopResult RunClosedLoop(const Workload& workload, Stack& stack,
                         const LoopOptions& options);

/// Sends the workload's warm-up ops in order over one connection.
LoopResult RunWarmup(const Workload& workload, Stack& stack);

/// Prints the loop's recorded failures to stderr, tagged with `phase`.
void ReportErrors(const LoopResult& r, const char* phase);

/// Exact totals of `answers` (each at its own epoch), from the non-private
/// StarJoinExecutor over `catalog`. When the workload ingests, `catalog`
/// must be freshly generated: the ingests are replayed onto it in order and
/// each answer is evaluated at its epoch.
dpstarj::Result<std::vector<double>> ExactTotals(const Workload& workload,
                                                 dpstarj::storage::Catalog* catalog,
                                                 const std::vector<Answer>& answers);

/// Evenly spaced subsample of at most `n` answers.
std::vector<Answer> SampleAnswers(const std::vector<Answer>& answers, size_t n);

/// Generates the workload's SSB catalog (what Stack::Start serves).
dpstarj::Result<std::unique_ptr<dpstarj::storage::Catalog>> GenerateCatalog(
    const Workload& workload);

}  // namespace perfbench
