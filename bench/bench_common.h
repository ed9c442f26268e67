// Shared helpers for the table/figure reproduction binaries: one-call error
// cells for the three mechanisms on an SSB-style bound query.
//
// Environment knobs (see bench_util/experiment.h):
//   DPSTARJ_SF, DPSTARJ_RUNS, DPSTARJ_GRAPH_SCALE, DPSTARJ_TIME_LIMIT_S.

#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/local_sensitivity.h"
#include "baselines/r2t.h"
#include "bench_util/experiment.h"
#include "bench_util/table_printer.h"
#include "common/cpu.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "exec/kernels/kernels.h"
#include "obs/prof/counters.h"
#include "core/predicate_mechanism.h"
#include "exec/contribution_index.h"
#include "exec/star_join_executor.h"
#include "query/binder.h"

namespace dpstarj::bench {

/// \brief Prepared state for answering one query with all three mechanisms.
///
/// The privacy scenario for the output-perturbation baselines is (0,1)-
/// private. The private relation defaults to Customer when the query joins it
/// with a predicate (the paper's motivating example — Example 1.3), otherwise
/// the first predicate-bearing dimension; `private_spec` overrides it (it may
/// be a "Table.column" entity spec, see exec::BuildContributionIndex).
/// Contributions are built once, and PM draws reuse one mechanism, so its
/// cached plan (and, from the second draw, the plan's cells) serves every
/// draw at every ε: noise runs are cheap.
class QueryBench {
 public:
  static Result<QueryBench> Prepare(const storage::Catalog* catalog,
                                    const query::StarJoinQuery& q,
                                    std::string private_spec = "") {
    QueryBench b;
    query::Binder binder(catalog);
    DPSTARJ_ASSIGN_OR_RETURN(b.bound_, binder.Bind(q));
    // Ground truth via the executor (works for GROUP BY too).
    exec::StarJoinExecutor executor;
    DPSTARJ_ASSIGN_OR_RETURN(b.truth_, executor.Execute(b.bound_));
    // Private relation for the baselines.
    b.private_table_ = std::move(private_spec);
    if (b.private_table_.empty()) {
      for (const auto& d : b.bound_.dims) {
        if (d.predicates.empty()) continue;
        if (b.private_table_.empty()) b.private_table_ = d.table;
        if (d.table == "Customer") b.private_table_ = d.table;
      }
    }
    if (!b.private_table_.empty() && b.bound_.group_key_layout.empty()) {
      auto idx = exec::BuildContributionIndex(b.bound_, {b.private_table_});
      if (idx.ok()) {
        b.contributions_ =
            std::make_shared<exec::ContributionIndex>(std::move(*idx));
      }
    }
    return b;
  }

  const query::BoundQuery& bound() const { return bound_; }
  const exec::QueryResult& truth() const { return truth_; }
  double truth_total() const { return truth_.Total(); }

  /// Mean relative error (%) of PM over `runs` draws, each answered like
  /// the server answers: PredicateMechanism::Answer on the cached plan.
  /// GROUP BY queries use the total-aggregate metric.
  bench_util::RunStats PmError(double epsilon, int runs, Rng* rng) const {
    return bench_util::Repeat(runs, [&]() -> Result<double> {
      DPSTARJ_ASSIGN_OR_RETURN(exec::QueryResult est,
                               pm_.Answer(bound_, epsilon, rng));
      return est.TotalRelativeErrorPercent(truth_);
    });
  }

  /// Mean relative error (%) of R2T (scalar queries only).
  bench_util::RunStats R2tError(double epsilon, int runs, Rng* rng,
                                double gs_q = 0.0) const {
    if (!bound_.group_key_layout.empty()) {
      bench_util::RunStats s;
      s.not_supported = true;  // "a future work of [7]"
      return s;
    }
    if (contributions_ == nullptr) {
      bench_util::RunStats s;
      s.error = Status::Internal("no contribution index");
      return s;
    }
    double gs = gs_q > 0 ? gs_q : DefaultGs();
    return bench_util::Repeat(runs, [&]() -> Result<double> {
      DPSTARJ_ASSIGN_OR_RETURN(
          double est, baselines::R2tRace(*contributions_, gs, epsilon,
                                         /*alpha=*/0.1, rng));
      return RelativeErrorPercent(est, truth_.scalar);
    });
  }

  /// Mean relative error (%) of LS (COUNT scalar queries only).
  bench_util::RunStats LsError(double epsilon, int runs, Rng* rng) const {
    return bench_util::Repeat(runs, [&]() -> Result<double> {
      dp::PrivacyScenario scenario = dp::PrivacyScenario::Dimensions({private_table_});
      DPSTARJ_ASSIGN_OR_RETURN(
          double est,
          baselines::AnswerWithLocalSensitivity(bound_, scenario, epsilon, rng));
      return RelativeErrorPercent(est, truth_.scalar);
    });
  }

  /// Wall-clock of one full mechanism run including the join work (for the
  /// running-time panels of Figures 4/5). Mechanism: 0 = PM, 1 = R2T, 2 = LS.
  Result<double> TimeOneRun(int mechanism, double epsilon, Rng* rng) const {
    Timer timer;
    dp::PrivacyScenario scenario = dp::PrivacyScenario::Dimensions({private_table_});
    switch (mechanism) {
      case 0: {
        core::PredicateMechanism pm;
        DPSTARJ_RETURN_NOT_OK(pm.Answer(bound_, epsilon, rng).status());
        break;
      }
      case 1:
        DPSTARJ_RETURN_NOT_OK(
            baselines::AnswerWithR2t(bound_, scenario, epsilon, rng).status());
        break;
      case 2:
        DPSTARJ_RETURN_NOT_OK(
            baselines::AnswerWithLocalSensitivity(bound_, scenario, epsilon, rng)
                .status());
        break;
      default:
        return Status::InvalidArgument("unknown mechanism");
    }
    return timer.ElapsedSeconds();
  }

 private:
  double DefaultGs() const { return static_cast<double>(bound_.fact->num_rows()); }

  query::BoundQuery bound_;
  exec::QueryResult truth_;
  core::PredicateMechanism pm_;
  std::shared_ptr<exec::ContributionIndex> contributions_;
  std::string private_table_;
};

/// \brief Machine-readable bench output: when constructed with a non-empty
/// path, the destructor writes `{"host": {...}, "records": [...]}` — each
/// record is `{"bench", "config", "rows_per_sec", "wall_ms",
/// "cycles_per_row", "instr_per_row"}`, and `host` carries the detected
/// topology (cores, ISA the engine dispatched to, cache geometry) plus a
/// `perf_counters` flag saying whether the cycle/instruction columns are
/// real hardware counts or zeros from a host that denies perf_event_open.
/// This is the format tools/check_bench.py and the checked-in BENCH_*.json
/// baselines use.
///
/// Construct the writer at the top of main(): the inherit=1 process counters
/// open in its constructor and only cover threads spawned afterwards, so it
/// must exist before the first query warms the morsel pool.
class JsonBenchWriter {
 public:
  /// \brief Extracts `--json <path>` or `--json=<path>` from argv, removing
  /// the flag so later argument parsing never sees it. Returns "" when
  /// absent.
  static std::string ConsumeJsonFlag(int* argc, char** argv) {
    std::string path;
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--json" && i + 1 < *argc) {
        path = argv[++i];
        continue;
      }
      if (arg.rfind("--json=", 0) == 0) {
        path = arg.substr(7);
        continue;
      }
      argv[out++] = argv[i];
    }
    *argc = out;
    return path;
  }

  explicit JsonBenchWriter(std::string path) : path_(std::move(path)) {}
  ~JsonBenchWriter() { Flush(); }

  void Add(const std::string& bench, const std::string& config,
           double rows_per_sec, double wall_ms, double cycles_per_row = 0.0,
           double instr_per_row = 0.0) {
    records_.push_back(
        {bench, config, rows_per_sec, wall_ms, cycles_per_row, instr_per_row});
  }

  /// Process-wide cycle/instruction counters for CounterSpan; zeros (and
  /// available() == false) on hosts without PMU access.
  const obs::prof::ProcessCounters& counters() const { return counters_; }

  /// Writes the file; called by the destructor, idempotent.
  void Flush() {
    if (path_.empty() || written_) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write bench json to '%s'\n", path_.c_str());
      return;
    }
    const CpuInfo& cpu = HostCpu();
    std::fprintf(f,
                 "{\n"
                 "  \"host\": {\"cores\": %d, \"isa\": \"%s\", "
                 "\"cache_line_bytes\": %d, \"l1d_bytes\": %lld, "
                 "\"l2_bytes\": %lld, \"perf_counters\": %s},\n"
                 "  \"records\": [\n",
                 cpu.cores, exec::kernels::ActiveKernels().name,
                 cpu.cache_line_bytes, static_cast<long long>(cpu.l1d_bytes),
                 static_cast<long long>(cpu.l2_bytes),
                 counters_.available() ? "true" : "false");
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "    {\"bench\": \"%s\", \"config\": \"%s\", "
                   "\"rows_per_sec\": %.1f, \"wall_ms\": %.3f, "
                   "\"cycles_per_row\": %.3f, \"instr_per_row\": %.3f}%s\n",
                   r.bench.c_str(), r.config.c_str(), r.rows_per_sec, r.wall_ms,
                   r.cycles_per_row, r.instr_per_row,
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    written_ = true;
  }

  bool enabled() const { return !path_.empty(); }

 private:
  struct Record {
    std::string bench;
    std::string config;  // must not contain JSON-special characters
    double rows_per_sec;
    double wall_ms;
    double cycles_per_row;
    double instr_per_row;
  };
  std::string path_;
  std::vector<Record> records_;
  obs::prof::ProcessCounters counters_;
  bool written_ = false;
};

/// \brief Delta of the writer's process-wide counters over a measured region:
/// snapshot at construction, divide by a row count at the end. All-zero on
/// hosts where the counters are unavailable — callers need no special case,
/// the columns just stay 0 and host.perf_counters says why.
class CounterSpan {
 public:
  explicit CounterSpan(const JsonBenchWriter& json)
      : counters_(&json.counters()), start_(counters_->Read()) {}

  double CyclesPerRow(double rows) const {
    if (rows <= 0) return 0.0;
    return static_cast<double>(counters_->Read().cycles - start_.cycles) / rows;
  }
  double InstructionsPerRow(double rows) const {
    if (rows <= 0) return 0.0;
    return static_cast<double>(counters_->Read().instructions -
                               start_.instructions) /
           rows;
  }

 private:
  const obs::prof::ProcessCounters* counters_;
  obs::prof::ProcessCounters::Reading start_;
};

/// Default SSB scale factor for benches (DPSTARJ_SF).
inline double BenchScaleFactor() { return bench_util::EnvDouble("DPSTARJ_SF", 0.1); }
/// Default graph scale for Table 2 (DPSTARJ_GRAPH_SCALE).
inline double BenchGraphScale() {
  return bench_util::EnvDouble("DPSTARJ_GRAPH_SCALE", 0.1);
}
/// Default baseline time limit in seconds (DPSTARJ_TIME_LIMIT_S).
inline double BenchTimeLimit() {
  return bench_util::EnvDouble("DPSTARJ_TIME_LIMIT_S", 5.0);
}

}  // namespace dpstarj::bench
