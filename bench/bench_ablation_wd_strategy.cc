// Ablation — Workload Decomposition strategy choice (docs/design.md): identity
// vs hierarchical vs auto on the paper's W1 (point-heavy) and W2 (cumulative)
// workloads.

#include <cstdio>

#include "bench_common.h"
#include "core/workload_mechanism.h"
#include "ssb/ssb_generator.h"
#include "ssb/workloads.h"

using namespace dpstarj;

int main() {
  double sf = bench::BenchScaleFactor();
  int runs = bench_util::DefaultRuns();
  const std::vector<double> kEps = {0.1, 0.5, 1.0};

  std::printf(
      "== Ablation: WD strategy — identity vs hierarchical vs auto"
      " (SF=%.3f, %d runs) ==\n\n",
      sf, runs);

  ssb::SsbOptions options;
  options.scale_factor = sf;
  auto catalog = ssb::GenerateSsb(options);
  if (!catalog.ok()) {
    std::fprintf(stderr, "gen: %s\n", catalog.status().ToString().c_str());
    return 1;
  }
  auto attributes = ssb::WorkloadAttributes();
  query::Binder binder(&*catalog);
  exec::PlanCache plans;  // W: the cells of the workloads' base plan

  Rng rng(1313);
  for (const char* which : {"W1", "W2"}) {
    auto workload = std::string(which) == "W1" ? ssb::WorkloadW1() : ssb::WorkloadW2();
    auto base = core::BindWorkloadBase(binder, *workload, attributes);
    if (!base.ok()) {
      std::fprintf(stderr, "base: %s\n", base.status().ToString().c_str());
      return 1;
    }
    auto plan = core::PlanWorkloadBase(*base, plans);
    if (!plan.ok()) {
      std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    auto truth = core::TrueWorkloadAnswers(*base, **plan, *workload, attributes);
    if (!truth.ok()) {
      std::fprintf(stderr, "truth: %s\n", truth.status().ToString().c_str());
      return 1;
    }
    bench_util::TablePrinter table({std::string(which) + " strategy",
                                    "eps=0.1 err %", "eps=0.5 err %",
                                    "eps=1 err %"});
    struct Mode {
      const char* label;
      core::WorkloadStrategyKind kind;
    };
    for (Mode mode : {Mode{"identity", core::WorkloadStrategyKind::kIdentity},
                      Mode{"hierarchical", core::WorkloadStrategyKind::kHierarchical},
                      Mode{"auto", core::WorkloadStrategyKind::kAuto}}) {
      std::vector<std::string> row = {mode.label};
      for (double eps : kEps) {
        auto stats = bench_util::Repeat(runs, [&]() -> Result<double> {
          core::WorkloadMechanismOptions opts;
          opts.strategy = mode.kind;
          DPSTARJ_ASSIGN_OR_RETURN(
              auto answers,
              core::AnswerWorkloadWithDecomposition(
                  *base, **plan, *workload, attributes, eps, &rng, opts));
          double acc = 0.0;
          for (size_t i = 0; i < truth->size(); ++i) {
            acc += RelativeErrorPercent(answers[i], (*truth)[i]);
          }
          return acc / static_cast<double>(truth->size());
        });
        row.push_back(stats.Cell());
      }
      table.AddRow(row);
    }
    table.Print();
    std::printf("\n");
  }
  return 0;
}
