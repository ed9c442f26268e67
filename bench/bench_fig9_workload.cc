// Figure 9 — Error level of PM (independent per-query answering) and WD
// (Workload Decomposition) on the workloads W1 and W2 for ε ∈
// {0.1, 0.2, 0.5, 0.8, 1}.

#include <cstdio>

#include "bench_common.h"
#include "core/workload_mechanism.h"
#include "ssb/ssb_generator.h"
#include "ssb/workloads.h"

using namespace dpstarj;

namespace {

Result<double> MeanWorkloadError(const std::vector<double>& est,
                                 const std::vector<double>& truth) {
  if (est.size() != truth.size()) return Status::Internal("size mismatch");
  double acc = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    acc += RelativeErrorPercent(est[i], truth[i]);
  }
  return acc / static_cast<double>(truth.size());
}

}  // namespace

int main() {
  double sf = bench::BenchScaleFactor();
  int runs = bench_util::DefaultRuns();
  const std::vector<double> kEps = {0.1, 0.2, 0.5, 0.8, 1.0};

  std::printf("== Figure 9: PM vs WD on workloads (SF=%.3f, %d runs) ==\n\n", sf,
              runs);

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

  Rng rng(909);
  for (const char* which : {"W1", "W2"}) {
    auto workload = std::string(which) == "W1" ? ssb::WorkloadW1() : ssb::WorkloadW2();
    if (!workload.ok()) {
      std::fprintf(stderr, "%s: %s\n", which, workload.status().ToString().c_str());
      return 1;
    }
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

    std::vector<std::string> pm_cells, wd_cells;
    for (double eps : kEps) {
      auto pm_stats = bench_util::Repeat(runs, [&]() -> Result<double> {
        DPSTARJ_ASSIGN_OR_RETURN(
            auto answers,
            core::AnswerWorkloadPerQuery(*base, **plan, *workload, attributes,
                                         eps, &rng));
        return MeanWorkloadError(answers, *truth);
      });
      auto wd_stats = bench_util::Repeat(runs, [&]() -> Result<double> {
        DPSTARJ_ASSIGN_OR_RETURN(auto answers,
                                 core::AnswerWorkloadWithDecomposition(
                                     *base, **plan, *workload, attributes, eps,
                                     &rng));
        return MeanWorkloadError(answers, *truth);
      });
      pm_cells.push_back(pm_stats.Cell());
      wd_cells.push_back(wd_stats.Cell());
    }
    std::printf("%s  mean error over %d queries (%%):\n", which,
                workload->size());
    std::printf("  %s\n", bench_util::FormatSeries("PM", kEps, pm_cells).c_str());
    std::printf("  %s\n\n", bench_util::FormatSeries("WD", kEps, wd_cells).c_str());
  }
  std::printf("(paper shape: WD below PM at every epsilon, especially on W1)\n");
  return 0;
}
