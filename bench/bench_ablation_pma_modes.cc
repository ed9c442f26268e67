// Ablation — the PMA range-perturbation reading (docs/design.md): shared shift
// (width-preserving, the default for star joins) vs independent endpoints
// (the verbatim Algorithm 2). Run on the range-bearing SSB queries Qc3/Qc4
// and on k-star sub-range queries, across ε.
//
// Expected: the shared shift preserves the query's selectivity and keeps the
// error in the paper's band; independent endpoints blow up narrow ranges
// (Qc4's 2-of-7 year range, 2-of-5 mfgr pair) by re-drawing their width.

#include <cstdio>

#include "bench_common.h"
#include "core/predicate_mechanism.h"
#include "graph/generator.h"
#include "graph/kstar_mechanisms.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"

using namespace dpstarj;

namespace {

core::PredicateMechanism MechanismFor(core::PmaRangeMode mode) {
  core::PmaOptions pma;
  pma.range_mode = mode;
  return core::PredicateMechanism(pma);
}

bench_util::RunStats SsbError(const core::PredicateMechanism& pm,
                              const query::BoundQuery& bound, double truth,
                              double eps, int runs, Rng* rng) {
  return bench_util::Repeat(runs, [&]() -> Result<double> {
    DPSTARJ_ASSIGN_OR_RETURN(exec::QueryResult est, pm.Answer(bound, eps, rng));
    return RelativeErrorPercent(est.scalar, truth);
  });
}

}  // namespace

int main() {
  double sf = bench::BenchScaleFactor();
  int runs = bench_util::DefaultRuns();
  const std::vector<double> kEps = {0.1, 0.5, 1.0};

  std::printf(
      "== Ablation: PMA range modes — shared shift vs independent endpoints"
      " (SF=%.3f, %d runs) ==\n\n",
      sf, runs);

  ssb::SsbOptions options;
  options.scale_factor = sf;
  auto catalog = ssb::GenerateSsb(options);
  if (!catalog.ok()) {
    std::fprintf(stderr, "gen: %s\n", catalog.status().ToString().c_str());
    return 1;
  }

  Rng rng(1212);
  query::Binder binder(&*catalog);
  const core::PredicateMechanism shift_pm =
      MechanismFor(core::PmaRangeMode::kSharedShift);
  const core::PredicateMechanism indep_pm =
      MechanismFor(core::PmaRangeMode::kIndependentEndpoints);
  for (const auto& name : {std::string("Qc3"), std::string("Qc4")}) {
    auto q = ssb::GetQuery(name);
    auto bound = binder.Bind(*q);
    if (!bound.ok()) {
      std::fprintf(stderr, "bind: %s\n", bound.status().ToString().c_str());
      return 1;
    }
    auto truth = exec::StarJoinExecutor().Execute(*bound);
    if (!truth.ok()) {
      std::fprintf(stderr, "truth: %s\n", truth.status().ToString().c_str());
      return 1;
    }

    bench_util::TablePrinter table({name + " range mode", "eps=0.1 err %",
                                    "eps=0.5 err %", "eps=1 err %"});
    std::vector<std::string> shift_row = {"shared shift"};
    std::vector<std::string> indep_row = {"independent endpoints"};
    for (double eps : kEps) {
      shift_row.push_back(
          SsbError(shift_pm, *bound, truth->scalar, eps, runs, &rng).Cell());
      indep_row.push_back(
          SsbError(indep_pm, *bound, truth->scalar, eps, runs, &rng).Cell());
    }
    table.AddRow(shift_row);
    table.AddRow(indep_row);
    table.Print();
    std::printf("\n");
  }

  // k-star sub-range: here the *independent* reading is the meaningful one
  // (the full-domain query degenerates under the shared shift); show a proper
  // sub-range where both modes are live.
  auto g = graph::GenerateDeezerLike(0.02, 55);
  if (!g.ok()) {
    std::fprintf(stderr, "graph: %s\n", g.status().ToString().c_str());
    return 1;
  }
  graph::KStarIndex index(*g, 2);
  graph::KStarQuery q{2, g->num_nodes() / 4, 3 * g->num_nodes() / 4};
  double truth = index.CountRange(q.lo, q.hi);
  bench_util::TablePrinter table({"2-star sub-range mode", "eps=0.1 err %",
                                  "eps=0.5 err %", "eps=1 err %"});
  for (auto [label, mode] :
       {std::pair<const char*, core::PmaRangeMode>{"shared shift",
                                                   core::PmaRangeMode::kSharedShift},
        {"independent endpoints", core::PmaRangeMode::kIndependentEndpoints}}) {
    std::vector<std::string> row = {label};
    for (double eps : kEps) {
      auto stats = bench_util::Repeat(runs, [&]() -> Result<double> {
        query::BoundPredicate pred;
        pred.table = "Edge";
        pred.column = "from_id";
        pred.domain = storage::AttributeDomain::IntRange(0, g->num_nodes() - 1);
        pred.kind = query::PredicateKind::kRange;
        pred.lo_index = q.lo;
        pred.hi_index = q.hi;
        core::PmaOptions pma;
        pma.range_mode = mode;
        DPSTARJ_ASSIGN_OR_RETURN(auto noisy,
                                 core::PerturbPredicate(pred, eps, &rng, pma));
        return RelativeErrorPercent(index.CountRange(noisy.lo_index, noisy.hi_index),
                                    truth);
      });
      row.push_back(stats.Cell());
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "\n(expected: shared shift dominates on the narrow-range SSB queries;\n"
      " both modes are comparable on wide sub-ranges)\n");
  return 0;
}
