#include "graph/kstar_mechanisms.h"

#include <cmath>

#include "baselines/r2t.h"
#include "common/math_util.h"
#include "core/pma.h"
#include "dp/mechanism.h"
#include "dp/sensitivity.h"

namespace dpstarj::graph {

Result<KStarAnswer> AnswerKStarWithPm(const Graph& g, const KStarIndex& index,
                                      const KStarQuery& q, double epsilon, Rng* rng,
                                      const KStarPmOptions& options) {
  if (index.num_nodes() != g.num_nodes() || index.k() != q.k) {
    return Status::InvalidArgument("index does not match graph/query");
  }
  Timer timer;
  // The node-range predicate over the node-id domain [0, n).
  query::BoundPredicate pred;
  pred.table = "Edge";
  pred.column = "from_id";
  pred.column_index = -1;
  pred.domain = storage::AttributeDomain::IntRange(0, g.num_nodes() - 1);
  pred.kind = (q.lo == q.hi) ? query::PredicateKind::kPoint
                             : query::PredicateKind::kRange;
  pred.lo_index = std::max<int64_t>(q.lo, 0);
  pred.hi_index = std::min<int64_t>(q.hi, g.num_nodes() - 1);
  if (pred.lo_index > pred.hi_index) {
    return Status::InvalidArgument("empty node range");
  }

  core::PmaOptions pma;
  pma.max_range_retries = options.max_range_retries;
  // The appendix's k-star query ranges over the whole node-id domain. Under
  // the width-preserving (shared-shift) reading a full-width interval has a
  // single feasible placement — the release would be deterministic and hence
  // not differentially private — so the k-star mechanisms use the verbatim
  // independent-endpoint perturbation of Algorithm 2 (docs/design.md).
  pma.range_mode = core::PmaRangeMode::kIndependentEndpoints;
  DPSTARJ_ASSIGN_OR_RETURN(query::BoundPredicate noisy,
                           core::PerturbPredicate(pred, epsilon, rng, pma));

  KStarAnswer out;
  out.estimate = index.CountRange(noisy.lo_index, noisy.hi_index);
  out.seconds = timer.ElapsedSeconds();
  return out;
}

Result<KStarAnswer> AnswerKStarWithR2t(const Graph& g, const KStarQuery& q,
                                       double epsilon, Rng* rng,
                                       const KStarR2tOptions& options) {
  Timer timer;
  Deadline deadline(options.time_limit_s);

  // Per-center contributions by explicit enumeration (the dominating cost,
  // standing in for the per-trial LP truncations of the original).
  std::vector<double> contributions;
  DPSTARJ_ASSIGN_OR_RETURN(double total,
                           EnumerateKStars(g, q, deadline, &contributions));
  (void)total;

  double gs = options.gs_q;
  if (gs <= 0.0) {
    gs = BinomialCoefficient(g.num_nodes() - 1, q.k);
    gs = std::min(gs, 1e15);  // keep the trial count meaningful
  }
  DPSTARJ_ASSIGN_OR_RETURN(
      double estimate,
      baselines::R2tRace(contributions, gs, epsilon, options.alpha, rng,
                         /*info=*/nullptr, &deadline));
  KStarAnswer out;
  out.estimate = estimate;
  out.seconds = timer.ElapsedSeconds();
  return out;
}

Result<KStarAnswer> AnswerKStarWithTm(const Graph& g, const KStarQuery& q,
                                      double epsilon, Rng* rng,
                                      const KStarTmOptions& options) {
  Timer timer;
  Deadline deadline(options.time_limit_s);

  // Default cap: the 99.9th degree percentile. Naive truncation must keep the
  // heavy tail mostly intact (heavy nodes own almost all k-stars, so a low
  // cap biases the answer by ~100%); the price is a large smooth sensitivity,
  // which is exactly the noise-dominated regime of the paper's TM column.
  int64_t cap =
      options.degree_cap > 0 ? options.degree_cap : g.DegreePercentile(0.999);
  if (cap < 1) cap = 1;

  // Naive truncation, then the truncated self-join (enumeration cost).
  Graph truncated = g.TruncateDegrees(cap);
  if (deadline.Expired()) {
    return Status::TimeLimit("TM truncation exceeded the time limit");
  }
  DPSTARJ_ASSIGN_OR_RETURN(double truncated_count,
                           EnumerateKStars(truncated, q, deadline, nullptr));

  // Smooth sensitivity of the truncated k-star count on the degree-capped
  // instance, at the Cauchy mechanism's β.
  double beta = dp::CauchyMechanism::Beta(epsilon, options.gamma);
  DPSTARJ_ASSIGN_OR_RETURN(
      double smooth,
      dp::KStarSmoothSensitivity(truncated.degrees(), q.k, cap, beta));

  DPSTARJ_ASSIGN_OR_RETURN(
      double estimate,
      dp::CauchyMechanism::Release(truncated_count, smooth, epsilon, rng,
                                   options.gamma));
  KStarAnswer out;
  out.estimate = estimate;
  out.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace dpstarj::graph
