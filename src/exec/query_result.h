// Copyright (c) dpstarj authors. Licensed under the MIT license.

#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace dpstarj::exec {

/// \brief The answer of a star-join query: a scalar aggregate, or per-group
/// aggregates keyed by a rendered group label (e.g. "1997|MFGR#12").
struct QueryResult {
  /// Scalar answer (COUNT/SUM without GROUP BY).
  double scalar = 0.0;
  /// True when the query had GROUP BY.
  bool grouped = false;
  /// Per-group aggregates, ordered by label (GROUP BY path).
  std::map<std::string, double> groups;

  /// Fact-table mutation epoch the answer was computed (or replayed) at —
  /// stamped by the service under its per-table read lock, so clients of a
  /// live table can tell exactly which version of the data they observed.
  /// 0 for tables that were never appended to after load.
  uint64_t epoch = 0;

  /// Sum over groups (== scalar for non-grouped results).
  double Total() const;

  /// \brief Mean relative error (%) of this result against the ground truth.
  ///
  /// Scalars compare directly. Grouped results average the per-group relative
  /// error over the *true* groups; a group absent from the estimate counts as
  /// 100% error (paper §5.3 perturbs only pre-GROUP-BY predicates, so the
  /// estimated grouping can drop groups).
  double MeanRelativeErrorPercent(const QueryResult& truth) const;

  /// \brief Relative error (%) of the result's *total* against the truth's.
  ///
  /// For GROUP BY queries this is the error of the grand aggregate — the
  /// metric the paper's Table 1 Qg rows are consistent with (per-group label
  /// matching degenerates to ~100% whenever a perturbed predicate moves the
  /// group universe; see docs/design.md).
  double TotalRelativeErrorPercent(const QueryResult& truth) const;

  /// Debug rendering.
  std::string ToString() const;
};

/// Delimiter used between group-key parts in rendered group labels.
inline constexpr char kGroupKeyDelimiter = '|';

}  // namespace dpstarj::exec
