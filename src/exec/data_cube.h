// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// A materialized data cube: the star-join pre-aggregated over the joint
// domain of chosen dimension attributes. Cell (i_1, ..., i_n) holds
// Σ w(t) over fact rows whose joined dimension attributes take those domain
// ordinals. This is the vector W of Eq. (11): any predicate query over the
// attributes is a dot product against the cube, which makes repeated-noise
// experiments and Workload Decomposition evaluation cheap.
//
// A cube is a snapshot of the tables at Build time: it is not maintained
// across appends, so callers that ingest rows build a new one. The served
// path never holds a cube — it answers through ScanPlans
// (exec/scan_plan.h), which do extend across appends.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/parallel.h"
#include "query/binder.h"
#include "query/workload.h"

namespace dpstarj::exec {

/// \brief One cube axis: a dimension attribute and its domain.
struct CubeAxis {
  std::string table;
  std::string column;
  storage::AttributeDomain domain;
};

/// \brief Tuning for the cube-building fact scan.
struct CubeOptions {
  /// Worker threads for the fact scan. 1 (default) runs on the calling
  /// thread; 0 means one worker per hardware thread. Like the executor,
  /// morsels are statically assigned and worker partials merge in worker
  /// order, so results are reproducible at any fixed thread count and exact
  /// sums (COUNT, integer-valued SUM) are identical across thread counts.
  /// Parallelism is skipped when the cube is too large for per-worker
  /// partials (> ~4M cells).
  int threads = 1;
  /// Rows per scan morsel (parallel granularity). The default is sized to
  /// the detected per-core L2 (exec/parallel.h, DefaultMorselSize).
  int64_t morsel_size = DefaultMorselSize();
};

/// \brief Dense cube over the joint domain of dimension attributes.
class DataCube {
 public:
  /// \brief Builds the cube for `q` over the given attributes. Every
  /// attribute must belong to a dimension joined by `q`. The cell weight is
  /// the query's aggregate weight (1 for COUNT, the measure for SUM).
  ///
  /// Fact rows holding attribute values outside a declared domain are dropped
  /// and counted in dropped_rows() — well-formed instances have none.
  ///
  /// The scan resolves each axis through a fused FK→domain-ordinal lookup
  /// table (a dense offset table when the dimension's key space allows, the
  /// same density rule as exec::KeyIndex) and runs morsel-parallel on the
  /// shared MorselPool per `options`.
  static Result<DataCube> Build(const query::BoundQuery& q,
                                const std::vector<query::DimensionAttribute>& attributes,
                                const CubeOptions& options = {});

  /// Builds over the query's own predicate attributes (axis order = the order
  /// of predicate-bearing dims in the bound query).
  static Result<DataCube> BuildFromQueryPredicates(const query::BoundQuery& q,
                                                   const CubeOptions& options = {});

  /// The axes, in build order.
  const std::vector<CubeAxis>& axes() const { return axes_; }
  /// Number of cells (product of axis sizes).
  int64_t num_cells() const { return static_cast<int64_t>(values_.size()); }
  /// Σ over all cells (the unfiltered query answer).
  double total() const { return total_; }
  /// Fact rows excluded because an attribute value was outside its domain.
  int64_t dropped_rows() const { return dropped_rows_; }

  /// Cell value by multi-index (bounds-checked).
  double CellAt(const std::vector<int64_t>& index) const;

  /// \brief Evaluates a conjunctive predicate query: preds[i] applies to axis
  /// i (nullptr = full domain). Returns Σ over matching cells.
  ///
  /// Bound predicates are closed index ranges, so each axis's match mask is a
  /// contiguous interval and the matching cells form a hyper-rectangle: the
  /// sweep visits only that box in stride order (the innermost axis is
  /// contiguous memory) instead of odometer-walking every cell. Summation
  /// order equals the old full-walk order, so answers are bit-identical.
  Result<double> Evaluate(const std::vector<const query::BoundPredicate*>& preds) const;

  /// \brief Weighted evaluation for Workload Decomposition: each axis i has a
  /// real-valued weight vector w_i over its domain, and the answer is
  /// Σ_cell Π_i w_i[idx_i] · cube[cell] (row-wise Kronecker dot product).
  Result<double> EvaluateWeighted(
      const std::vector<std::vector<double>>& axis_weights) const;

  /// Marginal histogram of one axis (Σ over the other axes).
  Result<std::vector<double>> Marginal(int axis) const;

 private:
  std::vector<CubeAxis> axes_;
  std::vector<int64_t> sizes_;
  std::vector<int64_t> strides_;  // row-major
  std::vector<double> values_;
  double total_ = 0.0;
  int64_t dropped_rows_ = 0;
};

}  // namespace dpstarj::exec
