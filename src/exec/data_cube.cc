#include "exec/data_cube.h"

#include <algorithm>
#include <unordered_map>

#include "common/string_util.h"
#include "exec/domain_index.h"
#include "exec/group_code.h"
#include "exec/parallel.h"

namespace dpstarj::exec {

namespace {

/// Fused FK → cube contribution lookup for one joined dimension: axes map the
/// key straight to its domain ordinal (-1 = drop: key absent or value outside
/// the domain), non-axis dimensions map present keys to 0 (presence check
/// only, stride 0). KeyIndex itself is not reusable here — ordinals are
/// int64 (cube axes can exceed int32) — but the dense-vs-hash decision is
/// shared via KeyIndex::DenseRangeWorthwhile.
struct AxisLut {
  bool dense = false;
  int64_t min_key = 0;
  std::vector<int64_t> slots;  ///< slot → ordinal or -1
  std::unordered_map<int64_t, int64_t> map;

  static AxisLut Build(const std::vector<int64_t>& keys,
                       const std::vector<int64_t>* ordinals) {
    AxisLut lut;
    if (keys.empty()) {
      lut.dense = true;
      return lut;
    }
    auto [min_it, max_it] = std::minmax_element(keys.begin(), keys.end());
    uint64_t range =
        static_cast<uint64_t>(*max_it) - static_cast<uint64_t>(*min_it);
    if (KeyIndex::DenseRangeWorthwhile(keys.size(), range)) {
      lut.dense = true;
      lut.min_key = *min_it;
      lut.slots.assign(range + 1, -1);
      for (size_t i = 0; i < keys.size(); ++i) {
        uint64_t slot =
            static_cast<uint64_t>(keys[i]) - static_cast<uint64_t>(*min_it);
        lut.slots[slot] = ordinals != nullptr ? (*ordinals)[i] : 0;
      }
      return lut;
    }
    lut.map.reserve(keys.size() * 2);
    for (size_t i = 0; i < keys.size(); ++i) {
      lut.map.emplace(keys[i], ordinals != nullptr ? (*ordinals)[i] : 0);
    }
    return lut;
  }

  int64_t Lookup(int64_t key) const {
    if (dense) {
      uint64_t slot =
          static_cast<uint64_t>(key) - static_cast<uint64_t>(min_key);
      return slot < slots.size() ? slots[slot] : -1;
    }
    auto it = map.find(key);
    return it == map.end() ? -1 : it->second;
  }
};

/// One probe of the build scan: a lookup table, the FK column it reads, and
/// the stride its ordinal contributes to the cell offset (0 for non-axis
/// presence checks).
struct CubeProbe {
  AxisLut lut;
  const int64_t* fk = nullptr;
  int64_t stride = 0;
};

// Per-worker cells above this are not worth the partial-vector memory; the
// scan stays sequential instead.
constexpr int64_t kParallelCellLimit = int64_t{1} << 22;

}  // namespace

Result<DataCube> DataCube::Build(
    const query::BoundQuery& q,
    const std::vector<query::DimensionAttribute>& attributes,
    const CubeOptions& options) {
  if (attributes.empty()) {
    return Status::InvalidArgument("cube needs at least one attribute");
  }
  if (!q.group_key_layout.empty()) {
    return Status::NotSupported("cube does not support GROUP BY queries");
  }
  if (q.query.aggregate == query::AggregateKind::kAvg) {
    return Status::NotSupported(
        "cube cells are additive; AVG needs the executor path");
  }

  DataCube cube;
  int64_t cells = 1;
  // Per-axis ordinal columns (dim row → domain ordinal or -1), axis FKs.
  std::vector<std::vector<int64_t>> axis_ordinals(attributes.size());
  std::vector<int> axis_fk_col(attributes.size(), -1);
  std::vector<const query::DimBinding*> axis_owner(attributes.size(), nullptr);

  for (size_t a = 0; a < attributes.size(); ++a) {
    const auto& attr = attributes[a];
    const query::DimBinding* owner = nullptr;
    for (const auto& d : q.dims) {
      if (d.table == attr.table) {
        owner = &d;
        break;
      }
    }
    if (owner == nullptr) {
      return Status::InvalidArgument(
          Format("cube attribute %s.%s: table not joined by the query",
                 attr.table.c_str(), attr.column.c_str()));
    }
    DPSTARJ_ASSIGN_OR_RETURN(int col, owner->dim->schema().FieldIndex(attr.column));
    DPSTARJ_ASSIGN_OR_RETURN(
        axis_ordinals[a],
        ComputeDomainIndexes(owner->dim->column(col), attr.domain));
    axis_fk_col[a] = owner->fact_fk_col;
    axis_owner[a] = owner;

    CubeAxis axis;
    axis.table = attr.table;
    axis.column = attr.column;
    axis.domain = attr.domain;
    cube.axes_.push_back(std::move(axis));
    cube.sizes_.push_back(attr.domain.size());
    if (cells > (int64_t{1} << 40) / attr.domain.size()) {
      return Status::InvalidArgument("cube too large");
    }
    cells *= attr.domain.size();
  }

  cube.strides_.assign(cube.sizes_.size(), 1);
  for (int i = static_cast<int>(cube.sizes_.size()) - 2; i >= 0; --i) {
    cube.strides_[static_cast<size_t>(i)] =
        cube.strides_[static_cast<size_t>(i + 1)] * cube.sizes_[static_cast<size_t>(i + 1)];
  }
  cube.values_.assign(static_cast<size_t>(cells), 0.0);

  // Per-dimension fused FK→ordinal LUTs (one load per probe on dense key
  // spaces), morsel-parallel fact scan with worker partials merged
  // deterministically in worker order.
  std::vector<CubeProbe> probes;
  probes.reserve(q.dims.size());
  for (size_t a = 0; a < attributes.size(); ++a) {
    CubeProbe probe;
    const auto& keys =
        axis_owner[a]->dim->column(axis_owner[a]->dim_pk_col).int64_data();
    probe.lut = AxisLut::Build(keys, &axis_ordinals[a]);
    probe.fk = q.fact->column(axis_fk_col[a]).int64_data().data();
    probe.stride = cube.strides_[a];
    probes.push_back(std::move(probe));
  }
  for (const auto& d : q.dims) {
    bool is_axis = false;
    for (const auto& attr : attributes) {
      if (attr.table == d.table) {
        is_axis = true;
        break;
      }
    }
    if (is_axis) continue;
    CubeProbe probe;
    const auto& pk = d.dim->column(d.dim_pk_col).int64_data();
    probe.lut = AxisLut::Build(pk, nullptr);
    probe.fk = q.fact->column(d.fact_fk_col).int64_data().data();
    probe.stride = 0;
    probes.push_back(std::move(probe));
  }

  std::vector<std::pair<storage::Column::NumericView, double>> measures;
  measures.reserve(q.measure_cols.size());
  for (const auto& [col, coeff] : q.measure_cols) {
    measures.emplace_back(q.fact->column(col).numeric_view(), coeff);
  }

  const int64_t fact_rows = q.fact->num_rows();
  int num_workers =
      MorselPool::ResolveWorkers(options.threads, options.morsel_size, fact_rows);
  if (cells > kParallelCellLimit) num_workers = 1;

  struct CubePartial {
    std::vector<double> values;
    double total = 0.0;
    int64_t dropped = 0;
  };
  // total/dropped are bumped per row, so each worker's partial gets its own
  // cache line (CacheAligned, exec/parallel.h).
  std::vector<CacheAligned<CubePartial>> partials(
      static_cast<size_t>(num_workers));
  // Worker 0 (the calling thread) accumulates directly into the cube so the
  // common sequential case allocates nothing extra.
  for (size_t wkr = 1; wkr < partials.size(); ++wkr) {
    partials[wkr].value.values.assign(static_cast<size_t>(cells), 0.0);
  }

  const size_t num_probes = probes.size();
  auto scan = [&](int worker, int64_t begin, int64_t end) {
    CubePartial& p = partials[static_cast<size_t>(worker)].value;
    double* values = worker == 0 ? cube.values_.data() : p.values.data();
    for (int64_t row = begin; row < end; ++row) {
      int64_t offset = 0;
      bool drop = false;
      for (size_t a = 0; a < num_probes; ++a) {
        const CubeProbe& probe = probes[a];
        int64_t ordinal = probe.lut.Lookup(probe.fk[row]);
        drop |= ordinal < 0;
        offset += ordinal * probe.stride;  // poisoned when drop; unused then
      }
      if (drop) {
        ++p.dropped;
        continue;
      }
      double w = 1.0;
      if (!measures.empty()) {
        w = 0.0;
        for (const auto& [view, coeff] : measures) w += coeff * view[row];
      }
      values[static_cast<size_t>(offset)] += w;
      p.total += w;
    }
  };
  MorselPool::Shared().Run(num_workers, fact_rows, options.morsel_size, scan);

  // Deterministic merge, in worker order (worker 0 is already in place).
  cube.total_ = partials[0].value.total;
  cube.dropped_rows_ = partials[0].value.dropped;
  for (size_t wkr = 1; wkr < partials.size(); ++wkr) {
    const CubePartial& p = partials[wkr].value;
    for (int64_t c = 0; c < cells; ++c) {
      cube.values_[static_cast<size_t>(c)] += p.values[static_cast<size_t>(c)];
    }
    cube.total_ += p.total;
    cube.dropped_rows_ += p.dropped;
  }
  return cube;
}

Result<DataCube> DataCube::BuildFromQueryPredicates(const query::BoundQuery& q,
                                                    const CubeOptions& options) {
  std::vector<query::DimensionAttribute> attrs;
  for (const auto& d : q.dims) {
    for (const auto& p : d.predicates) {
      query::DimensionAttribute a;
      a.table = d.table;
      a.column = p.column;
      a.domain = p.domain;
      attrs.push_back(std::move(a));
    }
  }
  if (attrs.empty()) {
    return Status::InvalidArgument("query has no predicates to build a cube over");
  }
  return Build(q, attrs, options);
}

double DataCube::CellAt(const std::vector<int64_t>& index) const {
  DPSTARJ_CHECK(index.size() == sizes_.size(), "cube index arity mismatch");
  int64_t offset = 0;
  for (size_t i = 0; i < index.size(); ++i) {
    DPSTARJ_CHECK(index[i] >= 0 && index[i] < sizes_[i], "cube index out of range");
    offset += index[i] * strides_[i];
  }
  return values_[static_cast<size_t>(offset)];
}

Result<double> DataCube::Evaluate(
    const std::vector<const query::BoundPredicate*>& preds) const {
  if (preds.size() != axes_.size()) {
    return Status::InvalidArgument("predicate arity must match cube axes");
  }
  // Each axis's match set is the contiguous interval [lo, hi] of its bound
  // predicate (full domain when null), so the matching cells are one
  // hyper-rectangle; sweep only that box, in stride order.
  const int n = static_cast<int>(axes_.size());
  std::vector<int64_t> lo(static_cast<size_t>(n), 0);
  std::vector<int64_t> hi(static_cast<size_t>(n), 0);
  for (int a = 0; a < n; ++a) {
    lo[static_cast<size_t>(a)] = 0;
    hi[static_cast<size_t>(a)] = sizes_[static_cast<size_t>(a)] - 1;
    if (preds[static_cast<size_t>(a)] != nullptr) {
      lo[static_cast<size_t>(a)] = std::max<int64_t>(
          preds[static_cast<size_t>(a)]->lo_index, 0);
      hi[static_cast<size_t>(a)] = std::min<int64_t>(
          preds[static_cast<size_t>(a)]->hi_index,
          sizes_[static_cast<size_t>(a)] - 1);
    }
    if (lo[static_cast<size_t>(a)] > hi[static_cast<size_t>(a)]) return 0.0;
  }

  double sum = 0.0;
  const int64_t inner_lo = lo[static_cast<size_t>(n - 1)];
  const int64_t inner_len =
      hi[static_cast<size_t>(n - 1)] - inner_lo + 1;  // innermost: stride 1
  std::vector<int64_t> idx(lo);
  int64_t base = 0;
  for (int a = 0; a + 1 < n; ++a) {
    base += lo[static_cast<size_t>(a)] * strides_[static_cast<size_t>(a)];
  }
  while (true) {
    const double* cell = values_.data() + base + inner_lo;
    for (int64_t i = 0; i < inner_len; ++i) sum += cell[i];
    int a = n - 2;
    for (; a >= 0; --a) {
      if (++idx[static_cast<size_t>(a)] <= hi[static_cast<size_t>(a)]) {
        base += strides_[static_cast<size_t>(a)];
        break;
      }
      base -= (hi[static_cast<size_t>(a)] - lo[static_cast<size_t>(a)]) *
              strides_[static_cast<size_t>(a)];
      idx[static_cast<size_t>(a)] = lo[static_cast<size_t>(a)];
    }
    if (a < 0) break;
  }
  return sum;
}

Result<double> DataCube::EvaluateWeighted(
    const std::vector<std::vector<double>>& axis_weights) const {
  if (axis_weights.size() != axes_.size()) {
    return Status::InvalidArgument("weight arity must match cube axes");
  }
  for (size_t a = 0; a < axes_.size(); ++a) {
    if (static_cast<int64_t>(axis_weights[a].size()) != sizes_[a]) {
      return Status::InvalidArgument(
          Format("axis %zu weight vector has wrong size", a));
    }
  }
  double sum = 0.0;
  std::vector<int64_t> idx(axes_.size(), 0);
  for (size_t cell = 0; cell < values_.size(); ++cell) {
    if (values_[cell] != 0.0) {
      double w = 1.0;
      for (size_t a = 0; a < axes_.size(); ++a) {
        w *= axis_weights[a][static_cast<size_t>(idx[a])];
        if (w == 0.0) break;
      }
      sum += w * values_[cell];
    }
    for (int a = static_cast<int>(axes_.size()) - 1; a >= 0; --a) {
      if (++idx[static_cast<size_t>(a)] < sizes_[static_cast<size_t>(a)]) break;
      idx[static_cast<size_t>(a)] = 0;
    }
  }
  return sum;
}

Result<std::vector<double>> DataCube::Marginal(int axis) const {
  if (axis < 0 || axis >= static_cast<int>(axes_.size())) {
    return Status::OutOfRange("axis out of range");
  }
  std::vector<double> out(static_cast<size_t>(sizes_[static_cast<size_t>(axis)]), 0.0);
  std::vector<int64_t> idx(axes_.size(), 0);
  for (size_t cell = 0; cell < values_.size(); ++cell) {
    out[static_cast<size_t>(idx[static_cast<size_t>(axis)])] += values_[cell];
    for (int a = static_cast<int>(axes_.size()) - 1; a >= 0; --a) {
      if (++idx[static_cast<size_t>(a)] < sizes_[static_cast<size_t>(a)]) break;
      idx[static_cast<size_t>(a)] = 0;
    }
  }
  return out;
}

}  // namespace dpstarj::exec
