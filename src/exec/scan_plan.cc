#include "exec/scan_plan.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <map>
#include <unordered_map>

#include "common/string_util.h"
#include "exec/domain_index.h"
#include "exec/kernels/kernels.h"
#include "exec/query_result.h"

namespace dpstarj::exec {

namespace {

// Raw value of a group-by cell as an exact int64 (doubles keyed by bit
// pattern, strings by dictionary code), so distinct values get distinct
// ordinals or codes; values that render identically merge on render.
int64_t CellKey(const storage::Column& col, int64_t row) {
  switch (col.type()) {
    case storage::ValueType::kInt64:
      return col.GetInt64(row);
    case storage::ValueType::kString:
      return col.GetStringCode(row);
    case storage::ValueType::kDouble: {
      double d = col.GetDouble(row);
      int64_t bits;
      static_assert(sizeof(bits) == sizeof(d), "double must be 64-bit");
      std::memcpy(&bits, &d, sizeof(bits));
      return bits;
    }
  }
  return 0;
}

// Group ordinal of a resolved dimension row; the absent-FK sentinel takes
// ordinal 0 (such rows never pass, so their code only has to be valid).
uint64_t GroupOrdinalOf(const PlanDim& pd, int32_t dim_row) {
  if (dim_row == pd.num_rows) return 0;
  return static_cast<uint64_t>(pd.groups->ordinal[static_cast<size_t>(dim_row)]);
}

// The per-fact-row passes below cover rows [begin, end): a column or plan
// built from scratch runs them from row 0, an extension over the appended
// tail only, so an extended column or plan is a fresh build's by
// construction.

// Dimension i's primary key → dimension row. Fails on a duplicate key.
Result<KeyIndex> DimRowIndex(const query::BoundQuery& q, size_t i) {
  const query::DimBinding& d = q.dims[i];
  const auto& keys = d.dim->column(d.dim_pk_col).int64_data();
  std::vector<int32_t> row_payload(keys.size());
  for (size_t r = 0; r < keys.size(); ++r) {
    row_payload[r] = static_cast<int32_t>(r);
  }
  auto built = KeyIndex::Build(keys, row_payload);
  if (!built.ok()) {
    return Status::InvalidArgument(
        Format("duplicate primary key in dimension '%s': %s", d.table.c_str(),
               built.status().message().c_str()));
  }
  return std::move(*built);
}

// Resolves dimension i's FK of rows [begin, end) into column.rows, absent
// keys to the sentinel row column.dim_rows. The absent flag is kept in a
// local and stored after the loop, so the loop stores nothing but rows.
void ResolveFactRows(const query::BoundQuery& q, size_t i,
                     const KeyIndex& index, int64_t begin, int64_t end,
                     JoinColumn& column) {
  const int64_t* fk = q.fact->column(q.dims[i].fact_fk_col).int64_data().data();
  int32_t* rows = column.rows.mutable_data();
  const int32_t sentinel = column.dim_rows;
  bool absent = column.has_absent_fk;
  for (int64_t r = begin; r < end; ++r) {
    int32_t dr = index.Lookup(fk[r]);
    if (dr == KeyIndex::kAbsent) {
      dr = sentinel;
      absent = true;
    }
    rows[r] = dr;
  }
  column.has_absent_fk = absent;
}

// Adds rows [begin, end) of the measure terms' weighted sum into `values`
// (zeroed there). Measure columns outer, rows inner, so every row's sum
// associates the same way whether its column was built from scratch or over
// a prefix.
void AddWeights(const query::BoundQuery& q, int64_t begin, int64_t end,
                double* values) {
  for (const auto& [col, coeff] : q.measure_cols) {
    storage::Column::NumericView view = q.fact->column(col).numeric_view();
    const double c = coeff;
    for (int64_t r = begin; r < end; ++r) values[r] += c * view[r];
  }
}

// The entries of an ordinal column of `table` over `join`: `prefix` grown to
// join's fact rows (a fresh array when null), with the rows it lacks
// composed. The table is narrowed to T first, with the width's top value for
// "no ordinal" and one extra entry for the absent-FK sentinel row, so each
// fact row costs one load from it. Four rows are stored at once, so their
// loads do not wait behind single-entry stores.
template <typename T>
AppendArray<T> ComposeOrdinals(const JoinColumn& join, const OrdinalTable& table,
                               const AppendArray<T>* prefix) {
  constexpr T kNone = std::numeric_limits<T>::max();
  DPSTARJ_CHECK(table.ordinals.size() == static_cast<size_t>(join.dim_rows),
                "ordinal table and join column cover different dimension rows");
  std::vector<T> narrowed(table.ordinals.size() + 1, kNone);
  for (size_t r = 0; r < table.ordinals.size(); ++r) {
    if (table.ordinals[r] >= 0) narrowed[r] = static_cast<T>(table.ordinals[r]);
  }
  const size_t rows = static_cast<size_t>(join.fact_rows);
  AppendArray<T> out = prefix == nullptr ? AppendArray<T>(rows)
                                         : AppendArray<T>::Extend(*prefix, rows);
  const T* ordinal = narrowed.data();
  const int32_t* dim_row = join.rows.data();
  T* dst = out.mutable_data();
  size_t r = prefix == nullptr ? 0 : prefix->size();
  for (; r + 4 <= rows; r += 4) {
    const T four[4] = {ordinal[dim_row[r]], ordinal[dim_row[r + 1]],
                       ordinal[dim_row[r + 2]], ordinal[dim_row[r + 3]]};
    std::memcpy(dst + r, four, sizeof(four));
  }
  for (; r < rows; ++r) dst[r] = ordinal[dim_row[r]];
  return out;
}

// Numbers each distinct group-key tuple among the fact rows in first-
// occurrence order and uses that number as the row's group code: the code
// layout for key sets whose ordinals cannot pack into 64 bits. Dimension
// parts key by group ordinal, fact parts by exact cell value.
void NumberKeyTuples(ScanPlan& plan, const query::BoundQuery& q) {
  plan.numbered_codes = true;
  const int64_t rows = plan.fact_rows();
  plan.codes.resize(static_cast<size_t>(rows));
  uint64_t* codes = plan.codes.data();
  std::map<std::vector<int64_t>, uint64_t> code_of;
  std::vector<int64_t> tuple(plan.parts.size());
  for (int64_t r = 0; r < rows; ++r) {
    for (size_t p = 0; p < plan.parts.size(); ++p) {
      const PlanLabelPart& part = plan.parts[p];
      if (part.dim_idx >= 0) {
        const size_t i = static_cast<size_t>(part.dim_idx);
        tuple[p] = static_cast<int64_t>(GroupOrdinalOf(
            plan.dims[i], plan.fact_dim_row[i]->rows[static_cast<size_t>(r)]));
      } else {
        tuple[p] = CellKey(q.fact->column(part.col), r);
      }
    }
    auto [it, inserted] = code_of.try_emplace(tuple, plan.code_rows.size());
    if (inserted) plan.code_rows.push_back(r);
    codes[r] = it->second;
  }
  plan.code_space = plan.code_rows.size();
}

// Numbers one dimension's classes: rows with equal domain ordinals in every
// memoized ordinal table and equal group ordinals share a class, numbered in
// first-occurrence row order. Fills `class_of_row` and `classes` (num_rows =
// class count; each ordinal table maps class → ordinal). NotSupported when
// the tuples do not fit a 64-bit key.
Status NumberClasses(const PlanDim& pd, std::vector<int32_t>& class_of_row,
                     PlanDim& classes) {
  // Each row's tuple as one mixed-radix key: ordinal + 1 per table (so -1,
  // outside the domain, is a digit too), then the group ordinal.
  const size_t rows = static_cast<size_t>(pd.num_rows);
  std::vector<uint64_t> key(rows, 0);
  uint64_t scale = 1;
  auto add_digits = [&](uint64_t radix, auto digit) {
    for (size_t r = 0; r < rows; ++r) key[r] += digit(r) * scale;
    return !__builtin_mul_overflow(scale, radix, &scale);
  };
  for (const auto& t : pd.ordinal_tables) {
    const int64_t* ordinals = t->ordinals.data();
    if (!add_digits(static_cast<uint64_t>(t->domain.size()) + 1, [&](size_t r) {
          return static_cast<uint64_t>(ordinals[r] + 1);
        })) {
      return Status::NotSupported("class tuples do not fit 64 bits");
    }
  }
  const GroupOrdinals* groups = pd.groups.get();
  if (groups != nullptr && !groups->ordinal.empty() &&
      !add_digits(groups->rep_rows.size(), [&](size_t r) {
        return static_cast<uint64_t>(groups->ordinal[r]);
      })) {
    return Status::NotSupported("class tuples do not fit 64 bits");
  }

  std::unordered_map<uint64_t, int32_t> class_of_key;
  std::vector<size_t> reps;  // class → first row
  class_of_row.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    auto [it, inserted] =
        class_of_key.try_emplace(key[r], static_cast<int32_t>(reps.size()));
    if (inserted) reps.push_back(r);
    class_of_row[r] = it->second;
  }
  classes.num_rows = static_cast<int32_t>(reps.size());
  for (const auto& t : pd.ordinal_tables) {
    auto ct = std::make_shared<OrdinalTable>();
    ct->column_index = t->column_index;
    ct->domain = t->domain;
    ct->ordinals.reserve(reps.size());
    for (size_t rep : reps) ct->ordinals.push_back(t->ordinals[rep]);
    classes.ordinal_tables.push_back(std::move(ct));
  }
  return Status::OK();
}

// Adds fact rows [begin, plan.fact_rows()) of `q` to `cells`. A row whose
// foreign keys all resolve joins the cell of its (classes, fact-side group
// fields) combination, opened at the combination's first row, adding 1 to
// the cell's count and its weight to the cell's sum in row order. Rows go in
// cache-resident blocks: first every row's dense index, one dimension at a
// time, then the cells. Group codes are packed only where they are read:
// for every resolving row when fact-side fields join the index, and for
// each row that opens a cell.
void AddRowsToCells(const ScanPlan& plan, const query::BoundQuery& q,
                    int64_t begin, CellLayout& cells) {
  constexpr int64_t kBlock = 1024;
  constexpr uint64_t kMissing = ~uint64_t{0};
  const int64_t end = plan.fact_rows();
  const double* w =
      plan.weights == nullptr ? nullptr : plan.weights->values.data();
  const bool fact_fields =
      std::any_of(plan.parts.begin(), plan.parts.end(),
                  [](const PlanLabelPart& part) { return part.dim_idx < 0; });
  uint64_t index[kBlock];
  int64_t resolved[kBlock];
  uint64_t codes[kBlock];
  int64_t opening[kBlock];
  for (int64_t b0 = begin; b0 < end; b0 += kBlock) {
    const int64_t n = std::min(kBlock, end - b0);
    std::fill(index, index + n, 0);
    for (size_t i = 0; i < plan.dims.size(); ++i) {
      const int32_t* rows = plan.fact_dim_row[i]->rows.data() + b0;
      const int32_t* cls = cells.class_of_row[i].data();
      const int32_t sentinel = plan.dims[i].num_rows;
      const uint64_t stride = cells.dim_strides[i];
      for (int64_t k = 0; k < n; ++k) {
        if (rows[k] == sentinel) {
          index[k] = kMissing;
        } else if (index[k] != kMissing) {
          index[k] += static_cast<uint64_t>(cls[rows[k]]) * stride;
        }
      }
    }
    if (fact_fields) {
      size_t m = 0;
      for (int64_t k = 0; k < n; ++k) {
        if (index[k] != kMissing) resolved[m++] = b0 + k;
      }
      plan.GroupCodes(q, resolved, m, codes);
      for (size_t p = 0; p < plan.parts.size(); ++p) {
        const PlanLabelPart& part = plan.parts[p];
        if (part.dim_idx >= 0) continue;
        const uint64_t stride = cells.part_strides[p];
        for (size_t j = 0; j < m; ++j) {
          index[resolved[j] - b0] +=
              plan.layout.Extract(codes[j], part.field) * stride;
        }
      }
    }
    const size_t first_cell = cells.counts.size();
    size_t opened = 0;
    for (int64_t k = 0; k < n; ++k) {
      if (index[k] == kMissing) continue;
      const size_t r = static_cast<size_t>(b0 + k);
      int32_t& cell = cells.cell_of_index[index[k]];
      if (cell < 0) {
        cell = static_cast<int32_t>(cells.counts.size());
        for (size_t i = 0; i < plan.dims.size(); ++i) {
          cells.cell_class[i].push_back(cells.class_of_row[i][static_cast<size_t>(
              plan.fact_dim_row[i]->rows[r])]);
        }
        cells.counts.push_back(0);
        if (w != nullptr) cells.weights.push_back(0.0);
        opening[opened++] = b0 + k;
      }
      ++cells.counts[static_cast<size_t>(cell)];
      if (w != nullptr) cells.weights[static_cast<size_t>(cell)] += w[r];
    }
    if (plan.grouped) {
      cells.codes.resize(first_cell + opened);
      plan.GroupCodes(q, opening, opened, cells.codes.data() + first_cell);
    }
  }
}

// Gives cells [first, num_cells) their label slots. Only the group codes
// missing from cells.code_slots are rendered; their labels merge into the
// sorted table, and when one lands before an existing label the old slots
// move up. WithCells runs it over every cell from an empty table, so an
// extended plan's labels, code index and slots are a fresh build's by
// construction.
void MergeCellLabels(const ScanPlan& plan, const query::BoundQuery& q,
                     size_t first, CellLayout& cells) {
  // The new cells' distinct codes → slot: the indexed ones' now, the
  // others' (-1 here) once their labels are merged.
  std::unordered_map<uint64_t, int32_t> slot_of;
  for (size_t c = first; c < cells.codes.size(); ++c) {
    slot_of.try_emplace(cells.codes[c], -1);
  }
  std::vector<uint64_t> fresh;  // the codes the index lacks
  for (auto& [code, slot] : slot_of) {
    const auto it = std::lower_bound(
        cells.code_slots.begin(), cells.code_slots.end(), code,
        [](const auto& entry, uint64_t c) { return entry.first < c; });
    if (it != cells.code_slots.end() && it->first == code) {
      slot = it->second;
    } else {
      fresh.push_back(code);
    }
  }
  std::sort(fresh.begin(), fresh.end());
  std::vector<std::string> fresh_labels(fresh.size());
  std::vector<std::string> added;  // the labels the table lacks
  for (size_t k = 0; k < fresh.size(); ++k) {
    plan.RenderLabel(q, fresh[k], &fresh_labels[k]);
    if (!std::binary_search(cells.labels.begin(), cells.labels.end(),
                            fresh_labels[k])) {
      added.push_back(fresh_labels[k]);
    }
  }
  std::sort(added.begin(), added.end());
  added.erase(std::unique(added.begin(), added.end()), added.end());

  if (!added.empty()) {
    // Merge, recording where each old slot moved.
    std::vector<std::string> merged;
    merged.reserve(cells.labels.size() + added.size());
    std::vector<int32_t> moved(cells.labels.size());
    size_t a = 0;
    for (size_t s = 0; s < cells.labels.size(); ++s) {
      while (a < added.size() && added[a] < cells.labels[s]) {
        merged.push_back(std::move(added[a++]));
      }
      moved[s] = static_cast<int32_t>(merged.size());
      merged.push_back(std::move(cells.labels[s]));
    }
    while (a < added.size()) merged.push_back(std::move(added[a++]));
    cells.labels = std::move(merged);
    // Old slots moved iff an added label sorts before the last old one.
    if (!moved.empty() &&
        moved.back() != static_cast<int32_t>(moved.size()) - 1) {
      auto move = [&moved](int32_t& slot) {
        slot = moved[static_cast<size_t>(slot)];
      };
      for (size_t c = 0; c < first; ++c) move(cells.slots[c]);
      for (auto& entry : cells.code_slots) move(entry.second);
      for (auto& [code, slot] : slot_of) {
        if (slot >= 0) move(slot);
      }
    }
  }
  const size_t old_codes = cells.code_slots.size();
  for (size_t k = 0; k < fresh.size(); ++k) {
    const int32_t slot = static_cast<int32_t>(
        std::lower_bound(cells.labels.begin(), cells.labels.end(),
                         fresh_labels[k]) -
        cells.labels.begin());
    slot_of[fresh[k]] = slot;
    cells.code_slots.emplace_back(fresh[k], slot);
  }
  std::inplace_merge(
      cells.code_slots.begin(),
      cells.code_slots.begin() + static_cast<std::ptrdiff_t>(old_codes),
      cells.code_slots.end());
  cells.slots.resize(cells.codes.size());
  for (size_t c = first; c < cells.codes.size(); ++c) {
    cells.slots[c] = slot_of.find(cells.codes[c])->second;
  }
}

// Share's `fits` for entries whose key determines them exactly.
constexpr auto kAnyEntry = [](const auto&) { return true; };

}  // namespace

template <typename Entry, typename Build, typename Fits>
Result<std::shared_ptr<const Entry>> PlanColumnStore::Share(
    Index<Entry>& index, const std::string& key, bool counted,
    const Build& build, const Fits& fits) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index.find(key);
    if (it != index.end()) {
      std::shared_ptr<const Entry> live = it->second.lock();
      if (live != nullptr && fits(*live)) {
        if (counted) ++stats_.reuses;
        return live;
      }
    }
  }
  // Build outside the lock: it scans table data, and concurrent compiles
  // over other tables must not queue behind it.
  DPSTARJ_ASSIGN_OR_RETURN(std::shared_ptr<const Entry> built, build());
  std::lock_guard<std::mutex> lock(mu_);
  if (counted) ++stats_.builds;
  std::weak_ptr<const Entry>& slot = index[key];
  if (std::shared_ptr<const Entry> live = slot.lock()) {
    return fits(*live) ? live : built;
  }
  slot = built;
  // Builds are rare and each scans a table, so dropping the entries of dead
  // ones here keeps the index at the live entries for free.
  for (auto it = index.begin(); it != index.end();) {
    it = it->second.expired() ? index.erase(it) : std::next(it);
  }
  return built;
}

Result<std::shared_ptr<const JoinColumn>> PlanColumnStore::GetJoinColumn(
    const query::BoundQuery& q, size_t i, int64_t fact_rows,
    const JoinColumn* prefix) {
  const query::DimBinding& d = q.dims[i];
  const int32_t dim_rows = static_cast<int32_t>(
      d.dim->column(d.dim_pk_col).int64_data().size());
  // Table addresses are safe in the key: every column pins its tables.
  const std::string key =
      Format("%p@%d:%p@%d#%lld/%d", static_cast<const void*>(q.fact.get()),
             d.fact_fk_col, static_cast<const void*>(d.dim.get()),
             d.dim_pk_col, static_cast<long long>(fact_rows), dim_rows);
  using Shared = std::shared_ptr<const JoinColumn>;
  return Share(joins_, key, /*counted=*/true, [&]() -> Result<Shared> {
    // The index first: a failed build must not claim the prefix's tail.
    DPSTARJ_ASSIGN_OR_RETURN(const KeyIndex index, DimRowIndex(q, i));
    auto column = std::make_shared<JoinColumn>();
    column->fact = q.fact;
    column->dim = d.dim;
    column->fact_fk_col = d.fact_fk_col;
    column->dim_pk_col = d.dim_pk_col;
    column->fact_rows = fact_rows;
    column->dim_rows = dim_rows;
    int64_t begin = 0;
    if (prefix != nullptr && prefix->fact == q.fact && prefix->dim == d.dim &&
        prefix->fact_fk_col == d.fact_fk_col &&
        prefix->dim_pk_col == d.dim_pk_col && prefix->dim_rows == dim_rows &&
        prefix->fact_rows <= fact_rows) {
      column->rows = Extend(prefix->rows, fact_rows);
      column->has_absent_fk = prefix->has_absent_fk;
      begin = prefix->fact_rows;
    } else {
      column->rows = AppendArray<int32_t>(static_cast<size_t>(fact_rows));
    }
    ResolveFactRows(q, i, index, begin, fact_rows, *column);
    return Shared(std::move(column));
  }, kAnyEntry);
}

std::shared_ptr<const WeightColumn> PlanColumnStore::GetWeightColumn(
    const query::BoundQuery& q, int64_t fact_rows, const WeightColumn* prefix) {
  std::string key = Format("%p#%lld", static_cast<const void*>(q.fact.get()),
                           static_cast<long long>(fact_rows));
  for (const auto& [col, coeff] : q.measure_cols) {
    uint64_t bits;  // the exact coefficient: %g could merge two of them
    std::memcpy(&bits, &coeff, sizeof(bits));
    key += Format("|%d*%016llx", col, static_cast<unsigned long long>(bits));
  }
  using Shared = std::shared_ptr<const WeightColumn>;
  auto shared = Share(weights_, key, /*counted=*/true, [&]() -> Result<Shared> {
    auto column = std::make_shared<WeightColumn>();
    column->fact = q.fact;
    column->measure_cols = q.measure_cols;
    column->fact_rows = fact_rows;
    int64_t begin = 0;
    if (prefix != nullptr && prefix->fact == q.fact &&
        prefix->measure_cols == q.measure_cols &&
        prefix->fact_rows <= fact_rows) {
      column->values = Extend(prefix->values, fact_rows);
      begin = prefix->fact_rows;
    } else {
      column->values = AppendArray<double>(static_cast<size_t>(fact_rows));
    }
    AddWeights(q, begin, fact_rows, column->values.mutable_data());
    return Shared(std::move(column));
  }, kAnyEntry);
  return std::move(shared).ValueOrDie();  // building weights cannot fail
}

Result<std::shared_ptr<const OrdinalTable>> PlanColumnStore::GetOrdinalTable(
    const query::BoundQuery& q, size_t i, const query::BoundPredicate& pred) {
  const std::shared_ptr<storage::Table>& dim = q.dims[i].dim;
  // ToString() is exact for integer domains but reads cat{N} for every
  // categorical one of N values, so a hit must also match the domain.
  const std::string key =
      Format("%p#%lld:%d:", static_cast<const void*>(dim.get()),
             static_cast<long long>(dim->num_rows()), pred.column_index) +
      pred.domain.ToString();
  using Shared = std::shared_ptr<const OrdinalTable>;
  return Share(
      ordinals_, key, /*counted=*/false,
      [&]() -> Result<Shared> {
        auto table = std::make_shared<OrdinalTable>();
        table->dim = dim;
        table->column_index = pred.column_index;
        table->domain = pred.domain;
        DPSTARJ_ASSIGN_OR_RETURN(
            table->ordinals,
            ComputeDomainIndexes(dim->column(pred.column_index), pred.domain));
        return Shared(std::move(table));
      },
      [&](const OrdinalTable& live) { return live.domain == pred.domain; });
}

std::shared_ptr<const GroupOrdinals> PlanColumnStore::GetGroupOrdinals(
    const query::BoundQuery& q, size_t i, const std::vector<int>& columns) {
  const std::shared_ptr<storage::Table>& dim = q.dims[i].dim;
  const int64_t rows = dim->num_rows();
  std::string key = Format("%p#%lld", static_cast<const void*>(dim.get()),
                           static_cast<long long>(rows));
  for (int col : columns) key += Format(":%d", col);
  using Shared = std::shared_ptr<const GroupOrdinals>;
  auto shared = Share(
      groups_, key, /*counted=*/false,
      [&]() -> Result<Shared> {
        auto groups = std::make_shared<GroupOrdinals>();
        groups->dim = dim;
        groups->ordinal.resize(static_cast<size_t>(rows));
        // First-occurrence order over all rows.
        std::map<std::vector<int64_t>, int32_t> ordinal_of;
        std::vector<int64_t> combo(columns.size());
        for (int64_t r = 0; r < rows; ++r) {
          for (size_t c = 0; c < columns.size(); ++c) {
            combo[c] = CellKey(dim->column(columns[c]), r);
          }
          auto [it, inserted] = ordinal_of.emplace(
              combo, static_cast<int32_t>(groups->rep_rows.size()));
          if (inserted) groups->rep_rows.push_back(r);
          groups->ordinal[static_cast<size_t>(r)] = it->second;
        }
        return Shared(std::move(groups));
      },
      kAnyEntry);
  return std::move(shared).ValueOrDie();  // numbering cannot fail
}

std::shared_ptr<const OrdinalColumn> PlanColumnStore::GetOrdinalColumn(
    const std::shared_ptr<const JoinColumn>& join,
    const std::shared_ptr<const OrdinalTable>& table,
    const OrdinalColumn* prefix) {
  const int width = OrdinalColumn::WidthFor(table->domain.size());
  if (width == 0) return nullptr;
  // Both addresses are safe in the key: the column pins both.
  const std::string key = Format("%p:%p", static_cast<const void*>(join.get()),
                                 static_cast<const void*>(table.get()));
  using Shared = std::shared_ptr<const OrdinalColumn>;
  auto shared = Share(
      ordinal_columns_, key, /*counted=*/false,
      [&]() -> Result<Shared> {
        auto column = std::make_shared<OrdinalColumn>();
        column->join = join;
        column->table = table;
        column->fact_rows = join->fact_rows;
        column->width = width;
        const JoinColumn* old = prefix == nullptr ? nullptr : prefix->join.get();
        if (old != nullptr &&
            !(prefix->table == table && old->fact == join->fact &&
              old->dim == join->dim && old->fact_fk_col == join->fact_fk_col &&
              old->dim_pk_col == join->dim_pk_col &&
              old->dim_rows == join->dim_rows &&
              old->fact_rows <= join->fact_rows)) {
          prefix = nullptr;
        }
        if (width == 1) {
          column->narrow = ComposeOrdinals(
              *join, *table, prefix == nullptr ? nullptr : &prefix->narrow);
        } else {
          column->wide = ComposeOrdinals(
              *join, *table, prefix == nullptr ? nullptr : &prefix->wide);
        }
        return Shared(std::move(column));
      },
      kAnyEntry);
  return std::move(shared).ValueOrDie();  // composing cannot fail
}

PlanColumnStore::Stats PlanColumnStore::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Result<ScanPlan> ScanPlan::Compile(const query::BoundQuery& q,
                                   PlanColumnStore& columns) {
  ScanPlan plan;
  plan.fact_ = q.fact;
  plan.fact_rows_ = q.fact->num_rows();
  plan.measure_cols_ = q.measure_cols;
  plan.group_key_layout_ = q.group_key_layout;
  for (const auto& d : q.dims) {
    plan.dim_tables_.push_back(d.dim);
    plan.dim_rows_.push_back(d.dim->num_rows());
  }
  plan.grouped = !q.group_key_layout.empty();

  // ---- group-code layout: one field per fact-side key in declared order,
  // then one per group-bearing dimension (covering all its key columns).
  std::vector<std::vector<int>> dim_group_cols(q.dims.size());
  bool numbered = false;  // some fact key has no bounded ordinal space
  if (plan.grouped) {
    plan.parts.reserve(q.group_key_layout.size());
    for (const auto& [dim_idx, col] : q.group_key_layout) {
      PlanLabelPart part;
      part.dim_idx = dim_idx;
      part.col = col;
      if (dim_idx >= 0) {
        dim_group_cols[static_cast<size_t>(dim_idx)].push_back(col);
      } else {
        const storage::Column& c = q.fact->column(col);
        uint64_t cardinality = 1;
        if (c.type() == storage::ValueType::kString) {
          part.is_string = true;
          cardinality = static_cast<uint64_t>(
              std::max<int32_t>(c.dictionary()->size(), 1));
        } else if (c.type() == storage::ValueType::kInt64) {
          const auto& data = c.int64_data();
          if (!data.empty()) {
            auto [lo, hi] = std::minmax_element(data.begin(), data.end());
            part.base = *lo;
            uint64_t range =
                static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo);
            if (range >= (uint64_t{1} << 62)) {
              numbered = true;
            } else {
              cardinality = range + 1;
            }
          }
        } else {
          numbered = true;  // double: no bounded ordinal space
        }
        part.field = plan.layout.AddField(cardinality);
      }
      plan.parts.push_back(part);
    }
  }

  // ---- per-dimension scaffolds.
  plan.dims.resize(q.dims.size());
  plan.fact_dim_row.resize(q.dims.size());
  plan.ordinal_columns.resize(q.dims.size());
  for (size_t i = 0; i < q.dims.size(); ++i) {
    const query::DimBinding& d = q.dims[i];
    PlanDim& pd = plan.dims[i];
    const auto& keys = d.dim->column(d.dim_pk_col).int64_data();
    pd.num_rows = static_cast<int32_t>(keys.size());

    // Domain-ordinal tables for the query's own predicate columns, one per
    // distinct (column, domain), and the group ordinals over *all* rows:
    // both live in the store while some plan holds them.
    for (const auto& pred : d.predicates) {
      if (pred.column_index < 0 ||
          pred.column_index >= d.dim->schema().num_fields()) {
        return Status::InvalidArgument("predicate has bad column index");
      }
      if (pd.TableOf(pred) >= 0) continue;
      DPSTARJ_ASSIGN_OR_RETURN(auto table, columns.GetOrdinalTable(q, i, pred));
      pd.ordinal_tables.push_back(std::move(table));
    }
    if (!dim_group_cols[i].empty()) {
      pd.groups = columns.GetGroupOrdinals(q, i, dim_group_cols[i]);
      pd.field = plan.layout.AddField(
          std::max<uint64_t>(pd.groups->rep_rows.size(), 1));
    }

    // FK→row resolution for every fact row: the expensive probe, paid once
    // per edge by whichever plan first needs it while no other holds it.
    DPSTARJ_ASSIGN_OR_RETURN(plan.fact_dim_row[i],
                             columns.GetJoinColumn(q, i, plan.fact_rows_));
    for (const auto& table : pd.ordinal_tables) {
      plan.ordinal_columns[i].push_back(
          columns.GetOrdinalColumn(plan.fact_dim_row[i], table));
    }
  }

  if (plan.grouped) {
    for (auto& part : plan.parts) {
      if (part.dim_idx >= 0) {
        part.field = plan.dims[static_cast<size_t>(part.dim_idx)].field;
      }
    }
    if (numbered || !plan.layout.Fits()) {
      NumberKeyTuples(plan, q);
    } else {
      plan.code_space = plan.layout.CodeSpace();
    }
  }
  if (!q.measure_cols.empty()) {
    plan.weights = columns.GetWeightColumn(q, plan.fact_rows_);
  }
  return plan;
}

Result<ScanPlan> ScanPlan::WithCells(const ScanPlan& plan,
                                     const query::BoundQuery& q,
                                     uint64_t max_cells) {
  if (!plan.Matches(q)) {
    return Status::InvalidArgument("cells need the plan compiled for the query");
  }
  if (plan.numbered_codes) {
    return Status::NotSupported(
        "plans with numbered group codes keep the row layout");
  }
  const size_t num_dims = plan.dims.size();
  auto cells = std::make_shared<CellLayout>();
  cells->class_of_row.resize(num_dims);
  cells->classes.resize(num_dims);
  cells->dim_strides.resize(num_dims);
  cells->cell_class.resize(num_dims);
  cells->part_strides.assign(plan.parts.size(), 0);
  // The dense index size, stride by stride: dimensions first, then the
  // fact-side group fields at their packed widths (an extension's tail
  // ordinals may use the whole field).
  uint64_t size = 1;
  bool overflow = false;
  for (size_t i = 0; i < num_dims; ++i) {
    DPSTARJ_RETURN_NOT_OK(NumberClasses(plan.dims[i], cells->class_of_row[i],
                                        cells->classes[i]));
    cells->dim_strides[i] = size;
    overflow = overflow ||
               __builtin_mul_overflow(
                   size, static_cast<uint64_t>(cells->classes[i].num_rows),
                   &size);
  }
  for (size_t p = 0; p < plan.parts.size(); ++p) {
    if (plan.parts[p].dim_idx >= 0) continue;
    cells->part_strides[p] = size;
    const uint64_t width = plan.layout.FieldMask(plan.parts[p].field) + 1;
    overflow = overflow || width == 0 ||
               __builtin_mul_overflow(size, width, &size);
  }
  if (overflow || size > max_cells) {
    return Status::NotSupported(
        Format("the dense cell index exceeds %llu cells",
               static_cast<unsigned long long>(max_cells)));
  }
  cells->cell_of_index.assign(static_cast<size_t>(size), -1);
  AddRowsToCells(plan, q, 0, *cells);
  if (plan.grouped) MergeCellLabels(plan, q, 0, *cells);
  ScanPlan out = plan;
  out.cells = std::move(cells);
  out.ordinal_columns.clear();
  return out;
}

bool ScanPlan::CellsServe(const query::BoundQuery& q,
                          const PredicateOverrides& overrides) const {
  if (cells == nullptr || q.dims.size() != dims.size()) return false;
  if (!overrides.empty() && overrides.size() != q.dims.size()) return false;
  for (size_t i = 0; i < dims.size(); ++i) {
    for (const auto& pred : EffectivePreds(q, overrides, i)) {
      if (dims[i].TableOf(pred) < 0) return false;
    }
  }
  return true;
}

bool ScanPlan::IsAppendExtension(const ScanPlan& old,
                                 const query::BoundQuery& q) {
  if (q.fact != old.fact_ || q.fact->num_rows() < old.fact_rows_) return false;
  if (q.dims.size() != old.dim_tables_.size()) return false;
  for (size_t i = 0; i < q.dims.size(); ++i) {
    if (q.dims[i].dim != old.dim_tables_[i] ||
        q.dims[i].dim->num_rows() != old.dim_rows_[i]) {
      return false;
    }
  }
  return q.measure_cols == old.measure_cols_ &&
         q.group_key_layout == old.group_key_layout_;
}

Result<ScanPlan> ScanPlan::ExtendFrom(const ScanPlan& old,
                                      const query::BoundQuery& q,
                                      PlanColumnStore& columns) {
  if (!IsAppendExtension(old, q)) {
    return Status::NotSupported(
        "plan extension requires the compiled tables with only fact growth");
  }
  if (old.numbered_codes) {
    return Status::NotSupported(
        "plans with numbered group codes are recompiled, not extended");
  }
  const int64_t old_rows = old.fact_rows_;
  const int64_t new_rows = q.fact->num_rows();

  // Validate the tail's fact-side group keys against the compiled layout
  // BEFORE extending anything: Pack() does not mask, so an ordinal outgrowing
  // its field would corrupt neighbouring fields of the codes GroupCodes packs
  // for the tail. A violation (a value below the compiled base, or a
  // value/dictionary code past the field's bit width) means a fresh compile
  // would lay the code out differently — the caller recompiles instead.
  for (const auto& part : old.parts) {
    if (part.dim_idx >= 0) continue;
    const storage::Column& c = q.fact->column(part.col);
    const uint64_t mask = old.layout.FieldMask(part.field);
    if (part.is_string) {
      const int32_t* code = c.code_data().data();
      for (int64_t r = old_rows; r < new_rows; ++r) {
        if (static_cast<uint64_t>(code[static_cast<size_t>(r)]) > mask) {
          return Status::NotSupported(
              "fact group-by dictionary outgrew the compiled field");
        }
      }
    } else {
      const int64_t* i64 = c.int64_data().data();
      for (int64_t r = old_rows; r < new_rows; ++r) {
        const int64_t v = i64[static_cast<size_t>(r)];
        // v - base may exceed int64 (e.g. base -4e18, v 6e18): subtract in
        // uint64, as Compile does for the range.
        if (v < part.base ||
            static_cast<uint64_t>(v) - static_cast<uint64_t>(part.base) >
                mask) {
          return Status::NotSupported(
              "fact group-by value outgrew the compiled field");
        }
      }
    }
  }

  // Copy only what the extension keeps: the identity fields and the
  // per-dimension scaffolds, whose tables the dimensions alone determine (so
  // the two plans share them); the arrays and cells are extended below.
  ScanPlan plan;
  plan.fact_ = old.fact_;
  plan.fact_rows_ = new_rows;
  plan.dim_tables_ = old.dim_tables_;
  plan.dim_rows_ = old.dim_rows_;
  plan.measure_cols_ = old.measure_cols_;
  plan.group_key_layout_ = old.group_key_layout_;
  plan.grouped = old.grouped;
  plan.layout = old.layout;
  plan.parts = old.parts;
  plan.code_space = old.code_space;
  plan.dims = old.dims;

  // FK resolution and weights for the tail only, through the store: the
  // first plan to extend a column resolves the tail over the old column, and
  // every other plan on the same edge reuses the result. The dimensions are
  // unchanged, so the rebuilt per-dimension index answers exactly as it did
  // at compile time (dimension indexes are small; the saved work is the fact
  // scan).
  plan.fact_dim_row.resize(q.dims.size());
  for (size_t i = 0; i < q.dims.size(); ++i) {
    DPSTARJ_ASSIGN_OR_RETURN(
        plan.fact_dim_row[i],
        columns.GetJoinColumn(q, i, new_rows, old.fact_dim_row[i].get()));
  }
  if (old.weights != nullptr) {
    plan.weights = columns.GetWeightColumn(q, new_rows, old.weights.get());
  }
  // A plan without cells compares its ordinal columns, which extend over
  // the extended join columns the same way.
  plan.ordinal_columns.resize(old.ordinal_columns.size());
  for (size_t i = 0; i < old.ordinal_columns.size(); ++i) {
    for (size_t t = 0; t < old.ordinal_columns[i].size(); ++t) {
      plan.ordinal_columns[i].push_back(columns.GetOrdinalColumn(
          plan.fact_dim_row[i], plan.dims[i].ordinal_tables[t],
          old.ordinal_columns[i][t].get()));
    }
  }

  // The tail's rows join existing or new cells. The classes depend on the
  // unchanged dimensions alone, and every tail field ordinal fits its packed
  // field (validated above), so the dense index covers every tail row.
  if (old.cells != nullptr) {
    auto cells = std::make_shared<CellLayout>(*old.cells);
    AddRowsToCells(plan, q, old_rows, *cells);
    if (plan.grouped) {
      MergeCellLabels(plan, q, static_cast<size_t>(old.cells->num_cells()),
                      *cells);
    }
    plan.cells = std::move(cells);
  }
  return plan;
}

size_t ScanPlan::ApproxBytes() const {
  size_t bytes = sizeof(ScanPlan);
  for (const auto& c : fact_dim_row) {
    bytes += c->rows.size() * sizeof(int32_t);
  }
  for (const auto& dim_columns : ordinal_columns) {
    for (const auto& c : dim_columns) {
      if (c != nullptr) bytes += static_cast<size_t>(c->fact_rows) * c->width;
    }
  }
  bytes += codes.size() * sizeof(uint64_t);
  if (weights != nullptr) bytes += weights->values.size() * sizeof(double);
  bytes += code_rows.capacity() * sizeof(int64_t);
  auto table_bytes = [](const PlanDim& d) {
    size_t n = 0;
    if (d.groups != nullptr) {
      n += d.groups->ordinal.capacity() * sizeof(int32_t) +
           d.groups->rep_rows.capacity() * sizeof(int64_t);
    }
    for (const auto& t : d.ordinal_tables) {
      n += t->ordinals.capacity() * sizeof(int64_t);
    }
    return n;
  };
  for (const auto& d : dims) bytes += table_bytes(d);
  if (cells != nullptr) {
    for (size_t i = 0; i < cells->classes.size(); ++i) {
      bytes += table_bytes(cells->classes[i]) +
               (cells->class_of_row[i].capacity() +
                cells->cell_class[i].capacity()) *
                   sizeof(int32_t);
    }
    bytes += (cells->cell_of_index.capacity() + cells->slots.capacity()) *
                 sizeof(int32_t) +
             (cells->counts.capacity() + cells->codes.capacity()) *
                 sizeof(uint64_t) +
             cells->weights.capacity() * sizeof(double) +
             cells->code_slots.capacity() *
                 sizeof(std::pair<uint64_t, int32_t>);
    for (const auto& s : cells->labels) bytes += sizeof(s) + s.capacity();
  }
  return bytes;
}

void ScanPlan::GroupCodes(const query::BoundQuery& q, const int64_t* rows,
                          size_t n, uint64_t* out) const {
  if (numbered_codes) {
    for (size_t k = 0; k < n; ++k) out[k] = codes[static_cast<size_t>(rows[k])];
    return;
  }
  // One field at a time: a dimension's field covers all its key columns.
  std::fill_n(out, n, 0);
  for (size_t i = 0; i < dims.size(); ++i) {
    const PlanDim& pd = dims[i];
    if (pd.field < 0) continue;
    const int32_t* dim_row = fact_dim_row[i]->rows.data();
    const int32_t* ordinal = pd.groups->ordinal.data();
    for (size_t k = 0; k < n; ++k) {
      out[k] |= layout.Pack(pd.field,
                            static_cast<uint64_t>(ordinal[dim_row[rows[k]]]));
    }
  }
  // Fact-side ordinals fit their fields: Compile sized the fields over every
  // row, and ExtendFrom checks the tail's before extending.
  for (const auto& part : parts) {
    if (part.dim_idx >= 0) continue;
    const storage::Column& c = q.fact->column(part.col);
    if (part.is_string) {
      const int32_t* code = c.code_data().data();
      for (size_t k = 0; k < n; ++k) {
        out[k] |= layout.Pack(part.field, static_cast<uint64_t>(code[rows[k]]));
      }
    } else {
      const int64_t* i64 = c.int64_data().data();
      for (size_t k = 0; k < n; ++k) {
        out[k] |= layout.Pack(part.field,
                              static_cast<uint64_t>(i64[rows[k]] - part.base));
      }
    }
  }
}

void ScanPlan::RenderLabel(const query::BoundQuery& q, uint64_t code,
                           std::string* label) const {
  label->clear();
  const size_t rep =
      numbered_codes ? static_cast<size_t>(code_rows[code]) : size_t{0};
  for (const auto& part : parts) {
    if (!label->empty()) *label += kGroupKeyDelimiter;
    if (part.dim_idx >= 0) {
      const size_t i = static_cast<size_t>(part.dim_idx);
      const uint64_t ordinal =
          numbered_codes ? GroupOrdinalOf(dims[i], fact_dim_row[i]->rows[rep])
                         : layout.Extract(code, part.field);
      *label += q.dims[i].dim->column(part.col)
                    .GetValue(dims[i].groups->rep_rows[ordinal])
                    .ToString();
    } else if (numbered_codes) {
      *label += q.fact->column(part.col)
                    .GetValue(static_cast<int64_t>(rep))
                    .ToString();
    } else if (part.is_string) {
      *label += q.fact->column(part.col).dictionary()->At(
          static_cast<int32_t>(layout.Extract(code, part.field)));
    } else {
      *label += std::to_string(
          part.base + static_cast<int64_t>(layout.Extract(code, part.field)));
    }
  }
}

bool ScanPlan::Matches(const query::BoundQuery& q) const {
  if (q.fact != fact_ || q.fact->num_rows() != fact_rows_) return false;
  if (q.dims.size() != dim_tables_.size()) return false;
  for (size_t i = 0; i < q.dims.size(); ++i) {
    if (q.dims[i].dim != dim_tables_[i] ||
        q.dims[i].dim->num_rows() != dim_rows_[i]) {
      return false;
    }
  }
  // The canonical key sorts dimensions and measure terms, so two equivalent
  // spellings can reach the same cache slot with different internal order;
  // execution order affects inexact float association, so require the exact
  // shape the plan was compiled for (a mismatch just recompiles).
  return q.measure_cols == measure_cols_ &&
         q.group_key_layout == group_key_layout_;
}

const std::vector<query::BoundPredicate>& EffectivePreds(
    const query::BoundQuery& q, const PredicateOverrides& overrides, size_t i) {
  if (!overrides.empty() && overrides[i].has_value()) return *overrides[i];
  return q.dims[i].predicates;
}

Result<std::vector<uint64_t>> BuildPassBitmap(
    const PlanDim& pd, const storage::Table& dim,
    const std::vector<query::BoundPredicate>& preds) {
  const int64_t rows = pd.num_rows;
  // One compare → pack pass per predicate over the memoized ordinal table,
  // ANDed directly into the bitmap words by the dispatched kernel (AVX2 when
  // the host has it). Bit `rows` (the absent-FK sentinel) and every bit past
  // it stay 0: the kernel never touches bits at or past `rows` on AND and
  // stores them as 0 on the first store.
  std::vector<uint64_t> words(static_cast<size_t>((rows + 1 + 63) / 64), 0);
  const auto& kern = kernels::ActiveKernels();
  if (preds.empty()) {
    // No predicates: every real row passes.
    const int64_t full_words = rows >> 6;
    for (int64_t wi = 0; wi < full_words; ++wi) {
      words[static_cast<size_t>(wi)] = ~uint64_t{0};
    }
    if ((rows & 63) != 0) {
      words[static_cast<size_t>(full_words)] =
          ~uint64_t{0} >> (64 - (rows & 63));
    }
    return words;
  }
  std::vector<int64_t> fresh;  // ordinals computed for non-memoized predicates
  bool first = true;
  for (const auto& pred : preds) {
    if (pred.column_index < 0 ||
        pred.column_index >= dim.schema().num_fields()) {
      return Status::InvalidArgument("predicate has bad column index");
    }
    const int t = pd.TableOf(pred);
    const std::vector<int64_t>* ordinals =
        t < 0 ? nullptr : &pd.ordinal_tables[static_cast<size_t>(t)]->ordinals;
    if (ordinals == nullptr) {
      DPSTARJ_ASSIGN_OR_RETURN(
          fresh,
          ComputeDomainIndexes(dim.column(pred.column_index), pred.domain));
      ordinals = &fresh;
    }
    // lo clamped to 0 so out-of-domain cells (ordinal -1) always fail,
    // i.e. `ordinal >= 0 && Matches(ordinal)`.
    const int64_t lo = std::max<int64_t>(pred.lo_index, 0);
    const int64_t hi = pred.hi_index;
    kern.range_bitmap_and(ordinals->data(), rows, lo, hi, first, words.data());
    first = false;
  }
  return words;
}

}  // namespace dpstarj::exec
