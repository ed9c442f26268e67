// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// ScanPlan — the reusable, predicate-independent scaffold of a bound
// star-join query. DP-starJ's Predicate Mechanism answers every noisy run by
// re-executing the *same* bound query with perturbed predicate bounds only,
// so everything that does not depend on predicate values is compiled once:
//
//   * FK→dimension-row resolution: one int32 per (fact row, dimension),
//     with referential misses mapped to a per-dimension sentinel row whose
//     predicate bit is permanently 0 — no hash/offset-table probe is left
//     in the per-execution scan. These *join columns* depend on the tables
//     alone, so plans share them through a PlanColumnStore (below);
//   * the GROUP BY code layout and the per-dimension *group ordinals*
//     (assigned over *all* dimension rows, so they never shift when
//     predicates move; they depend on the dimension's GROUP BY columns
//     alone, so plans share them too). A fact row's uint64 group code packs
//     its key ordinals into bit fields; it is a function of the row's
//     join-column entries and fact-side key values, so the plan stores none
//     and GroupCodes packs it where it is read. Only when the ordinals
//     cannot pack into 64 bits does the plan store a code per row: the
//     first-occurrence number of the row's key tuple;
//   * the per-row aggregate weight (measure terms are fact columns), a
//     *weight column* shared the same way;
//   * memoized *ordinal tables* (dimension row → domain ordinal) for the
//     query's predicate columns, the inputs of per-execution predicate
//     evaluation. The Predicate Mechanism perturbs constants over fixed
//     domains only, so a table depends on the column and its domain alone
//     and is shared the same way;
//   * while the plan has no cells, one *ordinal column* per ordinal table:
//     the domain ordinal of every fact row's dimension row (the join column
//     composed with the table), one or two bytes per row. It is predicate-
//     independent too, so the row sweep tests a dimension by comparing its
//     columns against each execution's moved [lo, hi] instead of gathering
//     its bitmap through the join column, and plans share the columns;
//   * once the plan is reused (PlanCache builds it at the plan's first
//     validated hit), a second *layout* of the same data made of cells —
//     CellLayout, below — the vector W of the paper's Eq. (11).
//
// Cells. The Predicate Mechanism perturbs predicate constants only, so two
// fact rows that agree on every predicate column's domain ordinal and on the
// GROUP BY key are treated alike by every noisy execution of the plan. Per
// dimension, a *class* numbers the distinct (predicate ordinals, group
// ordinal) tuples of its rows; a *cell* is one combination of classes across
// the dimensions plus the packed fact-side group fields, holding a row count
// and a weight sum. An execution whose predicates keep the memoized
// (column, domain) pairs then evaluates one bit per class and sweeps the
// cells instead of the fact rows.
//
// What remains per execution is the cheap part: one *predicate bitmap* per
// dimension — bit r = "dimension row (or class) r passes every effective
// predicate" — built from the ordinal tables with branchless,
// autovectorizable compares and packed into uint64 words, then a sweep that
// is just range compares over the ordinal columns or gathers into those
// bitmaps, plus the weights (and, grouped, the passing rows' packed codes,
// or the cells' label slots).
//
// Ingest. The fact-row-sized arrays (join rows, weights, ordinal columns)
// are AppendArrays:
// a plan extended over an appended fact tail writes the tail into its
// parent's buffer and shares the prefix, and its cells render only the
// labels the tail brings, so ExtendFrom costs O(tail + cells), not
// O(fact rows). A published prefix never changes, so older plans keep
// sweeping theirs without a lock.
//
// Compiling and running a ScanPlan is the executor's only way to answer a
// query: one-shot callers pay the compile, repeated callers share it through
// exec/plan_cache.h. Plans are immutable after Compile and safe to share
// across threads.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "exec/group_code.h"
#include "query/binder.h"

namespace dpstarj::exec {

/// \brief Dimension row → ordinal in `domain` of column `column_index`, for
/// every dimension row: the input of predicate evaluation. It depends on the
/// column and the domain alone, so every plan over the dimension whose
/// predicates use the pair shares one (PlanColumnStore::GetOrdinalTable).
struct OrdinalTable {
  /// Held like JoinColumn's tables. Null in a CellLayout's class tables,
  /// which map class → ordinal and belong to their plan.
  std::shared_ptr<storage::Table> dim;
  int column_index = -1;
  storage::AttributeDomain domain;
  std::vector<int64_t> ordinals;  ///< -1 = value outside the domain
};

/// \brief Dimension row → dense group ordinal over one dimension's GROUP BY
/// columns, for every dimension row. Ordinals are assigned in
/// first-occurrence row order over all rows, so they are
/// predicate-independent, and labels and cells may key on them. Shared like
/// OrdinalTable (PlanColumnStore::GetGroupOrdinals).
struct GroupOrdinals {
  std::shared_ptr<storage::Table> dim;  ///< held like JoinColumn's tables
  std::vector<int32_t> ordinal;   ///< row → ordinal
  std::vector<int64_t> rep_rows;  ///< ordinal → first row (labels render it)
};

/// \brief One dimension's predicate-independent scaffold.
struct PlanDim {
  /// Dimension row count. Row id `num_rows` is the absent-FK sentinel: it has
  /// no ordinal and its bit in every predicate bitmap is 0.
  int32_t num_rows = 0;

  /// The dimension's group ordinals; null when it contributes no group keys.
  std::shared_ptr<const GroupOrdinals> groups;
  /// GroupCodeLayout field of this dimension, -1 when it has no group cols.
  int field = -1;

  /// One table per distinct (column, domain) among the query's own
  /// predicates. Overrides that keep column and domain (the Predicate
  /// Mechanism always does) evaluate against these; others compute fresh.
  std::vector<std::shared_ptr<const OrdinalTable>> ordinal_tables;

  /// The position in ordinal_tables of the table of `pred`'s column and
  /// domain, or -1 when the predicate's pair is not memoized.
  int TableOf(const query::BoundPredicate& pred) const {
    for (size_t t = 0; t < ordinal_tables.size(); ++t) {
      if (ordinal_tables[t]->column_index == pred.column_index &&
          ordinal_tables[t]->domain == pred.domain) {
        return static_cast<int>(t);
      }
    }
    return -1;
  }
};

/// \brief Per-dimension predicate replacements, aligned with BoundQuery::dims.
///
/// Entry semantics: nullopt = keep the dimension's own predicates; an engaged
/// vector replaces them wholesale (possibly with a different count, possibly
/// empty = no filtering on that dimension). An empty PredicateOverrides keeps
/// every dimension's own predicates.
using DimPredicateOverride = std::optional<std::vector<query::BoundPredicate>>;
using PredicateOverrides = std::vector<DimPredicateOverride>;

/// The effective predicate list of dimension i of `q` under `overrides`.
const std::vector<query::BoundPredicate>& EffectivePreds(
    const query::BoundQuery& q, const PredicateOverrides& overrides, size_t i);

/// \brief A plan's cell layout: its fact rows merged into cells (see the file
/// comment). Fact rows whose foreign key misses a dimension pass no predicate,
/// so they belong to no cell.
struct CellLayout {
  /// Per dimension: dimension row → class, numbered in first-occurrence row
  /// order over the tuple (domain ordinal of each memoized ordinal table,
  /// group ordinal).
  std::vector<std::vector<int32_t>> class_of_row;
  /// Per dimension: the classes as the rows of a PlanDim — num_rows is the
  /// class count, and ordinal_tables map class → ordinal in the order of the
  /// plan's own tables — so BuildPassBitmap builds one bit per class.
  std::vector<PlanDim> classes;
  /// Dense cell index: Σ class · dim_strides[i] over the dimensions plus
  /// Σ field ordinal · part_strides[p] over the fact-side group parts
  /// (0 for dimension parts) → cell, -1 while no row has that combination.
  std::vector<uint64_t> dim_strides;
  std::vector<uint64_t> part_strides;
  std::vector<int32_t> cell_of_index;

  /// Per dimension: cell → class (the sweep's gather arrays).
  std::vector<std::vector<int32_t>> cell_class;
  /// Cells are numbered in first-occurrence fact-row order, and each sums
  /// its rows in fact-row order, so extending a plan over an appended tail
  /// leaves exactly the cells a fresh build over the grown table makes.
  std::vector<int64_t> counts;   ///< cell → fact rows merged
  std::vector<double> weights;   ///< cell → Σ row weight (empty = COUNT)
  std::vector<uint64_t> codes;   ///< grouped: cell → packed group code
  /// Grouped: the sorted distinct labels of the cells' group codes, and
  /// cell → label slot. Distinct codes may share a label (two doubles
  /// rendering identically); they share the slot — results group by
  /// rendered label, as exec/naive_executor.h does.
  std::vector<std::string> labels;
  std::vector<int32_t> slots;
  /// Grouped: (code, slot) of every distinct code in `codes`, ascending by
  /// code, so an extension renders only the codes its tail brings.
  std::vector<std::pair<uint64_t, int32_t>> code_slots;

  int64_t num_cells() const { return static_cast<int64_t>(counts.size()); }
};

/// \brief One rendered group-key part, in declared GROUP BY order.
struct PlanLabelPart {
  int dim_idx = -1;  ///< -1 = fact column
  int col = -1;
  int field = -1;          ///< layout field
  bool is_string = false;  ///< fact parts: dictionary-coded column
  int64_t base = 0;        ///< fact int64 parts: ordinal = value - base
};

/// \brief An append-only array of per-fact-row values: the storage of
/// JoinColumn::rows and WeightColumn::values. Arrays share
/// buffers: each covers rows [0, size()) of its buffer, and that prefix never
/// changes once the array is published, so older plans read theirs without a
/// lock while newer ones grow past it. Writers touch only the rows they add.
///
/// Extend decides who may append with one compare-exchange on the buffer's
/// claimed length. The first extension of the buffer's longest array writes
/// the new rows into the spare capacity. Any other — a racing extension of
/// the same prefix, or one from an array that is no longer the longest —
/// copies the prefix into a buffer twice the new size. A range claimed by an
/// array that is never published stays unused.
template <typename T>
class AppendArray {
 public:
  AppendArray() = default;

  /// `rows` zeroed rows in a buffer of exactly that size: compiled plans are
  /// mostly never extended, so they keep no slack.
  explicit AppendArray(size_t rows)
      : buffer_(std::make_shared<Buffer>(rows, rows)), size_(rows) {
    std::fill_n(buffer_->data.get(), rows, T{});
  }

  /// \brief `prefix` grown to `rows` (≥ prefix.size()) rows, the new ones
  /// zeroed for the caller to fill: appended in place when it claims them,
  /// else copied (see the class comment; data() then differs from
  /// prefix.data()).
  static AppendArray Extend(const AppendArray& prefix, size_t rows) {
    AppendArray out;
    out.size_ = rows;
    size_t expected = prefix.size_;
    if (prefix.buffer_ != nullptr && rows <= prefix.buffer_->capacity &&
        prefix.buffer_->claimed.compare_exchange_strong(expected, rows)) {
      out.buffer_ = prefix.buffer_;
    } else {
      out.buffer_ = std::make_shared<Buffer>(2 * rows, rows);
      std::copy(prefix.begin(), prefix.end(), out.buffer_->data.get());
    }
    std::fill(out.buffer_->data.get() + prefix.size_,
              out.buffer_->data.get() + rows, T{});
    return out;
  }

  const T* data() const { return buffer_ ? buffer_->data.get() : nullptr; }
  /// For the array's builder, which writes only the rows it added and only
  /// before publishing the array.
  T* mutable_data() { return buffer_ ? buffer_->data.get() : nullptr; }
  size_t size() const { return size_; }
  /// Rows the buffer holds before an extension has to copy.
  size_t capacity() const { return buffer_ ? buffer_->capacity : 0; }
  const T& operator[](size_t i) const { return data()[i]; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  friend bool operator==(const AppendArray& a, const AppendArray& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  struct Buffer {
    Buffer(size_t capacity, size_t claimed)
        : data(new T[capacity]), capacity(capacity), claimed(claimed) {}
    /// Default-initialized: capacity no array has written is never touched,
    /// so it does not become resident.
    std::unique_ptr<T[]> data;
    size_t capacity;
    /// Rows of the longest array over the buffer, published or not.
    std::atomic<size_t> claimed;
  };

  std::shared_ptr<Buffer> buffer_;
  size_t size_ = 0;
};

/// \brief Fact row → dimension row over one FK edge (fact table, FK column,
/// dimension table, PK column), for fact rows [0, fact_rows). It depends on
/// the tables alone, so every plan over the edge shares one.
struct JoinColumn {
  /// The tables, held so that their addresses, which key the store, cannot
  /// be reused by other tables while the column lives.
  std::shared_ptr<storage::Table> fact;
  std::shared_ptr<storage::Table> dim;
  int fact_fk_col = -1;
  int dim_pk_col = -1;
  int64_t fact_rows = 0;
  /// Dimension row count, and the sentinel row id of absent FKs.
  int32_t dim_rows = 0;
  /// True when at least one fact row's FK missed the dimension (so some entry
  /// of `rows` is the sentinel). When false AND an execution's rebuilt bitmap
  /// passes every real row — a fully-open predicate, common under PM
  /// perturbation of wide ranges — the dimension cannot reject any fact row
  /// and the sweep drops it entirely (see the executor's plan path).
  bool has_absent_fk = false;
  AppendArray<int32_t> rows;  ///< fact row → dimension row or dim_rows
};

/// \brief Per-fact-row aggregate weight Σ coeff·column over one fact table's
/// measure terms (in order), for fact rows [0, fact_rows).
struct WeightColumn {
  std::shared_ptr<storage::Table> fact;  ///< held like JoinColumn's tables
  std::vector<std::pair<int, double>> measure_cols;  ///< (column, coeff)
  int64_t fact_rows = 0;
  AppendArray<double> values;
};

/// \brief Fact row → domain ordinal of the row's dimension row under one
/// OrdinalTable: `join` composed with `table`, for fact rows
/// [0, fact_rows). Entries are uint8_t for a domain of at most 255 values
/// and uint16_t for one of at most 65,535 (no column for a larger domain);
/// the width's top value means "no ordinal": the foreign key has no
/// dimension row, or the value is outside the domain. It depends on the
/// join column and the table alone, so plans share it
/// (PlanColumnStore::GetOrdinalColumn).
struct OrdinalColumn {
  /// Held so that their addresses, which key the store, stay unique while
  /// the column lives.
  std::shared_ptr<const JoinColumn> join;
  std::shared_ptr<const OrdinalTable> table;
  int64_t fact_rows = 0;
  int width = 0;                ///< bytes per entry: 1 or 2
  AppendArray<uint8_t> narrow;  ///< the entries when width == 1
  AppendArray<uint16_t> wide;   ///< the entries when width == 2

  /// The entry width for a domain of `size` values: 1, 2, or 0 when no
  /// column can hold its ordinals.
  static int WidthFor(int64_t size) {
    return size <= 0xFF ? 1 : size <= 0xFFFF ? 2 : 0;
  }
  const void* data() const {
    return width == 1 ? static_cast<const void*>(narrow.data())
                      : static_cast<const void*>(wide.data());
  }
};

/// \brief Hands plans the join, weight and ordinal columns, ordinal tables
/// and group ordinals they need, sharing each live one. The store holds only
/// weak references: an entry lives exactly as long as some plan references
/// it, and pins the tables (or columns) its key names, so the store needs no
/// capacity or eviction of its own. Keys:
///   * a join column: (fact table, FK column, dimension table, PK column,
///     fact rows, dimension rows);
///   * a weight column: (fact table, fact rows, measure terms);
///   * an ordinal table: (dimension table, dimension rows, column, domain);
///   * group ordinals: (dimension table, dimension rows, group columns in
///     order);
///   * an ordinal column: (join column, ordinal table), by identity. Its
///     entries are one byte for a domain of at most 255 values and two for
///     one of at most 65,535; a larger domain gets none. Only plans without
///     cells hold ordinal columns (WithCells drops them), and Stats does not
///     count them.
/// AttributeDomain::ToString renders every categorical domain as cat{N}, so
/// an ordinal table found under its key is used only when its domain equals
/// the requested one; otherwise the caller gets a table of its own that the
/// store does not index. A column is found again only at exactly the table
/// sizes it covers; a plan extended over an appended fact tail passes its
/// old column as the prefix, so the first extension of an edge resolves
/// only the tail (appended into the old column's buffer) and every later one
/// reuses that column. Ordinal columns extend the same way, over the
/// extended join column. Dimension tables do not change in an extension, so
/// their ordinal tables and group ordinals carry over as they are. Two
/// threads building the same entry race harmlessly: the first insert wins
/// and the other adopts it. Thread-safe.
class PlanColumnStore {
 public:
  /// Join and weight columns only: ordinal columns, ordinal tables and
  /// group ordinals are not counted.
  struct Stats {
    /// Columns built, from scratch or over a prefix (a build that loses the
    /// race to insert counts too: its work was done).
    uint64_t builds = 0;
    uint64_t reuses = 0;  ///< requests served by a live column
    /// Extensions of a join or weight array that copied the prefix instead
    /// of appending in place. Once per capacity doubling of an array when
    /// extensions keep up with the table.
    uint64_t copies = 0;
  };

  /// \brief The join column of `q.dims[i]` covering fact rows
  /// [0, fact_rows). When a build is needed and `prefix` is a column of the
  /// same edge and dimension size over no more fact rows, the build extends
  /// it and resolves only the tail; any other prefix is ignored. Fails on a
  /// duplicate dimension primary key.
  Result<std::shared_ptr<const JoinColumn>> GetJoinColumn(
      const query::BoundQuery& q, size_t i, int64_t fact_rows,
      const JoinColumn* prefix = nullptr);

  /// \brief The weight column of `q`'s measure terms (which must be
  /// non-empty) covering fact rows [0, fact_rows); `prefix` as above.
  std::shared_ptr<const WeightColumn> GetWeightColumn(
      const query::BoundQuery& q, int64_t fact_rows,
      const WeightColumn* prefix = nullptr);

  /// \brief The ordinal table of `pred`'s column and domain over the rows of
  /// `q.dims[i]`. Fails when the column's type does not fit the domain.
  Result<std::shared_ptr<const OrdinalTable>> GetOrdinalTable(
      const query::BoundQuery& q, size_t i, const query::BoundPredicate& pred);

  /// \brief The group ordinals of `q.dims[i]` over `columns` (non-empty).
  std::shared_ptr<const GroupOrdinals> GetGroupOrdinals(
      const query::BoundQuery& q, size_t i, const std::vector<int>& columns);

  /// \brief The ordinal column of `table` over `join` (both of one
  /// dimension at one row count), or null when the table's domain has more
  /// than 65,535 values. When a build is needed and `prefix` composes the
  /// same table over a shorter join column of the same edge, the build
  /// extends it and composes only the tail; any other prefix is ignored.
  std::shared_ptr<const OrdinalColumn> GetOrdinalColumn(
      const std::shared_ptr<const JoinColumn>& join,
      const std::shared_ptr<const OrdinalTable>& table,
      const OrdinalColumn* prefix = nullptr);

  /// \brief AppendArray::Extend, counting a copy in Stats::copies.
  template <typename T>
  AppendArray<T> Extend(const AppendArray<T>& prefix, int64_t rows) {
    AppendArray<T> out =
        AppendArray<T>::Extend(prefix, static_cast<size_t>(rows));
    if (out.data() != prefix.data()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.copies;
    }
    return out;
  }

  Stats GetStats() const;

 private:
  template <typename Entry>
  using Index = std::unordered_map<std::string, std::weak_ptr<const Entry>>;

  /// The live entry under `key` if `fits` accepts it, else `build()`'s. The
  /// build is inserted unless a racing build of the same key landed first:
  /// then that one is adopted if it fits, and the build is returned
  /// unindexed if not. `counted` entries count in Stats.
  template <typename Entry, typename Build, typename Fits>
  Result<std::shared_ptr<const Entry>> Share(Index<Entry>& index,
                                             const std::string& key,
                                             bool counted, const Build& build,
                                             const Fits& fits);

  mutable std::mutex mu_;
  Index<JoinColumn> joins_;
  Index<WeightColumn> weights_;
  Index<OrdinalTable> ordinals_;
  Index<GroupOrdinals> groups_;
  Index<OrdinalColumn> ordinal_columns_;
  Stats stats_;
};

/// \brief Compiled scaffold of one bound star-join query.
class ScanPlan {
 public:
  /// \brief Compiles `q`: the per-dimension ordinal tables and group
  /// ordinals and the join, weight and ordinal columns (each taken from
  /// `columns` when live there, else built and shared through it), and the
  /// group-code layout. Amortized by every later run. A one-shot caller
  /// passes a store of its own. The plan has no cells yet.
  static Result<ScanPlan> Compile(const query::BoundQuery& q,
                                  PlanColumnStore& columns);

  /// \brief `plan`, which must match `q`, with its cell layout added and its
  /// ordinal columns dropped: the cells serve every execution whose
  /// predicates keep the memoized (column, domain) pairs, the only ones the
  /// columns could compare. Returns
  /// NotSupported when the plan numbers its group-key tuples, or when its
  /// dense cell index — the product of the dimensions' class counts and the
  /// fact-side group fields' widths — exceeds `max_cells`. PlanCache passes
  /// CellLimit(fact rows).
  static Result<ScanPlan> WithCells(const ScanPlan& plan,
                                    const query::BoundQuery& q,
                                    uint64_t max_cells);

  /// The size rule of PlanCache: a plan gets cells when its dense cell index
  /// is at most half its fact rows.
  static uint64_t CellLimit(int64_t fact_rows) {
    return static_cast<uint64_t>(fact_rows) / 2;
  }

  /// \brief True when executions of `q` under `overrides` can sweep this
  /// plan's cells: the plan has them, and every effective predicate's
  /// (column, domain) is one of the memoized tables its classes were built
  /// from. The Predicate Mechanism always meets this; other overrides run
  /// the fact rows.
  bool CellsServe(const query::BoundQuery& q,
                  const PredicateOverrides& overrides) const;

  /// \brief True when the plan was compiled against exactly the tables (by
  /// identity *and* row count — tables are append-only) and the aggregate
  /// shape of `q`. A false return means the plan is stale and must be
  /// recompiled; executing a stale plan is refused.
  bool Matches(const query::BoundQuery& q) const;

  /// \brief True when `q` binds the same tables and aggregate shape as `old`
  /// and only the fact table has grown — the precondition for ExtendFrom.
  /// The plan cache uses this to classify a stale hit as append vs identity.
  static bool IsAppendExtension(const ScanPlan& old, const query::BoundQuery& q);

  /// \brief Compiles a plan for `q` by extending `old` over the fact table's
  /// appended tail only: FK resolution and weights run over rows
  /// [old.fact_rows(), q.fact->num_rows()), and when `old` has
  /// cells the tail rows are added to existing or new cells, and only the
  /// group codes first seen in the tail are rendered and merged into the
  /// sorted label table. The join, weight and (when `old` has no cells)
  /// ordinal columns come from `columns` with `old`'s as their prefix, so
  /// when another plan has already extended an edge to this size, its
  /// column is reused. Each array is
  /// appended in place (AppendArray::Extend), so the cost is O(tail + cells)
  /// plus, once per capacity doubling, a copy of the array. Every tail row
  /// index exceeds every compiled row index, so the result is bit-identical
  /// to a fresh Compile on the grown table — followed by WithCells when
  /// `old` has cells (tests/ingest_test.cc asserts this over randomized
  /// append schedules). Returns NotSupported, before claiming any array
  /// range, when the tail cannot be added — the plan numbers its key tuples,
  /// or a fact-side group key outgrew its packed bit field — in which case
  /// the caller falls back to a full Compile. Cells never make it decline.
  static Result<ScanPlan> ExtendFrom(const ScanPlan& old,
                                     const query::BoundQuery& q,
                                     PlanColumnStore& columns);

  /// \brief Writes the group codes of fact rows rows[0, n) to codes[0, n):
  /// the row's ordinal in each group-bearing dimension and its fact-side key
  /// ordinals, read from `q` (bound like the plan, over a fact table holding
  /// at least its rows), packed into `layout`'s fields — or, for numbered
  /// plans, the stored numbers. Every row must be below fact_rows() and
  /// resolve in every dimension: the sweep passes only rows whose foreign
  /// keys all hit, the cell build only rows that join a cell.
  void GroupCodes(const query::BoundQuery& q, const int64_t* rows, size_t n,
                  uint64_t* codes) const;

  /// \brief Renders the GROUP BY label of group `code` into `label`
  /// (overwritten): declared key order, kGroupKeyDelimiter-joined.
  void RenderLabel(const query::BoundQuery& q, uint64_t code,
                   std::string* label) const;

  /// Approximate heap footprint of the scaffold arrays (for the cache's
  /// byte budget; the cell layout and per-dimension tables included).
  /// Fact-row arrays count the rows the plan covers (an ordinal column at
  /// rows × width), not their buffers' capacity, which stays unresident
  /// until an extension writes it. Shared columns, ordinal tables and group
  /// ordinals count in full, so across plans this is an upper bound.
  size_t ApproxBytes() const;

  // --- scaffold data, read by the executor's plan path -------------------
  bool grouped = false;
  GroupCodeLayout layout;
  std::vector<PlanLabelPart> parts;
  std::optional<uint64_t> code_space;
  std::vector<PlanDim> dims;

  /// The group key set cannot pack into 64 bits (a double fact key, an int64
  /// fact key spanning ≥ 2^62, or fields wider than 64 bits in total), so
  /// `codes` number the distinct key tuples among the fact rows in first-
  /// occurrence order instead (code_space = tuple count), and each code's
  /// label renders from the fact row in `code_rows`. `layout` is unused.
  bool numbered_codes = false;
  /// numbered_codes only: code → first fact row carrying its key tuple.
  std::vector<int64_t> code_rows;
  /// numbered_codes only: fact row → its key tuple's number. Packed plans
  /// store no per-row code (GroupCodes packs it), so this stays empty.
  std::vector<uint64_t> codes;

  /// Per dimension: the shared join column (fact row → dimension row,
  /// absent FKs → dims[i].num_rows).
  std::vector<std::shared_ptr<const JoinColumn>> fact_dim_row;
  /// Per dimension, aligned with dims[i].ordinal_tables: the shared ordinal
  /// column of each table over fact_dim_row[i], null where the domain is too
  /// large for one. Empty in a plan with cells (see WithCells).
  std::vector<std::vector<std::shared_ptr<const OrdinalColumn>>>
      ordinal_columns;
  /// The shared per-row aggregate weights (null = COUNT, weight 1.0).
  std::shared_ptr<const WeightColumn> weights;

  /// The cell layout (null until WithCells; immutable, so plans extended
  /// from or copied off this one may share it).
  std::shared_ptr<const CellLayout> cells;

  int64_t fact_rows() const { return fact_rows_; }

 private:
  // Identity for Matches(): the exact tables and aggregate shape compiled.
  std::shared_ptr<storage::Table> fact_;
  int64_t fact_rows_ = 0;
  std::vector<std::shared_ptr<storage::Table>> dim_tables_;
  std::vector<int64_t> dim_rows_;
  std::vector<std::pair<int, double>> measure_cols_;
  std::vector<std::pair<int, int>> group_key_layout_;
};

/// \brief Builds one dimension's per-execution predicate bitmap: bit r = row
/// r passes every predicate in `preds`, packed into uint64 words covering
/// rows [0, num_rows] with the sentinel bit (num_rows) always 0. Evaluation
/// is branchless over the plan's memoized ordinal tables (computing a fresh
/// table when a predicate's column/domain is not memoized). Passed a
/// CellLayout's classes, it builds one bit per class; the caller must then
/// have checked ScanPlan::CellsServe, so that every table is memoized.
Result<std::vector<uint64_t>> BuildPassBitmap(
    const PlanDim& pd, const storage::Table& dim,
    const std::vector<query::BoundPredicate>& preds);

}  // namespace dpstarj::exec
