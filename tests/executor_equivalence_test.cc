// Randomized equivalence of StarJoinExecutor against the naive nested-loop
// oracle (exec/naive_executor.h), across generated star schemas × {COUNT,
// SUM, AVG} × {scalar, GROUP BY} × {dense, sparse key spaces} × {1, 4, 8}
// exec threads: one-shot Execute, repeated execution of one compiled
// ScanPlan, and that plan under random predicate overrides (the Predicate
// Mechanism's repeated-noisy-run shape), including fact rows whose foreign
// key misses its dimension. Every plan that can have cells is checked again
// with them (ScanPlan::WithCells, the build PlanCache runs at a first hit),
// including an override on a column the classes were not built from, which
// must sweep the fact rows instead.
//
// The generator also produces the three GROUP BY key sets whose ordinals
// cannot pack into a 64-bit code — a double fact key, an int64 fact key
// spanning ≥ 2^62, and fields wider than 64 bits in total — whose plans
// number the distinct key tuples instead (ScanPlan::numbered_codes), and
// packed plans keyed on the fact string g and the fact int64 h, whose sweep
// reads those keys from the fact table; the tests assert that each of them
// actually occurred.
//
// The row sweep compares a dimension's fact-aligned ordinal columns when
// every effective predicate has one, and gathers its bitmap otherwise
// (exec/scan_plan.h OrdinalColumn). So each dimension also has a column u
// over a domain of 255, 256 or 70,000 values (one-byte, two-byte and no
// ordinal column), dimension values fall outside their domains, overrides
// move bounds past the domain edges or empty them, one override set per
// plan mixes memoized and non-memoized predicates, and dangling foreign
// keys land on a dimension with predicates. The tests assert that compare
// dimensions, gather dimensions, both widths and an absent key on a compare
// dimension all occurred.
//
// Every generated measure is an integer-valued double, so aggregate sums are
// exact regardless of association order — results must match *bit-for-bit*
// across thread counts (a tiny morsel size forces real multi-morsel merging
// even on small fact tables).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "exec/naive_executor.h"
#include "exec/scan_plan.h"
#include "exec/star_join_executor.h"
#include "query/binder.h"
#include "storage/catalog.h"

namespace dpstarj {
namespace {

using exec::ExecutorOptions;
using exec::QueryResult;
using exec::StarJoinExecutor;
using storage::AttributeDomain;
using storage::Field;
using storage::Value;
using storage::ValueType;

constexpr const char* kCats[] = {"a", "b", "c", "d", "e"};

// Value spread of the fact group column h. kNarrow packs into a dense code
// space; kWide (~2^42) packs but overflows the dense accumulator; kHuge
// (clusters at both int64 extremes, so any two clusters span ≥ 2^62) and
// kWideLayout (clusters 2^60 apart — a 61-bit field, grouped together with
// every dimension key) cannot pack into 64 bits.
enum class HSpan { kNarrow, kWide, kHuge, kWideLayout };

// The key sets that cannot pack into a 64-bit group code.
enum Shape { kDoubleKey, kHugeRange, kWideLayout, kNumShapes };
constexpr const char* kShapeNames[] = {"double fact key", "int64 range >= 2^62",
                                       "layout over 64 bits"};

// Sizes of column u's domain: the widest one-byte column, the narrowest
// two-byte one, and one too wide for any ordinal column.
constexpr int64_t kUSizes[] = {255, 256, 70000};

struct DimSpec {
  std::string name;
  int cats = 2;        // column "s" domain kCats[0..cats)
  int64_t tlo = 0;     // column "t" domain [tlo, thi]
  int64_t thi = 3;
  int64_t usize = 255;  // column "u" domain [0, usize)
  std::vector<int64_t> keys;
};


struct Instance {
  storage::Catalog catalog;
  std::vector<DimSpec> dims;
  HSpan h_span = HSpan::kNarrow;
};

int64_t RandInt(std::mt19937& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

// A value of a domain [lo, hi], at an edge one time in four and outside the
// domain one time in eight.
int64_t RandomDomainValue(std::mt19937& rng, int64_t lo, int64_t hi) {
  switch (RandInt(rng, 0, 7)) {
    case 0:
      return RandInt(rng, 0, 1) == 0 ? lo - 1 : hi + 1;
    case 1:
      return lo;
    case 2:
      return hi;
    default:
      return RandInt(rng, lo, hi);
  }
}

HSpan RandomHSpan(std::mt19937& rng) {
  switch (RandInt(rng, 0, 7)) {
    case 0:
      return HSpan::kWide;
    case 1:
      return HSpan::kHuge;
    case 2:
      return HSpan::kWideLayout;
    default:
      return HSpan::kNarrow;
  }
}

int64_t RandomH(std::mt19937& rng, HSpan span) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const bool low = RandInt(rng, 0, 1) == 0;
  switch (span) {
    case HSpan::kNarrow:
      return RandInt(rng, 0, 5);
    case HSpan::kWide:
      return RandInt(rng, -2000000000000, 2000000000000);
    case HSpan::kHuge:
      return low ? kMin + RandInt(rng, 0, 3) : kMax - RandInt(rng, 0, 3);
    case HSpan::kWideLayout:
      return low ? RandInt(rng, 0, 3) : (int64_t{1} << 60) + RandInt(rng, 4, 7);
  }
  return 0;
}

// A random star schema. `empty_fact` forces a fact table without rows; in
// `with_bad_fk` instances a late fact row references a key no dimension has.
Instance MakeRandomInstance(std::mt19937& rng, bool with_bad_fk, HSpan h_span,
                            bool empty_fact = false) {
  Instance inst;
  inst.h_span = h_span;
  int num_dims = static_cast<int>(RandInt(rng, 1, 3));

  std::vector<std::shared_ptr<storage::Table>> dim_tables;
  for (int j = 0; j < num_dims; ++j) {
    DimSpec spec;
    spec.name = "D" + std::to_string(j);
    spec.cats = static_cast<int>(RandInt(rng, 2, 5));
    spec.tlo = RandInt(rng, -3, 3);
    spec.thi = spec.tlo + RandInt(rng, 1, 6);
    spec.usize = kUSizes[RandInt(rng, 0, 2)];
    int64_t rows = RandInt(rng, 1, 40);

    // Key space: dense 1..n, or sparse (large random strides, possibly
    // negative) to exercise the hash-map fallback of the dense lookup.
    bool dense = RandInt(rng, 0, 1) == 0;
    int64_t key = dense ? 1 : RandInt(rng, -1000000000, 1000000000);
    for (int64_t r = 0; r < rows; ++r) {
      spec.keys.push_back(key);
      key += dense ? 1 : RandInt(rng, 1, 100000);
    }
    std::shuffle(spec.keys.begin(), spec.keys.end(), rng);

    storage::Schema schema(
        {Field("k", ValueType::kInt64),
         Field("s", ValueType::kString,
               AttributeDomain::Categorical(std::vector<std::string>(
                   kCats, kCats + spec.cats))),
         Field("t", ValueType::kInt64,
               AttributeDomain::IntRange(spec.tlo, spec.thi)),
         Field("u", ValueType::kInt64,
               AttributeDomain::IntRange(0, spec.usize - 1))});
    auto table = *storage::Table::Create(spec.name, schema, "k");
    for (int64_t k : spec.keys) {
      // s reads "z", outside its domain, one time in eight.
      const int64_t cat = RandInt(rng, 0, 7) == 0
                              ? -1
                              : RandInt(rng, 0, spec.cats - 1);
      DPSTARJ_CHECK(
          table
              ->AppendRow(
                  {Value(k), Value(cat < 0 ? "z" : kCats[cat]),
                   Value(RandomDomainValue(rng, spec.tlo, spec.thi)),
                   Value(RandomDomainValue(rng, 0, spec.usize - 1))})
              .ok(),
          "dim append");
    }
    dim_tables.push_back(table);
    inst.dims.push_back(std::move(spec));
  }

  // Fact: one fk per dimension, integer-valued measures qty / price (price
  // doubles as the double GROUP BY key), group columns g (string) and h
  // (int64, spread per h_span).
  std::vector<Field> fact_fields;
  for (int j = 0; j < num_dims; ++j) {
    fact_fields.emplace_back("fk" + std::to_string(j), ValueType::kInt64);
  }
  fact_fields.emplace_back("qty", ValueType::kInt64);
  fact_fields.emplace_back("price", ValueType::kDouble);
  fact_fields.emplace_back("g", ValueType::kString);
  fact_fields.emplace_back("h", ValueType::kInt64);
  auto fact = *storage::Table::Create("F", storage::Schema(fact_fields));

  int64_t fact_rows = empty_fact ? 0 : RandInt(rng, 0, 300);
  if (with_bad_fk && fact_rows == 0) fact_rows = 1;
  for (int64_t r = 0; r < fact_rows; ++r) {
    std::vector<Value> row;
    for (int j = 0; j < num_dims; ++j) {
      const auto& keys = inst.dims[static_cast<size_t>(j)].keys;
      int64_t fk = keys[static_cast<size_t>(
          RandInt(rng, 0, static_cast<int64_t>(keys.size()) - 1))];
      if (with_bad_fk && r == fact_rows / 2 && j == 0) fk = 2000000001;
      row.emplace_back(fk);
    }
    row.emplace_back(RandInt(rng, 0, 9));
    row.emplace_back(static_cast<double>(RandInt(rng, 0, 99)));
    row.emplace_back(kCats[RandInt(rng, 0, 2)]);
    row.emplace_back(RandomH(rng, h_span));
    DPSTARJ_CHECK(fact->AppendRow(row).ok(), "fact append");
  }

  for (auto& t : dim_tables) {
    DPSTARJ_CHECK(inst.catalog.AddTable(t).ok(), "add dim");
  }
  DPSTARJ_CHECK(inst.catalog.AddTable(fact).ok(), "add fact");
  for (int j = 0; j < num_dims; ++j) {
    DPSTARJ_CHECK(
        inst.catalog
            .AddForeignKey({"F", "fk" + std::to_string(j),
                            inst.dims[static_cast<size_t>(j)].name, "k"})
            .ok(),
        "add fk");
  }
  return inst;
}

// A range on column u whose ends sit at the domain's edges half the time.
query::Predicate RangeOnU(std::mt19937& rng, const DimSpec& d) {
  const int64_t top = d.usize - 1;
  const int64_t lo = RandInt(rng, 0, 1) == 0 ? 0 : RandInt(rng, 0, top);
  const int64_t hi = RandInt(rng, 0, 1) == 0 ? top : RandInt(rng, lo, top);
  return query::Predicate::Range(d.name, "u", Value(lo), Value(hi));
}

// Random aggregate and predicates over the instance, no GROUP BY yet.
query::StarJoinQuery MakeUngroupedQuery(std::mt19937& rng,
                                        const std::vector<DimSpec>& dims) {
  query::StarJoinQuery q;
  q.name = "equiv";
  q.fact_table = "F";
  for (const auto& d : dims) q.joined_tables.push_back(d.name);

  switch (RandInt(rng, 0, 3)) {
    case 0:
      q.aggregate = query::AggregateKind::kCount;
      break;
    case 1:
      q.aggregate = query::AggregateKind::kSum;
      q.measure_terms = {{"qty", 1.0}};
      break;
    case 2:
      q.aggregate = query::AggregateKind::kSum;
      q.measure_terms = {{"qty", 1.0}, {"price", 2.0}};
      break;
    default:
      q.aggregate = query::AggregateKind::kAvg;
      q.measure_terms = {{"qty", 1.0}};
      break;
  }

  for (const auto& d : dims) {
    switch (RandInt(rng, 0, 3)) {
      case 0:
        break;  // unfiltered dimension
      case 1:
        q.predicates.push_back(query::Predicate::Point(
            d.name, "s", Value(kCats[RandInt(rng, 0, d.cats - 1)])));
        break;
      case 2: {
        int64_t lo = RandInt(rng, d.tlo, d.thi);
        int64_t hi = RandInt(rng, lo, d.thi);
        q.predicates.push_back(
            query::Predicate::Range(d.name, "t", Value(lo), Value(hi)));
        break;
      }
      default:
        q.predicates.push_back(RangeOnU(rng, d));
        break;
    }
  }
  return q;
}

query::StarJoinQuery MakeRandomQuery(std::mt19937& rng, const Instance& inst) {
  query::StarJoinQuery q = MakeUngroupedQuery(rng, inst.dims);
  if (RandInt(rng, 0, 2) > 0) {  // grouped two thirds of the time
    // Wide-layout instances group h together with every dimension key, so
    // the packed fields (61 bits for h alone) overflow 64 bits.
    const bool wide = inst.h_span == HSpan::kWideLayout;
    for (const auto& d : inst.dims) {
      if (wide || RandInt(rng, 0, 2) == 0) q.group_by.push_back({d.name, "s"});
      if (wide || RandInt(rng, 0, 3) == 0) q.group_by.push_back({d.name, "t"});
    }
    if (RandInt(rng, 0, 2) == 0) q.group_by.push_back({"F", "g"});
    if (wide || RandInt(rng, 0, 2) == 0) q.group_by.push_back({"F", "h"});
    if (RandInt(rng, 0, 3) == 0) q.group_by.push_back({"F", "price"});
  }
  return q;
}

// A query of one given unpackable shape: random aggregate and predicates,
// the shape's fact key inserted at a random position among dimension keys.
query::StarJoinQuery MakeShapedQuery(std::mt19937& rng, const Instance& inst,
                                     Shape shape) {
  query::StarJoinQuery q = MakeUngroupedQuery(rng, inst.dims);
  for (const auto& d : inst.dims) {
    if (shape == kWideLayout || RandInt(rng, 0, 1) == 0) {
      q.group_by.push_back({d.name, "s"});
    }
    if (shape == kWideLayout || RandInt(rng, 0, 2) == 0) {
      q.group_by.push_back({d.name, "t"});
    }
  }
  if (shape == kWideLayout) q.group_by.push_back({"F", "g"});
  const query::ColumnRef key{"F", shape == kDoubleKey ? "price" : "h"};
  q.group_by.insert(
      q.group_by.begin() +
          RandInt(rng, 0, static_cast<int64_t>(q.group_by.size())),
      key);
  return q;
}

bool GroupsByFact(const query::StarJoinQuery& q, const char* column) {
  return std::find(q.group_by.begin(), q.group_by.end(),
                   query::ColumnRef{"F", column}) != q.group_by.end();
}

// The unpackable shape a compiled plan has, or kNumShapes when it packs.
Shape ShapeOf(const exec::ScanPlan& plan, const query::StarJoinQuery& q,
              HSpan h_span) {
  if (!plan.numbered_codes) return kNumShapes;
  if (GroupsByFact(q, "price")) return kDoubleKey;
  if (GroupsByFact(q, "h") && h_span == HSpan::kHuge) return kHugeRange;
  return kWideLayout;
}

void ExpectBitIdentical(const QueryResult& expected, const QueryResult& got,
                        const std::string& what) {
  EXPECT_EQ(expected.grouped, got.grouped) << what;
  EXPECT_EQ(expected.scalar, got.scalar) << what;
  ASSERT_EQ(expected.groups.size(), got.groups.size()) << what;
  auto it = got.groups.begin();
  for (const auto& [label, value] : expected.groups) {
    EXPECT_EQ(label, it->first) << what;
    EXPECT_EQ(value, it->second) << what << " group " << label;
    ++it;
  }
}

// Executor configurations under test: 1, 4 and 8 scan workers. morsel_size
// 17 forces dozens of morsels per scan, so multi-worker runs really exercise
// partial merging.
std::vector<std::pair<std::string, ExecutorOptions>> ThreadConfigs() {
  std::vector<std::pair<std::string, ExecutorOptions>> out;
  for (int threads : {1, 4, 8}) {
    ExecutorOptions options;
    options.exec_threads = threads;
    options.morsel_size = 17;
    out.emplace_back("threads/" + std::to_string(threads), options);
  }
  return out;
}

// Random per-dimension predicate replacements in domain-index space — the
// shape the Predicate Mechanism feeds the executor every noisy run. One
// bound in eight lies past its domain edge, and one range in eight has its
// bounds swapped, which empties it unless they are equal.
exec::PredicateOverrides MakeRandomOverrides(std::mt19937& rng,
                                             const query::BoundQuery& bound) {
  exec::PredicateOverrides overrides(bound.dims.size());
  for (size_t i = 0; i < bound.dims.size(); ++i) {
    if (bound.dims[i].predicates.empty()) continue;
    if (RandInt(rng, 0, 2) == 0) continue;  // keep the dim's own predicates
    std::vector<query::BoundPredicate> noisy = bound.dims[i].predicates;
    for (auto& p : noisy) {
      int64_t m = p.domain.size();
      p.lo_index = RandInt(rng, 0, m - 1);
      p.hi_index = RandInt(rng, p.lo_index, m - 1);
      if (RandInt(rng, 0, 7) == 0) p.lo_index = -RandInt(rng, 1, 3);
      if (RandInt(rng, 0, 7) == 0) p.hi_index = m + RandInt(rng, 0, 3);
      if (RandInt(rng, 0, 7) == 0) std::swap(p.lo_index, p.hi_index);
      p.kind = p.lo_index == p.hi_index ? query::PredicateKind::kPoint
                                        : query::PredicateKind::kRange;
    }
    overrides[i] = std::move(noisy);
  }
  return overrides;
}

// Far above any generated plan's dense cell index that fits in memory, so
// cells are built on tables too small for PlanCache's size rule; plans whose
// fact group field is ~2^42 wide, or that number their key tuples, have none.
constexpr uint64_t kAnyCells = uint64_t{1} << 20;

// Overrides that filter dimension `i` on the column its own predicates do
// not use ("s" ↔ "t"; a dimension without predicates gets one on "t") — a
// (column, domain) no class was built from.
exec::PredicateOverrides NonMemoizedOverride(const query::BoundQuery& bound,
                                             size_t i) {
  const query::DimBinding& d = bound.dims[i];
  const int col =
      !d.predicates.empty() && d.predicates[0].column_index == 2 ? 1 : 2;
  query::BoundPredicate pred;
  pred.table = d.table;
  pred.column_index = col;
  pred.column = d.dim->schema().field(col).name;
  pred.domain = *d.dim->schema().field(col).domain;
  pred.kind = query::PredicateKind::kRange;
  pred.lo_index = 0;
  pred.hi_index = pred.domain.size() / 2;
  exec::PredicateOverrides overrides(bound.dims.size());
  overrides[i] = std::vector<query::BoundPredicate>{pred};
  return overrides;
}

// How the row sweeps of the tests tested their dimensions.
struct SweepCounts {
  int compare_dims = 0;  // every effective predicate had an ordinal column
  int gather_dims = 0;   // some predicate had none
  int narrow = 0;        // predicates compared over one-byte columns
  int wide = 0;          // ... over two-byte columns
  int too_wide = 0;      // memoized predicates whose domain has no column
  int absent_compares = 0;  // compare dimensions with dangling foreign keys
};

SweepCounts g_sweeps;

// Counts how a row sweep of `plan` under `overrides` tests each dimension,
// by the executor's rule: a dimension it cannot skip (BitmapPassesAllRows)
// compares its ordinal columns when every effective predicate has one, and
// gathers its bitmap otherwise. A plan with cells sweeps no rows when they
// serve, and holds no ordinal columns.
void CountSweep(const exec::ScanPlan& plan, const query::BoundQuery& bound,
                const exec::PredicateOverrides& overrides) {
  if (plan.cells != nullptr) return;
  for (size_t i = 0; i < bound.dims.size(); ++i) {
    const auto& preds = exec::EffectivePreds(bound, overrides, i);
    const exec::PlanDim& pd = plan.dims[i];
    const bool may_miss = plan.fact_dim_row[i]->has_absent_fk;
    auto bitmap = exec::BuildPassBitmap(pd, *bound.dims[i].dim, preds);
    ASSERT_TRUE(bitmap.ok()) << bitmap.status().ToString();
    bool all_pass = true;
    for (int32_t r = 0; r < pd.num_rows; ++r) {
      all_pass = all_pass && (((*bitmap)[static_cast<size_t>(r >> 6)] >>
                               (r & 63)) & 1) != 0;
    }
    if (preds.empty() || (!may_miss && all_pass)) continue;
    bool compare = true;
    for (const auto& pred : preds) {
      const int t = pd.TableOf(pred);
      const exec::OrdinalColumn* column =
          t < 0 ? nullptr
                : plan.ordinal_columns[i][static_cast<size_t>(t)].get();
      if (column == nullptr) {
        compare = false;
        if (t >= 0) ++g_sweeps.too_wide;
      } else {
        ++(column->width == 1 ? g_sweeps.narrow : g_sweeps.wide);
      }
    }
    ++(compare ? g_sweeps.compare_dims : g_sweeps.gather_dims);
    if (compare && may_miss) ++g_sweeps.absent_compares;
  }
}

// Overrides that keep every dimension's (column, domain) pairs but one,
// whose predicates move to a column they do not filter: one sweep whose
// dimensions compare and gather at once.
exec::PredicateOverrides MixedOverrides(std::mt19937& rng,
                                        const query::BoundQuery& bound) {
  exec::PredicateOverrides overrides = MakeRandomOverrides(rng, bound);
  const size_t i = static_cast<size_t>(
      RandInt(rng, 0, static_cast<int64_t>(bound.dims.size()) - 1));
  overrides[i] = *NonMemoizedOverride(bound, i)[i];
  return overrides;
}

// Checks `plan` against the oracle at every thread count: two runs without
// overrides, three random override sets — which keep every predicate's
// (column, domain), so a plan with cells sweeps them — and a mixed set, and,
// for a plan with cells, an override its cells cannot serve.
void CheckPlan(std::mt19937& rng, const query::BoundQuery& bound,
               const exec::ScanPlan& plan, const std::string& where) {
  std::vector<std::pair<std::string, exec::PredicateOverrides>> cases;
  cases.emplace_back("", exec::PredicateOverrides(bound.dims.size()));
  cases.emplace_back("", exec::PredicateOverrides(bound.dims.size()));
  for (int oi = 0; oi < 3; ++oi) {
    cases.emplace_back(" override " + std::to_string(oi),
                       MakeRandomOverrides(rng, bound));
    if (plan.cells != nullptr) {
      EXPECT_TRUE(plan.CellsServe(bound, cases.back().second)) << where;
    }
  }
  if (!bound.dims.empty()) {
    cases.emplace_back(" mixed", MixedOverrides(rng, bound));
  }
  if (plan.cells != nullptr && !bound.dims.empty()) {
    const size_t i = static_cast<size_t>(
        RandInt(rng, 0, static_cast<int64_t>(bound.dims.size()) - 1));
    cases.emplace_back(" non-memoized", NonMemoizedOverride(bound, i));
    EXPECT_FALSE(plan.CellsServe(bound, cases.back().second)) << where;
  }
  for (const auto& [what, overrides] : cases) {
    CountSweep(plan, bound, overrides);
    auto expected = exec::ExecuteNaive(bound, overrides);
    EXPECT_TRUE(expected.ok()) << expected.status().ToString();
    if (!expected.ok()) continue;
    for (const auto& [name, options] : ThreadConfigs()) {
      StarJoinExecutor executor(options);
      auto got = executor.Execute(bound, overrides, plan);
      EXPECT_TRUE(got.ok()) << name << ": " << got.status().ToString();
      if (got.ok()) ExpectBitIdentical(*expected, *got, where + what + " " + name);
    }
  }
}

// Checks one bound query against the oracle at every thread count: one-shot
// Execute, then the compiled plan and — when it can have them — the plan
// with cells through CheckPlan. Returns the compiled plan for shape
// accounting; `cell_plans`, when given, counts the plans checked with cells.
exec::ScanPlan CheckAgainstNaive(std::mt19937& rng,
                                 const query::BoundQuery& bound,
                                 const std::string& where,
                                 int* cell_plans = nullptr) {
  auto naive = exec::ExecuteNaive(bound);
  EXPECT_TRUE(naive.ok()) << naive.status().ToString();
  exec::PlanColumnStore columns;
  auto plan = exec::ScanPlan::Compile(bound, columns);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!naive.ok() || !plan.ok()) return exec::ScanPlan();
  for (const auto& [name, options] : ThreadConfigs()) {
    StarJoinExecutor executor(options);
    auto one_shot = executor.Execute(bound);
    EXPECT_TRUE(one_shot.ok()) << name << ": " << one_shot.status().ToString();
    if (one_shot.ok()) {
      ExpectBitIdentical(*naive, *one_shot, where + " " + name);
    }
  }
  CheckPlan(rng, bound, *plan, where + " plan");
  auto with_cells = exec::ScanPlan::WithCells(*plan, bound, kAnyCells);
  if (with_cells.ok()) {
    EXPECT_NE(with_cells->cells, nullptr);
    CheckPlan(rng, bound, *with_cells, where + " cells");
    if (cell_plans != nullptr) ++*cell_plans;
  } else {
    EXPECT_EQ(with_cells.status().code(), StatusCode::kNotSupported) << where;
  }
  return std::move(*plan);
}

TEST(ExecutorEquivalence, RandomizedMatrixMatchesNaiveBitForBit) {
  g_sweeps = SweepCounts();
  std::array<int, kNumShapes + 1> shape_count{};
  int cell_plans = 0;
  int packed_g = 0;  // packed plans keyed on the fact string g
  int packed_h = 0;  // ... and on the fact int64 h
  for (uint32_t seed = 1; seed <= 40; ++seed) {
    std::mt19937 rng(seed);
    Instance inst =
        MakeRandomInstance(rng, /*with_bad_fk=*/false, RandomHSpan(rng));
    query::Binder binder(&inst.catalog);
    for (int qi = 0; qi < 3; ++qi) {
      query::StarJoinQuery q = MakeRandomQuery(rng, inst);
      auto bound = binder.Bind(q);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      exec::ScanPlan plan = CheckAgainstNaive(
          rng, *bound,
          "seed " + std::to_string(seed) + " query " + std::to_string(qi),
          &cell_plans);
      ++shape_count[ShapeOf(plan, q, inst.h_span)];
      if (plan.grouped && !plan.numbered_codes) {
        packed_g += GroupsByFact(q, "g") ? 1 : 0;
        packed_h += GroupsByFact(q, "h") ? 1 : 0;
      }
    }
  }
  for (int s = 0; s < kNumShapes; ++s) {
    EXPECT_GT(shape_count[static_cast<size_t>(s)], 0)
        << "the generator never produced a " << kShapeNames[s] << " query";
  }
  EXPECT_GT(packed_g, 0) << "no packed plan keyed on the fact string g";
  EXPECT_GT(packed_h, 0) << "no packed plan keyed on the fact int64 h";
  EXPECT_GT(cell_plans, 60);  // most of the 120 plans have cells
  EXPECT_GT(g_sweeps.compare_dims, 0) << "no row sweep compared a dimension";
  EXPECT_GT(g_sweeps.gather_dims, 0) << "no row sweep gathered a dimension";
  EXPECT_GT(g_sweeps.narrow, 0) << "no one-byte ordinal column compared";
  EXPECT_GT(g_sweeps.wide, 0) << "no two-byte ordinal column compared";
  EXPECT_GT(g_sweeps.too_wide, 0) << "no domain too wide for a column";
}

// Each unpackable shape on purpose, on plain instances, on instances with a
// dangling FK, and on an empty fact table.
TEST(ExecutorEquivalence, UnpackableGroupKeysMatchNaiveBitForBit) {
  std::array<int, kNumShapes + 1> shape_count{};
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    for (int shape = 0; shape < kNumShapes; ++shape) {
      for (int kind = 0; kind < 3; ++kind) {  // plain, dangling FK, empty fact
        std::mt19937 rng(seed * 31 + static_cast<uint32_t>(shape * 3 + kind));
        const HSpan span = shape == kWideLayout ? HSpan::kWideLayout
                                                : HSpan::kHuge;
        Instance inst = MakeRandomInstance(rng, /*with_bad_fk=*/kind == 1, span,
                                           /*empty_fact=*/kind == 2);
        query::Binder binder(&inst.catalog);
        query::StarJoinQuery q =
            MakeShapedQuery(rng, inst, static_cast<Shape>(shape));
        auto bound = binder.Bind(q);
        ASSERT_TRUE(bound.ok()) << bound.status().ToString();
        exec::ScanPlan plan = CheckAgainstNaive(
            rng, *bound,
            Format("seed %u shape %s kind %d", seed, kShapeNames[shape], kind));
        ++shape_count[ShapeOf(plan, q, inst.h_span)];
        if (shape == kDoubleKey) EXPECT_TRUE(plan.numbered_codes);
      }
    }
  }
  for (int s = 0; s < kNumShapes; ++s) {
    EXPECT_GT(shape_count[static_cast<size_t>(s)], 0) << kShapeNames[s];
  }
}

// A fact row whose foreign key misses its dimension is dropped, as in a SQL
// inner join, at every thread count, through a one-shot Execute and through
// a compiled plan alike; Catalog::ValidateIntegrity reports the instance.
// The dangling dimension always has a predicate, so the rows also meet the
// compare of its ordinal columns.
TEST(ExecutorEquivalence, DanglingForeignKeysDropAcrossThreadCounts) {
  g_sweeps = SweepCounts();
  for (uint32_t seed = 100; seed < 110; ++seed) {
    std::mt19937 rng(seed);
    Instance inst =
        MakeRandomInstance(rng, /*with_bad_fk=*/true, RandomHSpan(rng));
    EXPECT_FALSE(inst.catalog.ValidateIntegrity().ok()) << "seed " << seed;
    query::Binder binder(&inst.catalog);
    query::StarJoinQuery q = MakeRandomQuery(rng, inst);
    const DimSpec& d0 = inst.dims[0];
    if (std::none_of(q.predicates.begin(), q.predicates.end(),
                     [&](const query::Predicate& p) {
                       return p.table() == d0.name;
                     })) {
      const int64_t lo = RandInt(rng, d0.tlo, d0.thi);
      q.predicates.push_back(query::Predicate::Range(
          d0.name, "t", Value(lo), Value(RandInt(rng, lo, d0.thi))));
    }
    auto bound = binder.Bind(q);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();

    exec::PlanColumnStore columns;
    auto plan = exec::ScanPlan::Compile(*bound, columns);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    // The dangling rows belong to no cell: they pass no predicate.
    auto with_cells = exec::ScanPlan::WithCells(*plan, *bound, kAnyCells);
    if (with_cells.ok()) {
      int64_t cell_rows = 0;
      for (int64_t n : with_cells->cells->counts) cell_rows += n;
      EXPECT_LT(cell_rows, bound->fact->num_rows()) << "seed " << seed;
    }
    const exec::PredicateOverrides none(bound->dims.size());
    CheckPlan(rng, *bound, *plan, "dangling seed " + std::to_string(seed));
    auto naive = exec::ExecuteNaive(*bound);
    ASSERT_TRUE(naive.ok());
    for (const auto& [name, options] : ThreadConfigs()) {
      StarJoinExecutor executor(options);
      auto got = executor.Execute(*bound);
      ASSERT_TRUE(got.ok()) << name;
      ExpectBitIdentical(*naive, *got, name + " seed " + std::to_string(seed));
      auto got_plan = executor.Execute(*bound, none, *plan);
      ASSERT_TRUE(got_plan.ok()) << name;
      ExpectBitIdentical(*naive, *got_plan,
                         name + " plan seed " + std::to_string(seed));
      if (!with_cells.ok()) continue;
      auto got_cells = executor.Execute(*bound, none, *with_cells);
      ASSERT_TRUE(got_cells.ok()) << name;
      ExpectBitIdentical(*naive, *got_cells,
                         name + " cells seed " + std::to_string(seed));
    }
  }
  EXPECT_GT(g_sweeps.absent_compares, 0)
      << "no compare dimension had a dangling foreign key";
}

TEST(ExecutorEquivalence, ThreadCountsAgreeOnEmptyFact) {
  std::mt19937 rng(7);
  Instance inst = MakeRandomInstance(rng, /*with_bad_fk=*/false,
                                     RandomHSpan(rng), /*empty_fact=*/true);
  auto fact = inst.catalog.GetTable("F");
  ASSERT_TRUE(fact.ok());
  ASSERT_EQ((*fact)->num_rows(), 0);

  query::Binder binder(&inst.catalog);
  query::StarJoinQuery q = MakeRandomQuery(rng, inst);
  auto bound = binder.Bind(q);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto naive = exec::ExecuteNaive(*bound);
  ASSERT_TRUE(naive.ok());
  for (const auto& [name, options] : ThreadConfigs()) {
    StarJoinExecutor executor(options);
    auto got = executor.Execute(*bound);
    ASSERT_TRUE(got.ok()) << name;
    ExpectBitIdentical(*naive, *got, name);
  }
  // An empty fact table has an empty cell layout, which answers the same.
  exec::PlanColumnStore columns;
  auto plan = exec::ScanPlan::Compile(*bound, columns);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto with_cells = exec::ScanPlan::WithCells(*plan, *bound, kAnyCells);
  ASSERT_TRUE(with_cells.ok()) << with_cells.status().ToString();
  EXPECT_EQ(with_cells->cells->num_cells(), 0);
  CheckPlan(rng, *bound, *with_cells, "empty fact cells");
}

}  // namespace
}  // namespace dpstarj
