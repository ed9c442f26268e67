// The kernel equivalence contract (exec/kernels/kernels.h): for identical
// inputs, the scalar and AVX2 implementations of every engine kernel return
// BYTE-IDENTICAL results. These tests fuzz each kernel over randomized
// inputs — ragged tails shorter than a word, sentinel/absent-FK bits, empty
// spans, all-pass and all-fail bitmaps, ordinal columns of both widths with
// "no ordinal" rows, domain-edge and empty ranges at every chunk length and
// unaligned bases — and then pin the whole executor to each table via
// ScopedKernelOverride and compare full QueryResults.
//
// On hosts without AVX2 the cross-ISA comparisons GTEST_SKIP (the scalar
// kernels are still exercised against a naive reference), so the suite is
// meaningful on any machine while being a real bit-identity check on x86.

#include "exec/kernels/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu.h"
#include "common/random.h"
#include "common/string_util.h"
#include "exec/star_join_executor.h"
#include "query/binder.h"
#include "storage/catalog.h"

namespace dpstarj {
namespace {

using exec::kernels::ActiveKernels;
using exec::kernels::Avx2KernelsOrNull;
using exec::kernels::EngineKernels;
using exec::kernels::ScalarKernels;
using exec::kernels::ScopedKernelOverride;

// A star schema big enough that the plan path takes many full 64-row chunks
// plus ragged tails: Da(100 rows, t ∈ [0,9]), Db(250 rows, s ∈ {a..e}),
// fact F(fka, fkb, qty, price) with integer-valued measures.
storage::Catalog MakeMediumCatalog(int64_t fact_rows, uint64_t seed) {
  using storage::AttributeDomain;
  using storage::Field;
  using storage::Value;
  using storage::ValueType;
  Rng rng(seed);
  storage::Catalog catalog;

  storage::Schema da_schema(
      {Field("k", ValueType::kInt64),
       Field("t", ValueType::kInt64, AttributeDomain::IntRange(0, 9))});
  auto da = *storage::Table::Create("Da", da_schema, "k");
  for (int64_t i = 1; i <= 100; ++i) {
    DPSTARJ_CHECK(da->AppendRow({Value(i), Value(rng.UniformInt(0, 9))}).ok(),
                  "fixture append");
  }

  const char* cats[5] = {"a", "b", "c", "d", "e"};
  storage::Schema db_schema(
      {Field("k", ValueType::kInt64),
       Field("s", ValueType::kString,
             AttributeDomain::Categorical({"a", "b", "c", "d", "e"}))});
  auto db = *storage::Table::Create("Db", db_schema, "k");
  for (int64_t i = 1; i <= 250; ++i) {
    DPSTARJ_CHECK(
        db->AppendRow({Value(i), Value(cats[rng.UniformInt(0, 4)])}).ok(),
        "fixture append");
  }

  storage::Schema fact_schema(
      {Field("fka", ValueType::kInt64), Field("fkb", ValueType::kInt64),
       Field("qty", ValueType::kInt64), Field("price", ValueType::kDouble)});
  auto fact = *storage::Table::Create("F", fact_schema);
  for (int64_t r = 0; r < fact_rows; ++r) {
    const int64_t qty = rng.UniformInt(1, 9);
    DPSTARJ_CHECK(fact
                      ->AppendRow({Value(rng.UniformInt(1, 100)),
                                   Value(rng.UniformInt(1, 250)), Value(qty),
                                   Value(static_cast<double>(qty) * 10.0)})
                      .ok(),
                  "fixture append");
  }

  DPSTARJ_CHECK(catalog.AddTable(da).ok(), "fixture");
  DPSTARJ_CHECK(catalog.AddTable(db).ok(), "fixture");
  DPSTARJ_CHECK(catalog.AddTable(fact).ok(), "fixture");
  DPSTARJ_CHECK(catalog.AddForeignKey({"F", "fka", "Da", "k"}).ok(), "fixture");
  DPSTARJ_CHECK(catalog.AddForeignKey({"F", "fkb", "Db", "k"}).ok(), "fixture");
  return catalog;
}

// grouped: SUM(price) by Da.t with a range predicate on Da only, so the
// predicate-free Db is elidable (all-pass bitmap) and the sweep gathers Da
// alone. !grouped: COUNT with predicates on both dims — both gathered.
query::StarJoinQuery MakeMediumQuery(bool grouped) {
  query::StarJoinQuery q;
  q.name = grouped ? "medium_sum_grouped" : "medium_count";
  q.fact_table = "F";
  q.joined_tables = {"Da", "Db"};
  if (grouped) {
    q.aggregate = query::AggregateKind::kSum;
    q.measure_terms = {{"price", 1.0}};
    q.group_by = {{"Da", "t"}};
    q.predicates.push_back(query::Predicate::Range(
        "Da", "t", storage::Value(int64_t{2}), storage::Value(int64_t{7})));
  } else {
    q.aggregate = query::AggregateKind::kCount;
    q.predicates.push_back(query::Predicate::Range(
        "Da", "t", storage::Value(int64_t{1}), storage::Value(int64_t{8})));
    q.predicates.push_back(
        query::Predicate::Point("Db", "s", storage::Value("b")));
  }
  return q;
}

// ---------------------------------------------------------------------------
// range_bitmap_and
// ---------------------------------------------------------------------------

// Naive reference: bit r = ordinals[r] in [lo, hi], bits >= rows untouched
// on AND / zero on first.
std::vector<uint64_t> ReferenceRangeBitmap(const std::vector<int64_t>& ords,
                                           int64_t lo, int64_t hi, bool first,
                                           std::vector<uint64_t> words) {
  const int64_t rows = static_cast<int64_t>(ords.size());
  for (int64_t r = 0; r < rows; ++r) {
    const uint64_t bit = uint64_t{1} << (r & 63);
    const bool pass = ords[static_cast<size_t>(r)] >= lo &&
                      ords[static_cast<size_t>(r)] <= hi;
    uint64_t& w = words[static_cast<size_t>(r >> 6)];
    if (first) {
      w = (w & ~bit) | (pass ? bit : 0);
    } else if (!pass) {
      w &= ~bit;
    }
  }
  if (first) {
    // Bits past `rows` in the tail word must read 0 after a first store.
    const int tail = static_cast<int>(rows & 63);
    if (tail != 0) {
      words[static_cast<size_t>(rows >> 6)] &= ~uint64_t{0} >> (64 - tail);
    }
  }
  return words;
}

void CheckRangeBitmap(const EngineKernels& kern, Rng* rng, int64_t rows) {
  std::vector<int64_t> ords(static_cast<size_t>(rows));
  for (auto& o : ords) o = rng->UniformInt(-2, 20);  // includes -1 sentinels
  const size_t nwords = static_cast<size_t>((rows + 1 + 63) / 64);
  for (const bool first : {true, false}) {
    for (const auto [lo, hi] :
         {std::pair<int64_t, int64_t>{0, 20},    // all real ordinals pass
          std::pair<int64_t, int64_t>{30, 40},   // all fail
          std::pair<int64_t, int64_t>{3, 11}}) { // mixed
      std::vector<uint64_t> seed(nwords);
      for (auto& w : seed) {
        w = (static_cast<uint64_t>(rng->UniformInt(0, INT64_MAX)) << 1) |
            static_cast<uint64_t>(rng->UniformInt(0, 1));
      }
      std::vector<uint64_t> got = seed;
      kern.range_bitmap_and(ords.data(), rows, lo, hi, first, got.data());
      const std::vector<uint64_t> want =
          ReferenceRangeBitmap(ords, lo, hi, first, seed);
      ASSERT_EQ(got, want) << kern.name << " rows=" << rows << " lo=" << lo
                           << " hi=" << hi << " first=" << first;
    }
  }
}

TEST(KernelsTest, RangeBitmapAndMatchesReference) {
  Rng rng(7);
  for (const int64_t rows : {0, 1, 7, 63, 64, 65, 128, 300, 1000}) {
    CheckRangeBitmap(ScalarKernels(), &rng, rows);
    if (const EngineKernels* avx2 = Avx2KernelsOrNull()) {
      CheckRangeBitmap(*avx2, &rng, rows);
    }
  }
}

TEST(KernelsTest, RangeBitmapAndScalarVsAvx2BitIdentical) {
  const EngineKernels* avx2 = Avx2KernelsOrNull();
  if (avx2 == nullptr) GTEST_SKIP() << "host has no AVX2";
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const int64_t rows = rng.UniformInt(0, 513);
    std::vector<int64_t> ords(static_cast<size_t>(rows));
    for (auto& o : ords) o = rng.UniformInt(-1, 50);
    const int64_t lo = rng.UniformInt(-1, 25);
    const int64_t hi = rng.UniformInt(lo, 60);
    const bool first = rng.UniformInt(0, 1) == 1;
    std::vector<uint64_t> seed(static_cast<size_t>((rows + 1 + 63) / 64));
    for (auto& w : seed) {
      w = static_cast<uint64_t>(rng.UniformInt(INT64_MIN, INT64_MAX));
    }
    std::vector<uint64_t> a = seed, b = seed;
    ScalarKernels().range_bitmap_and(ords.data(), rows, lo, hi, first,
                                     a.data());
    avx2->range_bitmap_and(ords.data(), rows, lo, hi, first, b.data());
    ASSERT_EQ(a, b) << "trial " << trial << " rows=" << rows;
  }
}

// ---------------------------------------------------------------------------
// pass_mask
// ---------------------------------------------------------------------------

struct PassMaskCase {
  std::vector<std::vector<int32_t>> dim_rows;       // per dim, per fact row
  std::vector<std::vector<uint64_t>> bitmap_words;  // per dim
  std::vector<const int32_t*> row_ptrs;
  std::vector<const uint64_t*> word_ptrs;
};

// Dimension bitmaps cover rows [0, dim_size] with the sentinel bit
// (dim_size) always 0; fact rows index anywhere in [0, dim_size].
PassMaskCase MakePassMaskCase(Rng* rng, size_t num_dims, int64_t fact_rows,
                              int32_t dim_size, int percent_set) {
  PassMaskCase c;
  c.dim_rows.resize(num_dims);
  c.bitmap_words.resize(num_dims);
  for (size_t d = 0; d < num_dims; ++d) {
    c.dim_rows[d].resize(static_cast<size_t>(fact_rows));
    for (auto& r : c.dim_rows[d]) {
      // ~1 in 16 rows hits the sentinel (absent FK).
      r = rng->UniformInt(0, 15) == 0
              ? dim_size
              : static_cast<int32_t>(rng->UniformInt(0, dim_size - 1));
    }
    c.bitmap_words[d].assign(static_cast<size_t>((dim_size + 1 + 63) / 64), 0);
    for (int32_t r = 0; r < dim_size; ++r) {
      if (rng->UniformInt(0, 99) < percent_set) {
        c.bitmap_words[d][static_cast<size_t>(r >> 6)] |= uint64_t{1}
                                                          << (r & 63);
      }
    }
  }
  for (size_t d = 0; d < num_dims; ++d) {
    c.row_ptrs.push_back(c.dim_rows[d].data());
    c.word_ptrs.push_back(c.bitmap_words[d].data());
  }
  return c;
}

uint64_t ReferencePassMask(const PassMaskCase& c, int64_t base, int nbits) {
  uint64_t mask = 0;
  for (int i = 0; i < nbits; ++i) {
    bool ok = true;
    for (size_t d = 0; d < c.dim_rows.size(); ++d) {
      const int32_t dr = c.dim_rows[d][static_cast<size_t>(base + i)];
      ok = ok && ((c.bitmap_words[d][static_cast<size_t>(dr >> 6)] >>
                   (dr & 63)) &
                  1) != 0;
    }
    if (ok) mask |= uint64_t{1} << i;
  }
  return mask;
}

TEST(KernelsTest, PassMaskMatchesReferenceAndCrossIsa) {
  const EngineKernels* avx2 = Avx2KernelsOrNull();
  Rng rng(23);
  // percent_set 0 = all-fail bitmaps, 100 = all-pass; dims 0 = no filter.
  for (const size_t num_dims : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
    for (const int percent_set : {0, 50, 100}) {
      PassMaskCase c = MakePassMaskCase(&rng, num_dims, /*fact_rows=*/512,
                                        /*dim_size=*/100, percent_set);
      for (const auto [base, nbits] :
           {std::pair<int64_t, int>{0, 64}, {64, 64}, {128, 1}, {192, 7},
            {256, 63}, {320, 0}, {448, 64}}) {
        const uint64_t want = ReferencePassMask(c, base, nbits);
        const uint64_t scalar = ScalarKernels().pass_mask(
            c.row_ptrs.data(), c.word_ptrs.data(), num_dims, base, nbits);
        ASSERT_EQ(scalar, want) << "dims=" << num_dims << " base=" << base
                                << " nbits=" << nbits;
        if (avx2 != nullptr) {
          const uint64_t vec = avx2->pass_mask(
              c.row_ptrs.data(), c.word_ptrs.data(), num_dims, base, nbits);
          ASSERT_EQ(vec, want) << "avx2 dims=" << num_dims << " base=" << base
                               << " nbits=" << nbits;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ordinal_range_mask
// ---------------------------------------------------------------------------

// Naive reference: bit i = every range passes row base + i.
template <typename T>
uint64_t ReferenceRangeMask(const std::vector<std::vector<T>>& columns,
                            const std::vector<std::pair<uint32_t, uint32_t>>&
                                bounds,
                            int64_t base, int nbits) {
  uint64_t mask = 0;
  for (int i = 0; i < nbits; ++i) {
    bool ok = true;
    for (size_t k = 0; k < columns.size(); ++k) {
      const uint32_t v = columns[k][static_cast<size_t>(base + i)];
      ok = ok && v >= bounds[k].first && v <= bounds[k].second;
    }
    if (ok) mask |= uint64_t{1} << i;
  }
  return mask;
}

// Columns over a domain of `size` values: ordinals spread over the whole
// domain with its edges over-drawn, and about one row in eight without an
// ordinal (the width's top value).
template <typename T>
std::vector<T> RandomOrdinals(Rng* rng, int64_t rows, int64_t size) {
  constexpr T kNone = std::numeric_limits<T>::max();
  std::vector<T> out(static_cast<size_t>(rows));
  for (auto& v : out) {
    switch (rng->UniformInt(0, 7)) {
      case 0:
        v = kNone;
        break;
      case 1:
        v = 0;
        break;
      case 2:
        v = static_cast<T>(size - 1);
        break;
      default:
        v = static_cast<T>(rng->UniformInt(0, size - 1));
    }
  }
  return out;
}

// Every nbits from 1 to 64 at unaligned bases, over one to three columns of
// one width, against the reference and, when the host has AVX2, the scalar
// kernel. Each case's columns are copied to arrays that end exactly at row
// base + nbits, so a read past it is a heap overflow under ASan.
template <typename T>
void CheckOrdinalRangeMask(const EngineKernels& kern, Rng* rng) {
  const int64_t size = sizeof(T) == 1 ? 255 : 65535;  // the widest domains
  for (int nbits = 1; nbits <= 64; ++nbits) {
    for (const int64_t base : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{33},
                               int64_t{64}, int64_t{131}}) {
      const int64_t rows = base + nbits;
      const size_t num_columns = static_cast<size_t>(rng->UniformInt(1, 3));
      std::vector<std::vector<T>> columns;
      std::vector<std::pair<uint32_t, uint32_t>> bounds;
      for (size_t k = 0; k < num_columns; ++k) {
        columns.push_back(RandomOrdinals<T>(rng, rows, size));
        const uint32_t top = static_cast<uint32_t>(size - 1);
        switch (rng->UniformInt(0, 4)) {
          case 0:  // the whole domain: only rows without an ordinal fail
            bounds.emplace_back(0, top);
            break;
          case 1:  // one domain edge
            bounds.emplace_back(rng->UniformInt(0, 1) == 0
                                    ? std::make_pair(0u, 0u)
                                    : std::make_pair(top, top));
            break;
          case 2:  // empty
            bounds.emplace_back(1, 0);
            break;
          default: {
            const uint32_t lo = static_cast<uint32_t>(rng->UniformInt(0, top));
            bounds.emplace_back(
                lo, static_cast<uint32_t>(rng->UniformInt(lo, top)));
          }
        }
      }
      std::vector<exec::kernels::OrdinalRange> ranges;
      for (size_t k = 0; k < num_columns; ++k) {
        ranges.push_back({columns[k].data(), static_cast<int>(sizeof(T)),
                          bounds[k].first, bounds[k].second});
      }
      const uint64_t want = ReferenceRangeMask(columns, bounds, base, nbits);
      const uint64_t got =
          kern.ordinal_range_mask(ranges.data(), ranges.size(), base, nbits);
      ASSERT_EQ(got, want) << kern.name << " width=" << sizeof(T)
                           << " base=" << base << " nbits=" << nbits;
      if (nbits < 64) {
        ASSERT_EQ(got >> nbits, 0u) << kern.name;
      }
    }
  }
}

TEST(KernelsTest, OrdinalRangeMaskMatchesReference) {
  Rng rng(29);
  for (const EngineKernels* kern : {&ScalarKernels(), Avx2KernelsOrNull()}) {
    if (kern == nullptr) continue;
    CheckOrdinalRangeMask<uint8_t>(*kern, &rng);
    CheckOrdinalRangeMask<uint16_t>(*kern, &rng);
    // No ranges: every row of the chunk passes.
    EXPECT_EQ(kern->ordinal_range_mask(nullptr, 0, 5, 64), ~uint64_t{0});
    EXPECT_EQ(kern->ordinal_range_mask(nullptr, 0, 5, 3), uint64_t{7});
  }
}

TEST(KernelsTest, OrdinalRangeMaskScalarVsAvx2BitIdentical) {
  const EngineKernels* avx2 = Avx2KernelsOrNull();
  if (avx2 == nullptr) GTEST_SKIP() << "host has no AVX2";
  Rng rng(41);
  for (int trial = 0; trial < 400; ++trial) {
    const int64_t rows = rng.UniformInt(64, 300);
    // Mixed widths in one call, as a sweep over dimensions of both kinds.
    // The vectors are reserved, so the ranges' pointers stay valid.
    std::vector<std::vector<uint8_t>> narrow;
    std::vector<std::vector<uint16_t>> wide;
    narrow.reserve(4);
    wide.reserve(4);
    std::vector<exec::kernels::OrdinalRange> ranges;
    const int num_ranges = static_cast<int>(rng.UniformInt(1, 4));
    for (int k = 0; k < num_ranges; ++k) {
      const bool is_wide = rng.UniformInt(0, 1) == 1;
      const int64_t size =
          is_wide ? rng.UniformInt(256, 65535) : rng.UniformInt(1, 255);
      const void* data;
      if (is_wide) {
        wide.push_back(RandomOrdinals<uint16_t>(&rng, rows, size));
        data = wide.back().data();
      } else {
        narrow.push_back(RandomOrdinals<uint8_t>(&rng, rows, size));
        data = narrow.back().data();
      }
      uint32_t lo = 1, hi = 0;  // empty one time in ten
      if (rng.UniformInt(0, 9) != 0) {
        lo = static_cast<uint32_t>(rng.UniformInt(0, size - 1));
        hi = static_cast<uint32_t>(rng.UniformInt(lo, size - 1));
      }
      ranges.push_back({data, is_wide ? 2 : 1, lo, hi});
    }
    const int nbits = static_cast<int>(rng.UniformInt(1, 64));
    const int64_t base = rng.UniformInt(0, rows - nbits);
    const uint64_t a = ScalarKernels().ordinal_range_mask(
        ranges.data(), ranges.size(), base, nbits);
    const uint64_t b =
        avx2->ordinal_range_mask(ranges.data(), ranges.size(), base, nbits);
    ASSERT_EQ(a, b) << "trial " << trial << " base=" << base
                    << " nbits=" << nbits;
  }
}

// ---------------------------------------------------------------------------
// sum_span
// ---------------------------------------------------------------------------

TEST(KernelsTest, SumSpanPinsFourLaneAssociation) {
  // The contract fixes lane j = elements j, j+4, ..., combined as
  // (l0+l1)+(l2+l3) — verify the scalar kernel against that formula exactly.
  Rng rng(31);
  for (const int64_t n : {0, 1, 2, 3, 4, 5, 7, 8, 43, 64, 100, 1000}) {
    std::vector<double> w(static_cast<size_t>(n));
    for (auto& x : w) x = rng.Uniform(-1e6, 1e6);
    double lanes[4] = {0, 0, 0, 0};
    for (int64_t i = 0; i < n; ++i) lanes[i & 3] += w[static_cast<size_t>(i)];
    const double want = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    EXPECT_EQ(ScalarKernels().sum_span(w.data(), n), want) << "n=" << n;
  }
}

TEST(KernelsTest, SumSpanScalarVsAvx2BitIdentical) {
  const EngineKernels* avx2 = Avx2KernelsOrNull();
  if (avx2 == nullptr) GTEST_SKIP() << "host has no AVX2";
  Rng rng(37);
  for (int trial = 0; trial < 100; ++trial) {
    const int64_t n = rng.UniformInt(0, 300);
    std::vector<double> w(static_cast<size_t>(n));
    for (auto& x : w) {
      // Wildly mixed magnitudes make the sum order-sensitive, so agreement
      // here is evidence of identical association, not luck. A NaN poisons
      // both sides identically (compared by bit pattern below).
      x = rng.Uniform(-1.0, 1.0) * std::pow(10.0, rng.UniformInt(-12, 12));
    }
    if (n > 0 && trial % 10 == 0) {
      w[static_cast<size_t>(rng.UniformInt(0, n - 1))] =
          std::numeric_limits<double>::quiet_NaN();
    }
    const double a = ScalarKernels().sum_span(w.data(), n);
    const double b = avx2->sum_span(w.data(), n);
    uint64_t abits, bbits;
    std::memcpy(&abits, &a, sizeof(a));
    std::memcpy(&bbits, &b, sizeof(b));
    ASSERT_EQ(abits, bbits) << "trial " << trial << " n=" << n;
  }
}

// ---------------------------------------------------------------------------
// dispatch plumbing + end-to-end bit identity
// ---------------------------------------------------------------------------

TEST(KernelsTest, OverrideInstallsAndRestores) {
  const EngineKernels& before = ActiveKernels();
  {
    ScopedKernelOverride force_scalar(&ScalarKernels());
    EXPECT_STREQ(ActiveKernels().name, "scalar");
    if (const EngineKernels* avx2 = Avx2KernelsOrNull()) {
      ScopedKernelOverride nested(avx2);
      EXPECT_STREQ(ActiveKernels().name, "avx2");
    }
    EXPECT_STREQ(ActiveKernels().name, "scalar");
  }
  EXPECT_EQ(&ActiveKernels(), &before);
}

TEST(KernelsTest, DetectedCpuIsSane) {
  const CpuInfo& cpu = HostCpu();
  EXPECT_GE(cpu.cores, 1);
  EXPECT_GE(cpu.cache_line_bytes, 16);
  // The AVX2 table must exist exactly when detection says the host has AVX2.
  EXPECT_EQ(Avx2KernelsOrNull() != nullptr, cpu.avx2);
}

// Executes a grouped SUM and a scalar COUNT through the full plan path — over
// the fact rows and over the plan's cells — under each kernel table and
// requires bit-identical QueryResults: the end-to-end form of the contract
// the micro tests check per kernel.
TEST(KernelsTest, ExecutorResultsBitIdenticalAcrossKernelTables) {
  const EngineKernels* avx2 = Avx2KernelsOrNull();
  if (avx2 == nullptr) GTEST_SKIP() << "host has no AVX2";

  const storage::Catalog catalog =
      MakeMediumCatalog(/*fact_rows=*/7777, /*seed=*/99);
  query::Binder binder(&catalog);
  for (const bool grouped : {false, true}) {
    for (const bool cells : {false, true}) {
      query::StarJoinQuery q = MakeMediumQuery(grouped);
      auto bound = binder.Bind(q);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      exec::PlanColumnStore columns;
      auto plan = exec::ScanPlan::Compile(*bound, columns);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      if (cells) {
        plan = exec::ScanPlan::WithCells(
            *plan, *bound, exec::ScanPlan::CellLimit(plan->fact_rows()));
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      }

      exec::ExecutorOptions options;
      options.morsel_size = 1013;  // prime: plenty of ragged chunk tails
      exec::StarJoinExecutor executor(options);

      auto run = [&](const EngineKernels* kern) {
        ScopedKernelOverride override_kernels(kern);
        return executor.Execute(*bound, {}, *plan);
      };
      auto scalar_result = run(&ScalarKernels());
      auto avx2_result = run(avx2);
      ASSERT_TRUE(scalar_result.ok()) << scalar_result.status().ToString();
      ASSERT_TRUE(avx2_result.ok()) << avx2_result.status().ToString();

      const std::string what =
          Format("grouped=%d cells=%d", grouped ? 1 : 0, cells ? 1 : 0);
      EXPECT_EQ(scalar_result->grouped, avx2_result->grouped) << what;
      EXPECT_EQ(scalar_result->scalar, avx2_result->scalar) << what;
      ASSERT_EQ(scalar_result->groups.size(), avx2_result->groups.size());
      auto it_a = scalar_result->groups.begin();
      auto it_b = avx2_result->groups.begin();
      for (; it_a != scalar_result->groups.end(); ++it_a, ++it_b) {
        EXPECT_EQ(it_a->first, it_b->first) << what;
        EXPECT_EQ(it_a->second, it_b->second) << what << " group " << it_a->first;
      }
    }
  }
}

}  // namespace
}  // namespace dpstarj
