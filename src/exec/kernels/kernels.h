// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// Runtime-dispatched SIMD kernels for the engine's four hot loops:
//
//   range_bitmap_and      predicate compare → 64-bit bitmap pack over a
//                         memoized domain-ordinal span (scan_plan.cc,
//                         BuildPassBitmap);
//   ordinal_range_mask    the fact-row sweep's verdict for dimensions whose
//                         predicates all have a fact-aligned ordinal column
//                         (exec/scan_plan.h OrdinalColumn): for ≤ 64 rows,
//                         compare each column's narrow ordinals against its
//                         [lo, hi] and AND the bits into one mask word;
//   pass_mask             the verdict gather of every other dimension and of
//                         cell sweeps: for ≤ 64 units, gather each
//                         dimension's resolved row (or class) into its
//                         predicate bitmap and AND the bits into one mask
//                         word (star_join_executor.cc sweeps);
//   sum_span              contiguous double accumulation in a FIXED four-lane
//                         split (see below), used for the all-pass chunks of
//                         every fact sweep (SumChunk; 32-byte-wide loads over
//                         the plan's weight spans).
//
// Dispatch is decided ONCE at startup from CPUID (common/cpu.h): AVX2 when
// the host executes it, the portable scalar implementations otherwise.
// DPSTARJ_FORCE_SCALAR=1 in the environment forces the scalar table (the CI
// forced-scalar jobs run the whole suite this way), and tests can inject
// either table with ScopedKernelOverride.
//
// Equivalence contract: for identical inputs, the scalar and AVX2
// implementations of every kernel return BYTE-IDENTICAL results — bitmap
// kernels are exact by construction, and sum_span pins the floating-point
// association order to a four-lane split (lane j accumulates elements
// j, j+4, j+8, ..., lanes combine as (l0+l1)+(l2+l3)) that both
// implementations follow instruction-for-instruction. A query answer
// therefore never depends on the ISA the host happens to have
// (tests/kernels_test.cc fuzzes this contract).

#pragma once

#include <cstddef>
#include <cstdint>

namespace dpstarj::exec::kernels {

/// \brief One range test of ordinal_range_mask: row r passes when
/// lo ≤ ordinals[r] ≤ hi, where `ordinals` is a fact-aligned column of
/// `width`-byte unsigned entries (1: uint8_t, 2: uint16_t). lo and hi fit
/// the width; lo > hi passes nothing.
struct OrdinalRange {
  const void* ordinals;
  int width;
  uint32_t lo;
  uint32_t hi;
};

struct EngineKernels {
  /// "scalar" or "avx2" — surfaced in bench host fields and /metrics-adjacent
  /// diagnostics.
  const char* name;

  /// ANDs (or stores, when `first`) the packed compare bits of
  /// `ordinals[r] ∈ [lo, hi]` for r in [0, rows) into `words`. Bits at and
  /// past `rows` (the absent-FK sentinel and the tail) are left untouched on
  /// AND and stored as 0 on first store, so callers' sentinel-bit invariant
  /// holds.
  void (*range_bitmap_and)(const int64_t* ordinals, int64_t rows, int64_t lo,
                           int64_t hi, bool first, uint64_t* words);

  /// Pass mask of rows [base, base + nbits), nbits ≤ 64: bit i =
  /// AND over d of bitmap_words[d] bit dim_rows[d][base + i]. Absent FKs
  /// resolve to the sentinel row, whose bitmap bit is always 0. Bits ≥ nbits
  /// are 0.
  uint64_t (*pass_mask)(const int32_t* const* dim_rows,
                        const uint64_t* const* bitmap_words, size_t num_dims,
                        int64_t base, int nbits);

  /// Pass mask of rows [base, base + nbits), nbits ≤ 64: bit i = AND over
  /// the `num_ranges` ranges of their test on row base + i (all set when
  /// there are none). Reads no row at or past base + nbits. Bits ≥ nbits
  /// are 0.
  uint64_t (*ordinal_range_mask)(const OrdinalRange* ranges,
                                 size_t num_ranges, int64_t base, int nbits);

  /// Sum of w[0..n) in the fixed four-lane association order documented
  /// above. NOT sequential-order addition: both implementations reassociate
  /// identically, so the result is ISA-independent (and differs from a naive
  /// running sum only by normal floating-point rounding).
  double (*sum_span)(const double* w, int64_t n);
};

/// The portable reference implementations (always available).
const EngineKernels& ScalarKernels();

/// The AVX2 implementations, or nullptr when the build target or the host
/// CPU cannot execute them.
const EngineKernels* Avx2KernelsOrNull();

/// \brief The table the engine dispatches through, chosen once: a test
/// override if active, else scalar when DPSTARJ_FORCE_SCALAR=1 was set at
/// first use, else AVX2 when the host supports it, else scalar. Callers
/// hoist the reference out of their loops; the indirect call is per-chunk,
/// not per-row.
const EngineKernels& ActiveKernels();

/// \brief RAII kernel-table injection for tests (not thread-safe against
/// concurrent scans — install before spawning work). Passing nullptr
/// restores normal dispatch for the scope instead of overriding.
class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(const EngineKernels* kernels);
  ~ScopedKernelOverride();

  ScopedKernelOverride(const ScopedKernelOverride&) = delete;
  ScopedKernelOverride& operator=(const ScopedKernelOverride&) = delete;

 private:
  const EngineKernels* previous_;
};

/// \brief Sums the weights of `mask`'s set bits in ascending bit order:
/// the sparse-mask companion of sum_span, shared by all callers (kept
/// scalar — extraction order, not arithmetic, dominates sparse chunks).
inline double SumMaskedAscending(const double* w, int64_t base, uint64_t mask) {
  double sum = 0.0;
  while (mask != 0) {
    const int bit = __builtin_ctzll(mask);
    mask &= mask - 1;
    sum += w[base + bit];
  }
  return sum;
}

/// \brief The sum of one ≤ 64-row chunk's passing weights, rows
/// [base, base + nbits) with `mask` set: sum_span's four-lane split when
/// every row passes, SumMaskedAscending otherwise. Every fact sweep sums its
/// chunks through this one association.
inline double SumChunk(const EngineKernels& kern, const double* w, int64_t base,
                       int nbits, uint64_t mask) {
  const uint64_t all = nbits == 64 ? ~uint64_t{0} : (uint64_t{1} << nbits) - 1;
  return mask == all ? kern.sum_span(w + base, nbits)
                     : SumMaskedAscending(w, base, mask);
}

}  // namespace dpstarj::exec::kernels
