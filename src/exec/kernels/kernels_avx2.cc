// AVX2 implementations of the engine kernels (see kernels.h for the
// contract). Every function carries the `target("avx2")` attribute instead
// of the whole TU being compiled with -mavx2: the binary stays runnable on
// any x86-64 host, and these bodies are only reachable through the dispatch
// table, which consults CPUID (common/cpu.h) before handing them out.

#include "exec/kernels/kernels.h"

#include "common/cpu.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DPSTARJ_HAVE_AVX2_BUILD 1
#include <immintrin.h>
#endif

namespace dpstarj::exec::kernels {

#ifdef DPSTARJ_HAVE_AVX2_BUILD

namespace avx2 {

__attribute__((target("avx2"))) void RangeBitmapAnd(const int64_t* ordinals,
                                                    int64_t rows, int64_t lo,
                                                    int64_t hi, bool first,
                                                    uint64_t* words) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  const int64_t full_words = rows >> 6;
  for (int64_t wi = 0; wi < full_words; ++wi) {
    const int64_t* o = ordinals + (wi << 6);
    uint64_t bits = 0;
    for (int v = 0; v < 16; ++v) {
      const __m256i vo =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(o + 4 * v));
      // out-of-range = (lo > o) | (o > hi); the pass bits are its complement.
      const __m256i bad = _mm256_or_si256(_mm256_cmpgt_epi64(vlo, vo),
                                          _mm256_cmpgt_epi64(vo, vhi));
      const unsigned b4 = static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_castsi256_pd(bad)));
      bits |= static_cast<uint64_t>(~b4 & 0xFu) << static_cast<unsigned>(4 * v);
    }
    if (first) {
      words[wi] = bits;
    } else {
      words[wi] &= bits;
    }
  }
  const int tail = static_cast<int>(rows & 63);
  if (tail > 0) {
    const int64_t* o = ordinals + (full_words << 6);
    uint64_t bits = 0;
    for (int i = 0; i < tail; ++i) {
      bits |= static_cast<uint64_t>((o[i] >= lo) & (o[i] <= hi))
              << static_cast<unsigned>(i);
    }
    if (first) {
      words[full_words] = bits;
    } else {
      words[full_words] &= bits | (~uint64_t{0} << tail);
    }
  }
}

__attribute__((target("avx2"))) uint64_t PassMask(
    const int32_t* const* dim_rows, const uint64_t* const* bitmap_words,
    size_t num_dims, int64_t base, int nbits) {
  uint64_t mask = 0;
  const __m256i v31 = _mm256_set1_epi32(31);
  int i = 0;
  for (; i + 8 <= nbits; i += 8) {
    __m256i ok = _mm256_set1_epi32(-1);
    for (size_t d = 0; d < num_dims; ++d) {
      const __m256i rows = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(dim_rows[d] + base + i));
      // The uint64 bitmap reads as uint32 words on little-endian: word
      // dr >> 5, bit dr & 31 — a 32-bit gather per dimension per 8 rows.
      const __m256i w = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(bitmap_words[d]),
          _mm256_srli_epi32(rows, 5), 4);
      ok = _mm256_and_si256(ok,
                            _mm256_srlv_epi32(w, _mm256_and_si256(rows, v31)));
    }
    const unsigned m8 = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_slli_epi32(ok, 31))));
    mask |= static_cast<uint64_t>(m8) << static_cast<unsigned>(i);
  }
  for (; i < nbits; ++i) {
    uint64_t ok = 1;
    for (size_t d = 0; d < num_dims; ++d) {
      const int32_t dr = dim_rows[d][base + i];
      ok &= bitmap_words[d][dr >> 6] >> (dr & 63);
    }
    mask |= (ok & 1) << static_cast<unsigned>(i);
  }
  return mask;
}

// Pass bits of 32 rows: v ∈ [lo, hi] ⇔ max(v, lo) == v && min(v, hi) == v,
// unsigned. Sixteen-bit lanes are packed to bytes (0 or -1 saturate
// exactly), and the pack's lane interleave is undone before the movemask.
__attribute__((target("avx2"))) inline uint32_t InRange32(const uint8_t* o,
                                                          __m256i vlo,
                                                          __m256i vhi) {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(o));
  const __m256i ok =
      _mm256_and_si256(_mm256_cmpeq_epi8(_mm256_max_epu8(v, vlo), v),
                       _mm256_cmpeq_epi8(_mm256_min_epu8(v, vhi), v));
  return static_cast<uint32_t>(_mm256_movemask_epi8(ok));
}

__attribute__((target("avx2"))) inline uint32_t InRange32(const uint16_t* o,
                                                          __m256i vlo,
                                                          __m256i vhi) {
  const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(o));
  const __m256i b =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(o + 16));
  const __m256i ok_a =
      _mm256_and_si256(_mm256_cmpeq_epi16(_mm256_max_epu16(a, vlo), a),
                       _mm256_cmpeq_epi16(_mm256_min_epu16(a, vhi), a));
  const __m256i ok_b =
      _mm256_and_si256(_mm256_cmpeq_epi16(_mm256_max_epu16(b, vlo), b),
                       _mm256_cmpeq_epi16(_mm256_min_epu16(b, vhi), b));
  // packs gives quarters (a0-7, b0-7, a8-15, b8-15); 0xD8 orders them
  // (a0-7, a8-15, b0-7, b8-15).
  const __m256i packed =
      _mm256_permute4x64_epi64(_mm256_packs_epi16(ok_a, ok_b), 0xD8);
  return static_cast<uint32_t>(_mm256_movemask_epi8(packed));
}

template <typename T>
__attribute__((target("avx2"))) uint64_t RangeBits(const T* o, uint32_t lo,
                                                   uint32_t hi, int nbits) {
  __m256i vlo, vhi;
  if (sizeof(T) == 1) {
    vlo = _mm256_set1_epi8(static_cast<char>(lo));
    vhi = _mm256_set1_epi8(static_cast<char>(hi));
  } else {
    vlo = _mm256_set1_epi16(static_cast<int16_t>(lo));
    vhi = _mm256_set1_epi16(static_cast<int16_t>(hi));
  }
  uint64_t bits = 0;
  int i = 0;
  for (; i + 32 <= nbits; i += 32) {
    bits |= static_cast<uint64_t>(InRange32(o + i, vlo, vhi))
            << static_cast<unsigned>(i);
  }
  for (; i < nbits; ++i) {
    const uint32_t v = o[i];
    bits |= static_cast<uint64_t>((v >= lo) & (v <= hi))
            << static_cast<unsigned>(i);
  }
  return bits;
}

__attribute__((target("avx2"))) uint64_t OrdinalRangeMask(
    const OrdinalRange* ranges, size_t num_ranges, int64_t base, int nbits) {
  uint64_t mask = nbits == 64 ? ~uint64_t{0} : (uint64_t{1} << nbits) - 1;
  for (size_t k = 0; k < num_ranges && mask != 0; ++k) {
    const OrdinalRange& r = ranges[k];
    mask &= r.width == 1
                ? RangeBits(static_cast<const uint8_t*>(r.ordinals) + base,
                            r.lo, r.hi, nbits)
                : RangeBits(static_cast<const uint16_t*>(r.ordinals) + base,
                            r.lo, r.hi, nbits);
  }
  return mask;
}

__attribute__((target("avx2"))) double SumSpan(const double* w, int64_t n) {
  // Lane j of `acc` sees exactly the elements scalar::SumSpan's lanes[j]
  // sees, in the same order — vaddpd is lane-wise, so the two agree
  // bit-for-bit (the kernels.h equivalence contract).
  __m256d acc = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(w + i));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  for (int r = 0; i < n; ++i, ++r) lanes[r] += w[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace avx2

const EngineKernels* Avx2KernelsOrNull() {
  if (!HostCpu().avx2) return nullptr;
  static const EngineKernels kernels = {
      "avx2", avx2::RangeBitmapAnd, avx2::PassMask, avx2::OrdinalRangeMask,
      avx2::SumSpan,
  };
  return &kernels;
}

#else  // !DPSTARJ_HAVE_AVX2_BUILD

const EngineKernels* Avx2KernelsOrNull() { return nullptr; }

#endif

}  // namespace dpstarj::exec::kernels
