#include "exec/kernels/kernels.h"

#include <atomic>
#include <cstdlib>

#include "common/cpu.h"

namespace dpstarj::exec::kernels {

namespace scalar {

void RangeBitmapAnd(const int64_t* ordinals, int64_t rows, int64_t lo,
                    int64_t hi, bool first, uint64_t* words) {
  const int64_t full_words = rows >> 6;
  for (int64_t wi = 0; wi < full_words; ++wi) {
    const int64_t* o = ordinals + (wi << 6);
    uint64_t bits = 0;
    for (int i = 0; i < 64; ++i) {
      bits |= static_cast<uint64_t>((o[i] >= lo) & (o[i] <= hi))
              << static_cast<unsigned>(i);
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

uint64_t PassMask(const int32_t* const* dim_rows,
                  const uint64_t* const* bitmap_words, size_t num_dims,
                  int64_t base, int nbits) {
  uint64_t mask = 0;
  for (int i = 0; i < nbits; ++i) {
    uint64_t ok = 1;
    for (size_t d = 0; d < num_dims; ++d) {
      const int32_t dr = dim_rows[d][base + i];
      ok &= bitmap_words[d][dr >> 6] >> (dr & 63);
    }
    mask |= (ok & 1) << static_cast<unsigned>(i);
  }
  return mask;
}

template <typename T>
uint64_t RangeBits(const T* o, uint32_t lo, uint32_t hi, int nbits) {
  uint64_t bits = 0;
  for (int i = 0; i < nbits; ++i) {
    const uint32_t v = o[i];
    bits |= static_cast<uint64_t>((v >= lo) & (v <= hi))
            << static_cast<unsigned>(i);
  }
  return bits;
}

uint64_t OrdinalRangeMask(const OrdinalRange* ranges, size_t num_ranges,
                          int64_t base, int nbits) {
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

double SumSpan(const double* w, int64_t n) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lanes[0] += w[i];
    lanes[1] += w[i + 1];
    lanes[2] += w[i + 2];
    lanes[3] += w[i + 3];
  }
  for (int r = 0; i < n; ++i, ++r) lanes[r] += w[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace scalar

const EngineKernels& ScalarKernels() {
  static const EngineKernels kernels = {
      "scalar", scalar::RangeBitmapAnd, scalar::PassMask,
      scalar::OrdinalRangeMask, scalar::SumSpan,
  };
  return kernels;
}

namespace {

std::atomic<const EngineKernels*> g_override{nullptr};

const EngineKernels* ChooseStartupKernels() {
  const char* force = std::getenv("DPSTARJ_FORCE_SCALAR");
  if (force != nullptr && force[0] == '1') return &ScalarKernels();
  const EngineKernels* avx2 = Avx2KernelsOrNull();
  return avx2 != nullptr ? avx2 : &ScalarKernels();
}

}  // namespace

const EngineKernels& ActiveKernels() {
  const EngineKernels* injected = g_override.load(std::memory_order_acquire);
  if (injected != nullptr) return *injected;
  static const EngineKernels* chosen = ChooseStartupKernels();
  return *chosen;
}

ScopedKernelOverride::ScopedKernelOverride(const EngineKernels* kernels)
    : previous_(g_override.exchange(kernels, std::memory_order_acq_rel)) {}

ScopedKernelOverride::~ScopedKernelOverride() {
  g_override.store(previous_, std::memory_order_release);
}

}  // namespace dpstarj::exec::kernels
