// Small helpers shared by the perfbench driver: clocks, order statistics,
// a 64-bit mixer for index-addressed generation, and the FNV-1a input hash.

#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline uint64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// CPU time of the calling thread, or of the whole process, in seconds.
inline double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
inline double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }
inline double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; NaN
/// when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// splitmix64 finalizer: decorrelates (seed, index) pairs so request i of a
/// workload is a pure function of the seed and i.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
inline uint64_t Mix64(uint64_t a, uint64_t b) { return Mix64(Mix64(a) ^ b); }

/// FNV-1a over a byte string, chained through `h`.
inline uint64_t Fnv1a(const std::string& bytes, uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
