#include "obs/prof/sampler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <cxxabi.h>
#include <dlfcn.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>
#endif

namespace dpstarj::obs::prof {

#if defined(__linux__)

namespace {

constexpr int kMaxFrames = 48;
constexpr size_t kMaxSlots = 32768;
constexpr uintptr_t kMaxFrameStride = uintptr_t{8} << 20;  // 8 MiB stack cap

struct Slot {
  std::atomic<uint32_t> ready{0};
  uint32_t depth = 0;
  char thread_name[16] = {};
  uintptr_t frames[kMaxFrames] = {};
};

// Capture state shared with the signal handler. The slot array only grows
// (never freed, never shrunk) and is only (re)pointed while no capture is
// active and no handler is in flight, so a straggler signal can at worst
// observe g_active == false and return.
Slot* g_slots = nullptr;
size_t g_slot_count = 0;
std::atomic<size_t> g_next{0};
std::atomic<size_t> g_capacity{0};
std::atomic<uint64_t> g_dropped{0};
std::atomic<bool> g_active{false};
std::atomic<int> g_in_handler{0};
std::atomic<bool> g_running{false};
size_t g_page_size = 4096;
std::once_flag g_install_once;

// True when [addr, addr+len) lies in mapped pages. mincore() is a plain
// syscall (async-signal-safe in practice) and returns ENOMEM for unmapped
// ranges — the probe that lets the walker chase a garbage frame pointer
// without faulting.
bool AddrMapped(uintptr_t addr, size_t len) {
  const uintptr_t page = addr & ~(static_cast<uintptr_t>(g_page_size) - 1);
  const size_t span = (addr + len) - page;
  unsigned char vec[4];
  if (span > sizeof(vec) * g_page_size) return false;
  return mincore(reinterpret_cast<void*>(page), span, vec) == 0;
}

// Loads the frame record {caller's fp, return address} at `fp`. The walk
// follows whatever frame pointer the interrupted code left behind, and
// AddrMapped only proves the pages are mapped, not that the bytes belong to
// a live object: under AddressSanitizer an interrupted rbp can point into a
// redzone. These two loads are therefore exempt from ASan instrumentation,
// and kept out of line so the exemption cannot be inlined away.
__attribute__((no_sanitize("address"), noinline)) void LoadFrameRecord(
    uintptr_t fp, uintptr_t* next_fp, uintptr_t* ret) {
  *next_fp = *reinterpret_cast<const uintptr_t*>(fp);
  *ret = *(reinterpret_cast<const uintptr_t*>(fp) + 1);
}

void SigprofHandler(int, siginfo_t*, void* ucontext) {
  const int saved_errno = errno;  // handlers must not spoil errno
  g_in_handler.fetch_add(1, std::memory_order_acq_rel);
  if (g_active.load(std::memory_order_acquire)) {
    const size_t idx = g_next.fetch_add(1, std::memory_order_relaxed);
    if (idx >= g_capacity.load(std::memory_order_relaxed)) {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      Slot& slot = g_slots[idx];
      (void)prctl(PR_GET_NAME, reinterpret_cast<unsigned long>(slot.thread_name),
                  0, 0, 0);
      slot.thread_name[sizeof(slot.thread_name) - 1] = '\0';
      const auto* uc = static_cast<const ucontext_t*>(ucontext);
      uintptr_t pc = 0, fp = 0, sp = 0;
#if defined(__x86_64__)
      pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
      fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
      sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
      pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
      fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
      sp = static_cast<uintptr_t>(uc->uc_mcontext.sp);
#endif
      uint32_t n = 0;
      if (pc != 0) slot.frames[n++] = pc;
      // Frame-pointer chain: each record is {caller's fp, return address}
      // on both x86-64 (rbp) and AArch64 (x29). Monotonically increasing
      // fp with a sane stride is required, so a corrupt chain terminates
      // instead of looping. Records lie on the interrupted stack, within
      // the stack cap above its pointer: code built without frame pointers
      // uses the register for data, which can point into memory that is
      // mapped but unreadable (a guard page, or AddressSanitizer's shadow
      // gap) and so passes AddrMapped.
      while (n < kMaxFrames) {
        if (fp == 0 || (fp % sizeof(uintptr_t)) != 0) break;
        if (fp < sp || fp - sp > kMaxFrameStride) break;
        if (!AddrMapped(fp, 2 * sizeof(uintptr_t))) break;
        uintptr_t next_fp = 0;
        uintptr_t ret = 0;
        LoadFrameRecord(fp, &next_fp, &ret);
        if (ret < 0x1000) break;
        slot.frames[n++] = ret;
        if (next_fp <= fp || next_fp - fp > kMaxFrameStride) break;
        fp = next_fp;
      }
      slot.depth = n;
      slot.ready.store(1, std::memory_order_release);
    }
  }
  g_in_handler.fetch_sub(1, std::memory_order_release);
  errno = saved_errno;
}

void InstallHandler() {
  g_page_size = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  if (g_page_size == 0 || (g_page_size & (g_page_size - 1)) != 0) {
    g_page_size = 4096;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = SigprofHandler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  (void)sigaction(SIGPROF, &sa, nullptr);
  // Never restored: the handler is one atomic load when inactive, and a
  // SIGPROF in flight at window close against SIG_DFL would kill the process.
}

// Waits (bounded) until no thread is inside the handler; after this, no
// handler can touch the slots of the window that just closed because
// g_active is already false.
void DrainHandlers() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (g_in_handler.load(std::memory_order_acquire) != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

// Symbol for one address, memoized. Return addresses point one byte past the
// call, so callers pass addr-1 to land inside the calling function. dladdr
// covers shared objects always and the main binary when linked -rdynamic;
// everything else renders as a raw hex frame.
const std::string& SymbolFor(uintptr_t addr,
                             std::map<uintptr_t, std::string>* cache) {
  auto it = cache->find(addr);
  if (it != cache->end()) return it->second;
  std::string name;
  Dl_info info;
  if (dladdr(reinterpret_cast<void*>(addr), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
    std::free(demangled);
    // ';' is the folded-stack frame separator; a frame containing one would
    // corrupt the flamegraph. (Demangled names never contain newlines.)
    std::replace(name.begin(), name.end(), ';', ':');
  } else {
    char buf[2 + sizeof(uintptr_t) * 2 + 1];
    std::snprintf(buf, sizeof(buf), "0x%zx", static_cast<size_t>(addr));
    name = buf;
  }
  return cache->emplace(addr, std::move(name)).first->second;
}

}  // namespace

Sampler& Sampler::Global() {
  static Sampler* sampler = new Sampler();  // leaked: outlives static dtors
  return *sampler;
}

bool Sampler::running() const {
  return g_running.load(std::memory_order_acquire);
}

Result<Sampler::Profile> Sampler::Run(double seconds, int hz) {
  if (!std::isfinite(seconds) || seconds <= 0.0 || seconds > 30.0) {
    return Status::InvalidArgument("seconds must be in (0, 30]");
  }
  if (hz < 1 || hz > 1000) {
    return Status::InvalidArgument("hz must be in [1, 1000]");
  }
  bool expected = false;
  if (!g_running.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return Status::AlreadyExists(
        "a profile capture is already running; retry after it completes");
  }
  struct RunningGuard {
    ~RunningGuard() { g_running.store(false, std::memory_order_release); }
  } running_guard;

  std::call_once(g_install_once, InstallHandler);

  // Size the buffer to the request: hz counts CPU-seconds, so a heavily
  // threaded process can deliver many times hz*seconds samples in the wall
  // window; x16 headroom covers 16 busy cores before drops start.
  const size_t want = static_cast<size_t>(
      std::min<double>(static_cast<double>(kMaxSlots),
                       seconds * static_cast<double>(hz) * 16.0 + 256.0));
  DrainHandlers();  // stragglers from a previous window, before re-pointing
  if (g_slot_count < want) {
    Slot* grown = new Slot[want];
    delete[] g_slots;  // no handler can hold this: g_active is false, drained
    g_slots = grown;
    g_slot_count = want;
  }
  for (size_t i = 0; i < want; ++i) {
    g_slots[i].ready.store(0, std::memory_order_relaxed);
    g_slots[i].depth = 0;
  }
  g_next.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_capacity.store(want, std::memory_order_relaxed);
  g_active.store(true, std::memory_order_release);

  itimerval timer;
  const long interval_us = std::max(1000000L / hz, 1L);
  timer.it_interval.tv_sec = interval_us / 1000000;
  timer.it_interval.tv_usec = interval_us % 1000000;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    g_active.store(false, std::memory_order_release);
    return Status::Internal("setitimer(ITIMER_PROF) failed");
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));

  itimerval off = {};
  (void)setitimer(ITIMER_PROF, &off, nullptr);
  g_active.store(false, std::memory_order_release);
  DrainHandlers();

  // Aggregate: fold identical stacks, then symbolize each distinct address
  // once. Stacks are captured innermost-first; folded output is root-first
  // with the thread name as the root frame.
  Profile profile;
  profile.dropped = g_dropped.load(std::memory_order_relaxed);
  const size_t claimed =
      std::min(g_next.load(std::memory_order_relaxed), want);
  std::map<uintptr_t, std::string> symbols;
  std::map<std::string, uint64_t> folded;
  for (size_t i = 0; i < claimed; ++i) {
    const Slot& slot = g_slots[i];
    if (slot.ready.load(std::memory_order_acquire) == 0) continue;
    ++profile.samples;
    std::string stack(slot.thread_name[0] != '\0' ? slot.thread_name : "?");
    for (uint32_t f = slot.depth; f-- > 0;) {
      // Return addresses (every frame but the innermost) resolve at addr-1,
      // inside the call instruction.
      const uintptr_t addr = f == 0 ? slot.frames[f] : slot.frames[f] - 1;
      stack += ';';
      stack += SymbolFor(addr, &symbols);
    }
    ++folded[stack];
  }
  std::vector<std::pair<std::string, uint64_t>> lines(folded.begin(),
                                                      folded.end());
  std::sort(lines.begin(), lines.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  for (const auto& [stack, count] : lines) {
    profile.folded += stack;
    profile.folded += ' ';
    profile.folded += std::to_string(count);
    profile.folded += '\n';
  }
  return profile;
}

#else  // !__linux__

Sampler& Sampler::Global() {
  static Sampler* sampler = new Sampler();
  return *sampler;
}

bool Sampler::running() const { return false; }

Result<Sampler::Profile> Sampler::Run(double, int) {
  return Status::NotSupported("sampling profiler requires Linux");
}

#endif

}  // namespace dpstarj::obs::prof
