#include "report.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/build_info.h"
#include "common/cpu.h"
#include "exec/kernels/kernels.h"
#include "net/json.h"
#include "obs/prof/counters.h"

namespace perfbench {

using dpstarj::net::Json;

void PrintContext(const Workload& workload, bool trace, uint64_t input_hash) {
  const dpstarj::CpuInfo& cpu = dpstarj::HostCpu();
  const dpstarj::common::BuildInfo& build = dpstarj::common::GetBuildInfo();
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx", static_cast<unsigned long long>(input_hash));
  Json ctx = Json::Object();
  ctx.Set("workload", Json::Str(workload.config().name));
  ctx.Set("seed", Json::Number(static_cast<double>(workload.seed())));
  ctx.Set("trace", Json::Bool(trace));
  ctx.Set("inputs_hash", Json::Str(hash));
  ctx.Set("scale_factor", Json::Number(workload.config().scale_factor));
  ctx.Set("connections", Json::Number(workload.config().connections));
  ctx.Set("nproc", Json::Number(cpu.cores));
  ctx.Set("l2_bytes", Json::Number(static_cast<double>(cpu.l2_bytes)));
  ctx.Set("kernels", Json::Str(dpstarj::exec::kernels::ActiveKernels().name));
  ctx.Set("profiler_mode",
          Json::Str(dpstarj::obs::prof::CounterModeName(
              dpstarj::obs::prof::ActiveCounterMode())));
  ctx.Set("build_type", Json::Str(build.build_type));
  ctx.Set("compiler", Json::Str(build.compiler));
  std::printf("# context %s\n", ctx.Dump().c_str());
  std::fflush(stdout);
}

bool RefuseBuild() {
  const char* why = nullptr;
#if !defined(__OPTIMIZE__)
  why = "an unoptimised build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why = "a sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  why = "a sanitizer build";
#endif
#endif
  const char* type = dpstarj::common::GetBuildInfo().build_type;
  if (why == nullptr && std::strcmp(type, "Release") != 0 &&
      std::strcmp(type, "RelWithDebInfo") != 0) {
    why = "a build type other than Release/RelWithDebInfo";
  }
  if (why == nullptr) return false;
  std::fprintf(stderr, "perfbench: refusing to record numbers from %s\n", why);
  return true;
}

bool PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: metric %s has no finite value\n",
                   metric.name.c_str());
      correct = false;
    }
  }
  Json out = Json::Object();
  out.Set("correct", Json::Bool(correct));
  out.Set("attempted", Json::Number(static_cast<double>(attempted)));
  out.Set("failed", Json::Number(static_cast<double>(failed)));
  Json m = Json::Object();
  for (const Metric& metric : metrics) {
    Json entry = Json::Object();
    // JSON has no NaN; the run is already marked incorrect above.
    entry.Set("value", Json::Number(std::isfinite(metric.value) ? metric.value : 0.0));
    entry.Set("unit", Json::Str(metric.unit));
    m.Set(metric.name, std::move(entry));
  }
  out.Set("metrics", std::move(m));
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
  return correct;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace perfbench
