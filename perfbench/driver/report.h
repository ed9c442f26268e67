// The driver's output: the run-context stamp and the final result line
// (`{"correct", "attempted", "failed", "metrics"}`) the benchmark contract
// requires as the last line of standard output.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints `# context {...}`: host, kernel table, profiler mode, build,
/// workload seed and input hash.
void PrintContext(const Workload& workload, bool trace, uint64_t input_hash);

/// True (with a message on stderr) when this binary is unoptimised or
/// sanitized — numbers from such a build are never recorded.
bool RefuseBuild();

/// Prints the final result line. A metric without a finite value makes the
/// run incorrect; returns the `correct` it printed.
bool PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

/// VmHWM of this process, in MB.
double PeakRssMb();

/// The end-to-end run (`--trace 0`): returns the process exit code.
int RunEndToEnd(const Workload& workload, double seconds);

/// The traced per-layer run (`--trace 1`), writing spans and the layer
/// table under `out_dir`: returns the process exit code.
int RunTraced(const Workload& workload, double seconds, const std::string& out_dir);

}  // namespace perfbench
