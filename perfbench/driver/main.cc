// perfbench_driver — the repository benchmark's measuring binary. run.py
// builds it and passes the contract's arguments through:
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--out-dir DIR] [--tiny]
//
// --trace 0 runs the end-to-end metrics (e2e.cc), --trace 1 the per-layer
// pricing (layers.cc), which writes its spans and layer table under
// --out-dir. --tiny shrinks the catalogs for the self-test. The last line of
// standard output is the result JSON; every other stdout line starts "# ".

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "workloads.h"

using namespace perfbench;

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--tiny]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, out_dir = ".";
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::atoll(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--out-dir" && has_value) {
      out_dir = argv[++i];
    } else if (arg == "--tiny") {
      tiny = true;
    } else {
      Usage();
      return 2;
    }
  }
  if (workload_name.empty() || seed < 0 || !(seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    Usage();
    return 2;
  }
  if (RefuseBuild()) return 3;
  // A peer closing a keep-alive socket must surface as an error, not kill us.
  std::signal(SIGPIPE, SIG_IGN);

  auto workload = Workload::Create(workload_name, static_cast<uint64_t>(seed),
                                   tiny ? 0.1 : 1.0);
  if (!workload.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", workload.status().ToString().c_str());
    return 2;
  }
  PrintContext(**workload, trace == 1, (*workload)->InputHash(64));
  return trace == 1 ? RunTraced(**workload, seconds, out_dir)
                    : RunEndToEnd(**workload, seconds);
}
