// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload ingest_od|read_mm|serve_rpc --seed N --seconds S
//             --trace 0|1 --out DIR
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it ("# meta ...") records the seed, hardware,
// build and sample counts. Exit code 1 means the run could not be carried
// out; wrong answers are reported as "correct": false.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest_od|read_mm|serve_rpc --seed N "
               "--seconds S --trace 0|1 --out DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  args.workload = perfbench::FindWorkload(workload);
  if (args.workload == nullptr || args.seconds <= 0 || args.out_dir.empty()) return Usage();

  // The shared ParallelFor pool is created on first use and sized from
  // HAZY_THREADS, so this must precede every engine call.
  ::setenv("HAZY_THREADS", std::to_string(args.workload->shared_pool_threads).c_str(), 1);

  perfbench::RunReport report;
  const hazy::Status s = perfbench::RunWorkload(args, &report);
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("# meta %s\n", report.meta_json.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), report.metrics.Json().c_str());
  return 0;
}
