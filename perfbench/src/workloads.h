// The three benchmark workloads and the run that measures one of them.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "harness.h"

namespace perfbench {

struct WorkloadDef {
  const char* name;
  DbSpec db;
  /// Workers of the engine's shared ParallelFor pool (HAZY_THREADS); 1 runs
  /// scans inline on the calling thread.
  size_t shared_pool_threads;
  size_t closed_loop_threads;
  size_t open_loop_threads;
  size_t connections;     // sockets to the in-process server (serve_rpc)
  size_t server_workers;  // its statement workers
};

/// nullptr for an unknown name.
const WorkloadDef* FindWorkload(const std::string& name);

struct RunArgs {
  const WorkloadDef* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // database files, trace and result files
};

struct RunReport {
  Metrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = false;
  std::string meta_json;  // seed, hardware, build and sample counts
};

/// Sets up the workload's database (several times, timing each), runs its
/// traffic for `seconds`, checks every answer with the oracle, closes and
/// reopens the database, and fills the end-to-end metrics (untraced run) or
/// the per-layer metrics (traced run). A non-OK status means the run could
/// not be carried out at all.
hazy::Status RunWorkload(const RunArgs& args, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
