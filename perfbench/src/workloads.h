// The benchmark's three workloads, run through the engine's public entry
// points (GremlinService::Submit, Db2Graph::Execute, PreparedQuery::Execute
// and Database::Execute). See perfbench/README.md for what each one
// stresses and why.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Client threads, service workers and intra-query parallelism.
  int nproc = 1;
  /// Set-ups per run (0 = 3 on LB-large, 7 on LB-small); setup_s is
  /// their median and the last one is used.
  int setups = 0;
  /// Dataset size override (0 = the workload's LB-small / LB-large size).
  int64_t num_vertices = 0;
  /// Where the traced run writes its Chrome-trace JSON ("" = nowhere).
  std::string chrome_trace_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct Report {
  /// False when any check outside the per-op answers failed (the
  /// linkbench-rw quiesce counts).
  bool correct = true;
  uint64_t attempted = 0;
  /// Ops that returned an error or an answer the oracle disagrees with.
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First few failure descriptions.
  std::vector<std::string> errors;
  /// Everything else worth keeping in the result file (layer self times,
  /// sample counts, tracing overhead).
  db2graph::Json details = db2graph::Json::Object();
};

const std::vector<std::string>& WorkloadNames();

/// Generates the inputs from options.seed, sets the system up, measures,
/// and checks every answer. Fails only when set-up fails or the workload
/// is unknown.
db2graph::Result<Report> RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
