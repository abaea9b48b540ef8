// Measurement plumbing shared by the workloads: latency samples, one
// snapshot of every counter the engine already exposes (so per-layer
// figures are deltas of the program's own counters), and the in-memory
// span store that becomes the traced run's Chrome-trace file.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/trace.h"
#include "core/db2graph.h"

namespace perfbench {

/// Monotonic microseconds on the engine's trace clock, so spans recorded
/// by the benchmark line up with the spans of a QueryTrace.
double NowMicros();

/// A bag of measurements (latencies in microseconds, usually).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }
  double Sum() const;
  double Mean() const;
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Point-in-time copy of the engine's counters across the layers.
struct Counters {
  uint64_t parse_calls = 0;         // gremlin.parse_calls
  uint64_t plan_hits = 0;           // plan_cache.hits
  uint64_t plan_misses = 0;         // plan_cache.misses
  uint64_t stale_recompiles = 0;    // plan_cache.stale_stats_recompiles
  db2graph::core::Db2GraphProvider::Stats::Counts provider;
  db2graph::sql::ExecStats::Counts sql;
  uint64_t service_requests = 0;    // gremlin_service.request_micros count
  uint64_t service_micros = 0;      // ... and sum
};

Counters Snapshot(db2graph::core::Db2Graph* graph);
/// b - a, field by field.
Counters Delta(const Counters& a, const Counters& b);

/// Spans kept in memory for the Chrome-trace file (written at exit).
class TraceSink {
 public:
  explicit TraceSink(size_t max_queries) : max_queries_(max_queries) {}

  /// One benchmark-side span around a call into a layer.
  void AddSpan(const std::string& name, const std::string& layer,
               double start_us, double dur_us, int tid);
  /// The engine's own spans of one traced query.
  void AddQueryTrace(const db2graph::QueryTrace& trace);
  /// True while the sink still accepts another query's spans.
  bool Accepting() const;
  void NextQuery();
  db2graph::Json ToJson() const;

 private:
  mutable std::mutex mutex_;
  size_t max_queries_;
  size_t queries_ = 0;
  std::vector<db2graph::Json> events_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
