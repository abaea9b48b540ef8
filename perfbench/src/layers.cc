#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/metrics.h"
#include "core/gremlin_service.h"
#include "core/plan_cache.h"
#include "gremlin/parser.h"

namespace perfbench {

using db2graph::Json;

double NowMicros() {
  // Same steady clock and epoch as TraceClock::Default(), at nanosecond
  // resolution.
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  double rank = std::ceil(q * static_cast<double>(values_.size()));
  size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values_[std::min(i, values_.size() - 1)];
}

Counters Snapshot(db2graph::core::Db2Graph* graph) {
  auto& registry = db2graph::metrics::MetricsRegistry::Global();
  using db2graph::core::PlanCache;
  Counters c;
  c.parse_calls =
      registry.GetCounter(db2graph::gremlin::kParseCallsCounter)->load();
  c.plan_hits = registry.GetCounter(PlanCache::kHitsCounter)->load();
  c.plan_misses = registry.GetCounter(PlanCache::kMissesCounter)->load();
  c.stale_recompiles =
      registry.GetCounter(PlanCache::kStaleStatsRecompilesCounter)->load();
  c.provider = graph->provider()->stats().Snapshot();
  c.sql = graph->db()->stats().Snapshot();
  db2graph::metrics::Histogram* service = registry.GetHistogram(
      db2graph::core::GremlinService::kRequestLatencyHistogram);
  c.service_requests = service->Count();
  c.service_micros = service->Sum();
  return c;
}

Counters Delta(const Counters& a, const Counters& b) {
  Counters d;
  d.parse_calls = b.parse_calls - a.parse_calls;
  d.plan_hits = b.plan_hits - a.plan_hits;
  d.plan_misses = b.plan_misses - a.plan_misses;
  d.stale_recompiles = b.stale_recompiles - a.stale_recompiles;
  auto& p = d.provider;
  p.vertex_tables_queried =
      b.provider.vertex_tables_queried - a.provider.vertex_tables_queried;
  p.vertex_tables_pruned =
      b.provider.vertex_tables_pruned - a.provider.vertex_tables_pruned;
  p.edge_tables_queried =
      b.provider.edge_tables_queried - a.provider.edge_tables_queried;
  p.edge_tables_pruned =
      b.provider.edge_tables_pruned - a.provider.edge_tables_pruned;
  p.shortcut_vertices =
      b.provider.shortcut_vertices - a.provider.shortcut_vertices;
  p.parallel_batches =
      b.provider.parallel_batches - a.provider.parallel_batches;
  p.parallel_tasks = b.provider.parallel_tasks - a.provider.parallel_tasks;
  p.cache_hits = b.provider.cache_hits - a.provider.cache_hits;
  p.cache_misses = b.provider.cache_misses - a.provider.cache_misses;
  auto& s = d.sql;
  s.selects = b.sql.selects - a.sql.selects;
  s.rows_scanned = b.sql.rows_scanned - a.sql.rows_scanned;
  s.index_probes = b.sql.index_probes - a.sql.index_probes;
  s.range_scans = b.sql.range_scans - a.sql.range_scans;
  s.full_scans = b.sql.full_scans - a.sql.full_scans;
  s.rows_returned = b.sql.rows_returned - a.sql.rows_returned;
  s.writes = b.sql.writes - a.sql.writes;
  d.service_requests = b.service_requests - a.service_requests;
  d.service_micros = b.service_micros - a.service_micros;
  return d;
}

void TraceSink::AddSpan(const std::string& name, const std::string& layer,
                        double start_us, double dur_us, int tid) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (queries_ >= max_queries_) return;
  Json e = Json::Object();
  e.Set("name", Json::Str(name));
  e.Set("cat", Json::Str(layer));
  e.Set("ph", Json::Str("X"));
  e.Set("ts", Json::Number(start_us));
  e.Set("dur", Json::Number(dur_us));
  e.Set("pid", Json::Number(1));
  e.Set("tid", Json::Number(tid));
  events_.push_back(std::move(e));
}

void TraceSink::AddQueryTrace(const db2graph::QueryTrace& trace) {
  Json chrome = trace.ToChromeTrace();
  std::lock_guard<std::mutex> lock(mutex_);
  if (queries_ >= max_queries_) return;
  if (const Json* events = chrome.Find("traceEvents")) {
    for (const Json& e : events->items()) events_.push_back(e);
  }
}

bool TraceSink::Accepting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queries_ < max_queries_;
}

void TraceSink::NextQuery() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++queries_;
}

Json TraceSink::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json events = Json::Array();
  for (const Json& e : events_) events.Append(e);
  Json out = Json::Object();
  out.Set("traceEvents", std::move(events));
  out.Set("displayTimeUnit", Json::Str("ms"));
  return out;
}

}  // namespace perfbench
