#include "workloads.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include "common/query_log.h"
#include "core/db2graph.h"
#include "core/gremlin_service.h"
#include "gremlin/parser.h"
#include "layers.h"
#include "linkbench/partitioned.h"
#include "oracle.h"

namespace perfbench {
namespace {

using db2graph::ExecConfig;
using db2graph::Json;
using db2graph::QueryLog;
using db2graph::QueryTrace;
using db2graph::Result;
using db2graph::Status;
using db2graph::Value;
using db2graph::core::Db2Graph;
using db2graph::core::ExecOptions;
using db2graph::core::GremlinService;
using db2graph::core::PreparedQuery;
using db2graph::gremlin::Environment;
using db2graph::gremlin::Traverser;
using db2graph::linkbench::Dataset;
using db2graph::sql::Database;
using db2graph::sql::ResultSet;

// Node-access skew: P(rank r) ~ 1/r^0.8 over a seeded permutation of the
// ids, so hot vertices are spread over every vertex table.
constexpr double kZipfShape = 0.8;
constexpr size_t kMaxErrors = 5;
// Queries whose spans go into the Chrome-trace file (bounds its size).
constexpr size_t kTracedQueriesKept = 300;
// The partitioned LinkBench schema's vertex / edge type count.
constexpr int kTypes = 10;

enum Kind {
  kGetNode,
  kCountLinks,
  kGetLink,
  kGetLinkList,
  kAddLink,
  kDeleteLink,
  kUpdateNode,
};
const char* const kReadNames[] = {"getNode", "countLinks", "getLink",
                                  "getLinkList"};

double Seconds() { return NowMicros() / 1e6; }

// CPU time of the whole process, all threads, user plus system.
double CpuSeconds() {
  struct rusage u;
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

// CPU time of the calling thread.
double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Adds the calling thread's CPU time over its life to *total. Wraps the
// benchmark's own work inside a load (oracle answers, answer checks), which
// cpu_us_per_op leaves out.
class BenchCpu {
 public:
  explicit BenchCpu(double* total) : total_(total), start_(ThreadCpuSeconds()) {}
  ~BenchCpu() { *total_ += ThreadCpuSeconds() - start_; }
  BenchCpu(const BenchCpu&) = delete;
  BenchCpu& operator=(const BenchCpu&) = delete;

 private:
  double* total_;
  double start_;
};

// What one phase of a run measured.
struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t timed_ops = 0;
  double start_s = 0;
  double wall_s = 0;
  double bench_cpu_s = 0;  // BenchCpu: the benchmark's own CPU in the load
  Samples chunk_ops_per_s;  // linkbench-read: rate of each chunk's load
  Samples done_s;      // completion time of every timed op
  // Every timed read of the load as (completion s, latency us).
  std::vector<std::pair<double, double>> timed_reads;
  Samples read_us;     // every read op, as its client saw it
  Samples write_us;    // every write op
  Samples kind_us[4];  // reads by Table 1 operation
  Samples gremlin_us;  // Db2Graph / PreparedQuery Execute wall time
  Samples pass_ms;     // traversal-analytics passes
  std::vector<std::string> errors;

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < kMaxErrors) errors.push_back(std::move(what));
  }
  void Merge(const Phase& o) {
    attempted += o.attempted;
    failed += o.failed;
    timed_ops += o.timed_ops;
    bench_cpu_s += o.bench_cpu_s;
    chunk_ops_per_s.Append(o.chunk_ops_per_s);
    done_s.Append(o.done_s);
    timed_reads.insert(timed_reads.end(), o.timed_reads.begin(),
                       o.timed_reads.end());
    read_us.Append(o.read_us);
    write_us.Append(o.write_us);
    for (int k = 0; k < 4; ++k) kind_us[k].Append(o.kind_us[k]);
    gremlin_us.Append(o.gremlin_us);
    pass_ms.Append(o.pass_ms);
    for (const std::string& e : o.errors) {
      if (errors.size() < kMaxErrors) errors.push_back(e);
    }
  }
};

// Per-layer figures of the single-client traced phase.
struct LayerProbe {
  Samples parse_us;
  Samples compile_us;      // Db2Graph::Compile, its parse included
  Samples execute_us;      // traced Execute wall time
  Samples steps_us;        // top-level step spans of the QueryTrace
  Samples interp_self_us;  // steps minus the SQL statements under them
  Samples statement_us;    // per SQL statement
  Samples write_us;        // Database::Execute of write statements
  Samples synergy_ms;      // graphQuery-inside-SQL statements
  uint64_t queries = 0;
  uint64_t collapsed_hops = 0;
  uint64_t sql_entries = 0;
  uint64_t dop_sum = 0;
  uint64_t morsels = 0;
  TraceSink sink{kTracedQueriesKept};

  void ReadQueryLog() {
    for (const QueryLog::Entry& e : QueryLog::Global().Entries()) {
      if (e.layer == "gremlin") {
        collapsed_hops += e.collapsed_hops;
      } else {
        ++sql_entries;
        dop_sum += e.dop;
        morsels += e.morsels;
      }
    }
  }
};

// Executes a Gremlin op (text, or prepared with bindings). With a probe,
// the op also runs ParseGremlin and Compile on its text first, and the
// execution is traced through ExecOptions::trace.
Result<std::vector<Traverser>> RunGremlin(Db2Graph* graph,
                                          const std::string& text,
                                          const PreparedQuery* prepared,
                                          const Environment& bindings,
                                          LayerProbe* probe) {
  if (probe == nullptr) {
    return prepared != nullptr ? prepared->Execute(bindings)
                               : graph->Execute(text);
  }
  double t0 = NowMicros();
  Result<db2graph::gremlin::Script> parsed =
      db2graph::gremlin::ParseGremlin(text);
  double t1 = NowMicros();
  Result<db2graph::gremlin::Script> compiled = graph->Compile(text);
  double t2 = NowMicros();
  (void)parsed;
  (void)compiled;
  probe->parse_us.Add(t1 - t0);
  probe->compile_us.Add(t2 - t1);

  QueryLog::Global().Clear();
  QueryTrace trace;
  ExecOptions options;
  options.trace = &trace;
  options.bindings = bindings;
  double t3 = NowMicros();
  Result<std::vector<Traverser>> result =
      prepared != nullptr ? prepared->Execute(options)
                          : graph->Execute(text, options);
  double t4 = NowMicros();
  probe->execute_us.Add(t4 - t3);

  double steps = 0;
  double statements = 0;
  for (const db2graph::StepTraceSpan& span : trace.Spans()) {
    if (span.depth == 0) steps += static_cast<double>(span.micros);
    for (const db2graph::SqlTraceRecord& rec : span.statements) {
      statements += static_cast<double>(rec.micros);
      probe->statement_us.Add(static_cast<double>(rec.micros));
    }
  }
  probe->steps_us.Add(steps);
  probe->interp_self_us.Add(std::max(0.0, steps - statements));
  probe->ReadQueryLog();
  ++probe->queries;
  if (probe->sink.Accepting()) {
    int tid = db2graph::TraceTid();
    probe->sink.AddSpan("ParseGremlin", "gremlin", t0, t1 - t0, tid);
    probe->sink.AddSpan("Db2Graph::Compile", "core", t1, t2 - t1, tid);
    probe->sink.AddSpan(prepared != nullptr ? "PreparedQuery::Execute"
                                            : "Db2Graph::Execute",
                        "core", t3, t4 - t3, tid);
    probe->sink.AddQueryTrace(trace);
    probe->sink.NextQuery();
  }
  return result;
}

enum class SqlKind { kRead, kWrite, kSynergy };

Result<ResultSet> RunSql(Database* db, const std::string& sql, SqlKind kind,
                         LayerProbe* probe) {
  if (probe == nullptr) return db->Execute(sql);
  QueryLog::Global().Clear();
  double t0 = NowMicros();
  Result<ResultSet> result = db->Execute(sql);
  double t1 = NowMicros();
  probe->statement_us.Add(t1 - t0);
  if (kind == SqlKind::kWrite) probe->write_us.Add(t1 - t0);
  if (kind == SqlKind::kSynergy) probe->synergy_ms.Add((t1 - t0) / 1000.0);
  probe->ReadQueryLog();
  ++probe->queries;
  if (probe->sink.Accepting()) {
    probe->sink.AddSpan("Database::Execute", "sql", t0, t1 - t0,
                        db2graph::TraceTid());
    probe->sink.NextQuery();
  }
  return result;
}

void CheckTraversers(const Result<std::vector<Traverser>>& result,
                     const Answer& expected, const std::string& what,
                     Phase* phase) {
  if (!result.ok()) {
    phase->Fail(what + ": " + result.status().ToString());
  } else if (Answer got = ReduceTraversers(*result); got != expected) {
    phase->Fail(what + ": got " + got.ToString() + ", expected " +
                expected.ToString());
  }
}

void CheckRows(const Result<ResultSet>& result, const Answer& expected,
               const std::string& what, Phase* phase) {
  if (!result.ok()) {
    phase->Fail(what + ": " + result.status().ToString());
  } else if (Answer got = ReduceRows(*result); got != expected) {
    phase->Fail(what + ": got " + got.ToString() + ", expected " +
                expected.ToString());
  }
}

// Link type whose sources are `vertex_type`, and the vertex type of its
// destinations, in the partitioned schema (edge type k: type k -> k + 3).
int OutLabel(int vertex_type) { return vertex_type; }
int DstType(int ltype) { return (ltype + 3) % kTypes; }

std::string Str(int64_t v) { return std::to_string(v); }

// A destination for getLink: an existing neighbour when there is one.
int64_t PickLinkTarget(const GraphIndex& index, const Shadow& view,
                       int64_t v, int ltype, std::mt19937_64* rng) {
  std::vector<int64_t> dsts = view.OutLinks(v, ltype);
  if (!dsts.empty()) {
    return dsts[std::uniform_int_distribution<size_t>(0, dsts.size() - 1)(
        *rng)];
  }
  const std::vector<int64_t>& pool = index.NodesOfType(DstType(ltype));
  return pool[std::uniform_int_distribution<size_t>(0, pool.size() - 1)(
      *rng)];
}

std::vector<int64_t> Shuffled(std::vector<int64_t> ids,
                              std::mt19937_64* rng) {
  std::shuffle(ids.begin(), ids.end(), *rng);
  return ids;
}

// ------------------------------------------------------------------------

class Workload {
 public:
  Workload(const Options& options, const Dataset& dataset)
      : options_(options), dataset_(dataset), index_(dataset) {}
  virtual ~Workload() = default;

  /// Loads the tables, opens the graph, and builds whatever the workload's
  /// clients hold (service, prepared queries): the program's set-up.
  Status SetUp() {
    db_ = std::make_unique<Database>();
    DB2G_RETURN_NOT_OK(
        db2graph::linkbench::LoadIntoPartitionedDatabase(db_.get(), dataset_));
    Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(
        db_.get(), db2graph::linkbench::MakePartitionedOverlay(false),
        GraphOptions());
    if (!graph.ok()) return graph.status();
    graph_ = std::move(*graph);
    DB2G_RETURN_NOT_OK(graph_->RegisterGraphQueryFunction());
    return Attach();
  }

  void TearDown() {
    Detach();
    graph_.reset();
    db_.reset();
  }

  Db2Graph* graph() { return graph_.get(); }

  /// The workload's own load shape, untraced.
  virtual void RunLoad(double seconds, Phase* phase) = 0;
  /// One client calling the engine directly; traced when probe is set.
  virtual void RunDirect(double seconds, LayerProbe* probe,
                         Phase* phase) = 0;
  /// Checks made after the load has quiesced.
  virtual void Finish(Report* /*report*/) {}
  /// Queries in one pass, for workloads that run fixed passes (else 0).
  virtual size_t OpsPerPass() const { return 0; }

 protected:
  virtual Db2Graph::Options GraphOptions() const {
    return Db2Graph::Options();
  }
  virtual Status Attach() { return Status::OK(); }
  virtual void Detach() {}

  const Options options_;
  const Dataset& dataset_;
  const GraphIndex index_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Db2Graph> graph_;
};

// ------------------------------------------------------------- linkbench-read

constexpr size_t kRoundOps = 64;
// Rounds made ahead of each stretch of load: 32,768 ops, about a second
// of load on 4 cores.
constexpr int kRoundsPerChunk = 512;
constexpr auto kCollectPoll = std::chrono::microseconds(10);

class LinkbenchRead : public Workload {
 public:
  LinkbenchRead(const Options& options, const Dataset& dataset)
      : Workload(options, dataset),
        base_(&index_),
        rng_(options.seed * 7919 + 1) {
    std::vector<int64_t> ids;
    for (const auto& n : dataset.nodes) ids.push_back(n.id);
    ranking_ = Shuffled(std::move(ids), &rng_);
    zipf_ = std::make_unique<Zipf>(ranking_.size(), kZipfShape);
  }

  void RunLoad(double seconds, Phase* phase) override {
    // Short timed waits must wake on time (the default slack is 50 us).
    const int slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
    prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    RunChunk(1, phase, /*timed=*/false, /*deadline=*/0);
    phase->start_s = Seconds();
    const double deadline = phase->start_s + seconds;
    while (Seconds() < deadline) {
      RunChunk(kRoundsPerChunk, phase, /*timed=*/true, deadline);
    }
    phase->wall_s = Seconds() - phase->start_s;
    if (slack > 0) prctl(PR_SET_TIMERSLACK, slack, 0, 0, 0);
  }

  void RunDirect(double seconds, LayerProbe* probe, Phase* phase) override {
    double start = Seconds();
    while (Seconds() < start + seconds) {
      for (const Op& op : MakeRound()) {
        double t0 = NowMicros();
        Result<std::vector<Traverser>> result =
            RunGremlin(graph_.get(), op.text, nullptr, {}, probe);
        double us = NowMicros() - t0;
        ++phase->attempted;
        ++phase->timed_ops;
        phase->gremlin_us.Add(us);
        phase->read_us.Add(us);
        CheckTraversers(result, op.expected, op.text, phase);
      }
    }
    phase->wall_s = Seconds() - start;
  }

 protected:
  Status Attach() override {
    GremlinService::Options service;
    service.workers = options_.nproc;
    service_ = std::make_unique<GremlinService>(graph_.get(), service);
    return Status::OK();
  }
  void Detach() override { service_.reset(); }

 private:
  struct Op {
    Kind kind;
    std::string text;
    Answer expected;
  };

  Op Make(Kind kind) {
    int64_t v = ranking_[zipf_->Sample(&rng_)];
    int ltype = OutLabel(index_.NodeType(v));
    std::string head = "g.V(" + Str(v) + ")";
    std::string out = head + ".outE('" + Dataset::EdgeLabel(ltype) + "')";
    switch (kind) {
      case kGetNode:
        return {kind,
                head + ".hasLabel('" +
                    Dataset::VertexLabel(index_.NodeType(v)) + "')",
                base_.GetNode(v)};
      case kCountLinks:
        return {kind, out + ".count()", base_.CountLinks(v, ltype)};
      case kGetLink: {
        int64_t id2 = PickLinkTarget(index_, base_, v, ltype, &rng_);
        return {kind, out + ".where(inV().hasId(" + Str(id2) + "))",
                base_.GetLink(v, ltype, id2)};
      }
      default:
        return {kGetLinkList, out, base_.GetLinkList(v, ltype)};
    }
  }

  // kRoundOps ops, a quarter of each Table 1 operation, in seeded order.
  std::vector<Op> MakeRound() {
    std::vector<Op> round;
    for (size_t i = 0; i < kRoundOps; ++i) {
      round.push_back(Make(static_cast<Kind>(i % 4)));
    }
    std::shuffle(round.begin(), round.end(), rng_);
    return round;
  }

  // Makes `rounds` rounds, then submits them through the service with
  // nproc requests in flight (closed loop) until all ran or, at a round
  // boundary, `deadline` passed; then checks every response. Ops are made
  // and answers checked while nothing is in flight, so an op's latency,
  // from Submit to the moment the generator collects the response, holds
  // no benchmark-side work but the collection itself.
  void RunChunk(int rounds, Phase* phase, bool timed, double deadline) {
    struct Pending {
      std::future<GremlinService::Response> response;
      size_t op;
      double submitted_us;
    };
    std::vector<Op> ops;
    std::vector<std::optional<GremlinService::Response>> responses;
    {
      BenchCpu cpu(&phase->bench_cpu_s);
      for (int r = 0; r < rounds; ++r) {
        for (Op& op : MakeRound()) ops.push_back(std::move(op));
      }
      responses.resize(ops.size());
    }
    std::vector<Pending> inflight;
    const size_t window = static_cast<size_t>(options_.nproc);
    size_t next = 0;
    size_t end = ops.size();
    const double active_start = Seconds();
    while (true) {
      while (next < end && inflight.size() < window) {
        if (timed && next % kRoundOps == 0 && Seconds() >= deadline) {
          end = next;
          break;
        }
        double t0 = NowMicros();
        inflight.push_back({service_->Submit(ops[next].text), next, t0});
        ++next;
      }
      if (inflight.empty()) break;
      // Collect whichever request is ready first. With none ready, sleep
      // on the oldest for at most kCollectPoll, so a younger one that
      // finishes first is seen within that time without spinning a core
      // the service's workers need.
      size_t done = inflight.size();
      while (true) {
        for (size_t i = 0; i < inflight.size(); ++i) {
          if (inflight[i].response.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
            done = i;
            break;
          }
        }
        if (done < inflight.size()) break;
        inflight.front().response.wait_for(kCollectPoll);
      }
      double us = NowMicros() - inflight[done].submitted_us;
      const size_t op = inflight[done].op;
      responses[op] = inflight[done].response.get();
      inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(done));
      if (timed) {
        phase->done_s.Add(Seconds());
        phase->timed_reads.emplace_back(Seconds(), us);
        phase->read_us.Add(us);
        phase->kind_us[ops[op].kind].Add(us);
      }
    }
    if (timed && end > 0) {
      phase->chunk_ops_per_s.Add(static_cast<double>(end) /
                                 (Seconds() - active_start));
    }
    BenchCpu cpu(&phase->bench_cpu_s);
    for (size_t i = 0; i < end; ++i) {
      ++phase->attempted;
      if (timed) ++phase->timed_ops;
      CheckTraversers(*responses[i], ops[i].expected, ops[i].text, phase);
    }
    responses.clear();
    ops.clear();
  }

  Shadow base_;  // no writes: the base data's answers
  std::mt19937_64 rng_;
  std::vector<int64_t> ranking_;
  std::unique_ptr<Zipf> zipf_;
  std::unique_ptr<GremlinService> service_;
};

// --------------------------------------------------------------- linkbench-rw

// One round: 14 reads and 6 writes, about LinkBench's default 70/30 mix.
constexpr Kind kRwRound[] = {
    kGetNode,     kGetLinkList, kAddLink,     kCountLinks, kGetLinkList,
    kGetNode,     kUpdateNode,  kGetLink,     kGetLinkList, kDeleteLink,
    kGetNode,     kCountLinks,  kGetLinkList, kAddLink,    kGetLink,
    kGetNode,     kUpdateNode,  kGetLinkList, kDeleteLink, kGetLinkList,
};

class LinkbenchRw : public Workload {
 public:
  LinkbenchRw(const Options& options, const Dataset& dataset)
      : Workload(options, dataset) {
    // Client c owns the vertices with (id / 10) % nproc == c: a disjoint
    // slice holding every vertex type.
    const int n = options.nproc;
    std::vector<std::vector<int64_t>> slices(n);
    for (const auto& node : dataset.nodes) {
      slices[(node.id / kTypes) % n].push_back(node.id);
    }
    for (int c = 0; c < n; ++c) {
      auto client = std::make_unique<Client>(&index_);
      client->id = c;
      client->rng.seed(options.seed * 104729 + c);
      client->slice = Shuffled(std::move(slices[c]), &client->rng);
      client->zipf = std::make_unique<Zipf>(client->slice.size(), kZipfShape);
      clients_.push_back(std::move(client));
    }
  }

  void RunLoad(double seconds, Phase* phase) override {
    const int n = options_.nproc;
    std::vector<Phase> phases(n);
    std::vector<double> ends(n, 0);
    std::barrier sync(n + 1);
    std::vector<std::thread> threads;
    for (int c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        RunRound(clients_[c].get(), nullptr, &phases[c], /*timed=*/false);
        sync.arrive_and_wait();
        double deadline = Seconds() + seconds;
        while (Seconds() < deadline) {
          RunRound(clients_[c].get(), nullptr, &phases[c], /*timed=*/true);
        }
        ends[c] = Seconds();
      });
    }
    sync.arrive_and_wait();
    phase->start_s = Seconds();
    for (std::thread& t : threads) t.join();
    for (const Phase& p : phases) phase->Merge(p);
    phase->wall_s = *std::max_element(ends.begin(), ends.end()) - phase->start_s;
  }

  void RunDirect(double seconds, LayerProbe* probe, Phase* phase) override {
    double start = Seconds();
    while (Seconds() < start + seconds) {
      RunRound(clients_[0].get(), probe, phase, /*timed=*/true);
    }
    phase->wall_s = Seconds() - start;
  }

  // After the clients quiesce, every Link table holds its initial rows
  // plus the adds minus the deletes all clients made.
  void Finish(Report* report) override {
    for (int t = 0; t < kTypes; ++t) {
      int64_t expected = index_.LinkCount(t);
      for (const auto& client : clients_) {
        auto added = client->shadow.added().find(t);
        auto deleted = client->shadow.deleted().find(t);
        if (added != client->shadow.added().end()) expected += added->second;
        if (deleted != client->shadow.deleted().end()) {
          expected -= deleted->second;
        }
      }
      std::string sql = "SELECT COUNT(*) FROM Link_e" + Str(t);
      Result<ResultSet> rs = db_->Execute(sql);
      if (!rs.ok() || rs->rows.size() != 1 || !rs->rows[0][0].is_int() ||
          rs->rows[0][0].as_int() != expected) {
        report->correct = false;
        report->errors.push_back(
            sql + ": expected " + Str(expected) + ", got " +
            (rs.ok() && !rs->rows.empty() ? rs->rows[0][0].ToString()
                                          : rs.status().ToString()));
      }
    }
  }

 protected:
  Status Attach() override {
    for (int t = 0; t < kTypes; ++t) {
      std::string head = "g.V(vid)";
      std::string out = head + ".outE('" + Dataset::EdgeLabel(OutLabel(t)) + "')";
      const std::string texts[4] = {
          head + ".hasLabel('" + Dataset::VertexLabel(t) + "')",
          out + ".count()",
          out + ".where(inV().hasId(vid2))",
          out,
      };
      for (int k = 0; k < 4; ++k) {
        Result<PreparedQuery> prepared = graph_->Prepare(texts[k]);
        if (!prepared.ok()) return prepared.status();
        prepared_[k][t] = std::move(*prepared);
      }
    }
    return Status::OK();
  }
  void Detach() override {
    for (auto& row : prepared_) {
      for (PreparedQuery& p : row) p = PreparedQuery();
    }
  }

 private:
  struct Client {
    explicit Client(const GraphIndex* base) : shadow(base) {}
    int id = 0;
    std::mt19937_64 rng;
    std::vector<int64_t> slice;
    std::unique_ptr<Zipf> zipf;
    Shadow shadow;
  };

  void RunRound(Client* c, LayerProbe* probe, Phase* phase, bool timed) {
    for (Kind kind : kRwRound) RunOp(c, kind, probe, phase, timed);
  }

  void RunOp(Client* c, Kind kind, LayerProbe* probe, Phase* phase,
             bool timed) {
    ++phase->attempted;
    if (kind <= kGetLinkList) {
      RunRead(c, kind, probe, phase, timed);
    } else {
      RunWrite(c, kind, probe, phase, timed);
    }
  }

  void RunRead(Client* c, Kind kind, LayerProbe* probe, Phase* phase,
               bool timed) {
    std::optional<BenchCpu> cpu(&phase->bench_cpu_s);
    int64_t v = c->slice[c->zipf->Sample(&c->rng)];
    const int vtype = index_.NodeType(v);
    const int ltype = OutLabel(vtype);
    Environment bindings;
    bindings["vid"] = {Value(v)};
    Answer expected;
    switch (kind) {
      case kGetNode:
        expected = c->shadow.GetNode(v);
        break;
      case kCountLinks:
        expected = c->shadow.CountLinks(v, ltype);
        break;
      case kGetLink: {
        int64_t id2 = PickLinkTarget(index_, c->shadow, v, ltype, &c->rng);
        bindings["vid2"] = {Value(id2)};
        expected = c->shadow.GetLink(v, ltype, id2);
        break;
      }
      default:
        expected = c->shadow.GetLinkList(v, ltype);
    }
    const PreparedQuery& query = prepared_[kind][vtype];
    cpu.reset();
    double t0 = NowMicros();
    Result<std::vector<Traverser>> result = RunGremlin(
        graph_.get(), query.script_text(), &query, bindings, probe);
    double us = NowMicros() - t0;
    cpu.emplace(&phase->bench_cpu_s);
    if (timed) {
      ++phase->timed_ops;
      phase->done_s.Add(Seconds());
      phase->timed_reads.emplace_back(Seconds(), us);
      phase->read_us.Add(us);
      phase->kind_us[kind].Add(us);
      phase->gremlin_us.Add(us);
    }
    CheckTraversers(result, expected,
                    std::string(kReadNames[kind]) + "(" + Str(v) + ")", phase);
  }

  void RunWrite(Client* c, Kind kind, LayerProbe* probe, Phase* phase,
                bool timed) {
    std::optional<BenchCpu> cpu(&phase->bench_cpu_s);
    size_t rank = c->zipf->Sample(&c->rng);
    int64_t v = c->slice[rank];
    const int vtype = index_.NodeType(v);
    const int ltype = OutLabel(vtype);
    std::string sql;
    int64_t dst = 0;
    int64_t expected_affected = 1;
    if (kind == kAddLink) {
      const std::vector<int64_t>& pool = index_.NodesOfType(DstType(ltype));
      dst = pool[std::uniform_int_distribution<size_t>(0, pool.size() - 1)(
          c->rng)];
      sql = "INSERT INTO Link_e" + Str(ltype) + " VALUES (" + Str(v) + ", " +
            Str(dst) + ", 1, 'rw" + Str(c->id) + "', " +
            Str(1500000000 + static_cast<int64_t>(phase->attempted)) +
            ", 1)";
    } else if (kind == kDeleteLink) {
      // The first vertex at or after the drawn rank that still has links.
      for (size_t i = 0; i < c->slice.size(); ++i) {
        int64_t u = c->slice[(rank + i) % c->slice.size()];
        if (!c->shadow.OutLinks(u, OutLabel(index_.NodeType(u))).empty()) {
          v = u;
          break;
        }
      }
      int lt = OutLabel(index_.NodeType(v));
      std::vector<int64_t> dsts = c->shadow.OutLinks(v, lt);
      dst = dsts.empty() ? 0
                         : dsts[std::uniform_int_distribution<size_t>(
                               0, dsts.size() - 1)(c->rng)];
      expected_affected = std::count(dsts.begin(), dsts.end(), dst);
      sql = "DELETE FROM Link_e" + Str(lt) + " WHERE id1 = " + Str(v) +
            " AND id2 = " + Str(dst);
    } else {
      sql = "UPDATE Node_t" + Str(vtype) + " SET version = " +
            Str(c->shadow.Version(v) + 1) + " WHERE id = " + Str(v);
    }
    cpu.reset();
    double t0 = NowMicros();
    Result<ResultSet> result = RunSql(db_.get(), sql, SqlKind::kWrite, probe);
    double us = NowMicros() - t0;
    cpu.emplace(&phase->bench_cpu_s);
    if (timed) {
      ++phase->timed_ops;
      phase->done_s.Add(Seconds());
      phase->write_us.Add(us);
    }
    if (!result.ok()) {
      phase->Fail(sql + ": " + result.status().ToString());
      return;
    }
    if (result->affected != expected_affected) {
      phase->Fail(sql + ": affected " + Str(result->affected) +
                  ", expected " + Str(expected_affected));
    }
    // The shadow follows what the statement did, so later reads of the
    // slice are checked against the engine's committed state.
    if (kind == kAddLink) {
      c->shadow.AddLink(v, ltype, dst);
    } else if (kind == kDeleteLink) {
      c->shadow.DeleteLink(v, OutLabel(index_.NodeType(v)), dst);
    } else {
      c->shadow.SetVersion(v, c->shadow.Version(v) + 1);
    }
  }

  std::vector<std::unique_ptr<Client>> clients_;
  PreparedQuery prepared_[4][kTypes];
};

// -------------------------------------------------------- traversal-analytics

class TraversalAnalytics : public Workload {
 public:
  TraversalAnalytics(const Options& options, const Dataset& dataset)
      : Workload(options, dataset) {
    std::mt19937_64 rng(options.seed * 15485863 + 3);
    auto pick = [&rng](size_t n) {
      return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
    };
    // Cheap shapes from 64 seed vertices: 2- and 3-hop chains, dedup and
    // groupCount over the expansion. Many seeds keep the per-query median
    // from hinging on a few seeds' degrees.
    for (int i = 0; i < 64; ++i) {
      int64_t s = dataset.nodes[pick(dataset.nodes.size())].id;
      int t = index_.NodeType(s);
      std::vector<int> hops = {OutLabel(t), OutLabel(DstType(t)),
                               OutLabel(DstType(DstType(t)))};
      std::string chain = "g.V(" + Str(s) + ")";
      for (int h : hops) chain += ".out('" + Dataset::EdgeLabel(h) + "')";
      std::string two = "g.V(" + Str(s) + ").out('" +
                        Dataset::EdgeLabel(hops[0]) + "').out('" +
                        Dataset::EdgeLabel(hops[1]) + "')";
      std::vector<int> two_hops(hops.begin(), hops.begin() + 2);
      Add(two + ".count()", ChainCount(index_, s, two_hops, false));
      Add(chain + ".count()", ChainCount(index_, s, hops, false));
      Add(chain + ".dedup().count()", ChainCount(index_, s, hops, true));
      Add(two + ".values('version').groupCount()",
          ChainVersionGroupCount(index_, s, two_hops));
    }
    // Scan-then-expand over two vertex types, and the barriers and SQL
    // shapes that sit on top of such an expansion. The version cut-offs
    // are fixed (versions are uniform in 1..16), so every seed scans the
    // same share of a type.
    int k1 = static_cast<int>(pick(kTypes));
    int k2 = (k1 + 1 + static_cast<int>(pick(kTypes - 1))) % kTypes;
    for (int k : {k1, k2}) {
      int64_t x = k == k1 ? 10 : 12;
      std::string scan = "g.V().hasLabel('" + Dataset::VertexLabel(k) +
                         "').has('version', gt(" + Str(x) + ")).out('" +
                         Dataset::EdgeLabel(OutLabel(k)) + "')";
      std::vector<int64_t> ends = ScanExpand(index_, k, x, OutLabel(k));
      Add(scan + ".count()",
          ScalarAnswer(static_cast<int64_t>(ends.size())));
      std::map<int64_t, int64_t> by_version;
      int64_t max_time = 0;
      for (int64_t e : ends) {
        ++by_version[index_.Version(e)];
        max_time = std::max(max_time, index_.Time(e));
      }
      if (k == k1) {
        Add(scan + ".values('time').max()", ScalarAnswer(max_time));
      } else {
        Add(scan + ".values('version').groupCount()",
            GroupCountAnswer(by_version));
      }
      std::string quoted;
      for (char ch : scan + ".id()") {
        quoted += ch;
        if (ch == '\'') quoted += ch;
      }
      Answer rows;
      for (const auto& [version, n] : by_version) {
        AddItem(&rows, ItemHash({kRowItem, version, n}));
      }
      AddSql("SELECT n.version, COUNT(*) FROM Node_t" +
                 Str(DstType(OutLabel(k))) +
                 " n, TABLE (graphQuery('gremlin', '" + quoted +
                 "')) AS t (vid BIGINT) WHERE n.id = t.vid GROUP BY "
                 "n.version",
             rows, SqlKind::kSynergy);
      AddSql("SELECT id1, COUNT(*) FROM Link_e" + Str(OutLabel(k)) +
                 " GROUP BY id1",
             LinkGroupByAnswer(index_, OutLabel(k)), SqlKind::kRead);
    }
  }

  void RunLoad(double seconds, Phase* phase) override {
    Passes(seconds, nullptr, phase);
  }

  void RunDirect(double seconds, LayerProbe* probe, Phase* phase) override {
    Passes(seconds, probe, phase);
  }

  size_t OpsPerPass() const override { return queries_.size(); }

 protected:
  Db2Graph::Options GraphOptions() const override {
    Db2Graph::Options options;
    options.exec = ExecConfig().parallelism(options_.nproc);
    return options;
  }

 private:
  struct Query {
    std::string text;
    bool sql = false;
    SqlKind sql_kind = SqlKind::kRead;
    Answer expected;
  };

  void Add(std::string text, Answer expected) {
    queries_.push_back({std::move(text), false, SqlKind::kRead, expected});
  }
  void AddSql(std::string text, Answer expected, SqlKind kind) {
    queries_.push_back({std::move(text), true, kind, expected});
  }

  // One untimed warm-up pass, then whole passes until `seconds` ran.
  void Passes(double seconds, LayerProbe* probe, Phase* phase) {
    RunPass(probe, phase, /*timed=*/false);
    double start = Seconds();
    while (Seconds() < start + seconds) {
      double t0 = NowMicros();
      RunPass(probe, phase, /*timed=*/true);
      phase->pass_ms.Add((NowMicros() - t0) / 1000.0);
    }
    phase->wall_s = Seconds() - start;
  }

  void RunPass(LayerProbe* probe, Phase* phase, bool timed) {
    for (const Query& q : queries_) {
      ++phase->attempted;
      double t0 = NowMicros();
      if (q.sql) {
        Result<ResultSet> rs = RunSql(db_.get(), q.text, q.sql_kind, probe);
        double us = NowMicros() - t0;
        if (timed) {
          ++phase->timed_ops;
          phase->timed_reads.emplace_back(Seconds(), us);
          phase->read_us.Add(us);
        }
        BenchCpu cpu(&phase->bench_cpu_s);
        CheckRows(rs, q.expected, q.text, phase);
      } else {
        Result<std::vector<Traverser>> result =
            RunGremlin(graph_.get(), q.text, nullptr, {}, probe);
        double us = NowMicros() - t0;
        if (timed) {
          ++phase->timed_ops;
          phase->timed_reads.emplace_back(Seconds(), us);
          phase->read_us.Add(us);
          phase->gremlin_us.Add(us);
        }
        BenchCpu cpu(&phase->bench_cpu_s);
        CheckTraversers(result, q.expected, q.text, phase);
      }
    }
  }

  std::vector<Query> queries_;
};

// ------------------------------------------------------------------------

// A "Vm...:" field of /proc/self/status (VmRSS, VmHWM), in MB.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;
    }
  }
  return 0;
}

// Sustained rate: the median over the run's whole one-second windows of
// the ops completed in each, so a stall of the host for a second or two
// does not move it. traversal-analytics, whose passes are not uniform
// within a second, uses queries per pass over the median pass time, and
// linkbench-read, which pauses between chunks, the median chunk rate.
double Throughput(const Phase& phase, size_t ops_per_pass) {
  if (ops_per_pass > 0 && !phase.pass_ms.empty()) {
    return static_cast<double>(ops_per_pass) * 1000.0 / phase.pass_ms.Median();
  }
  if (!phase.chunk_ops_per_s.empty()) return phase.chunk_ops_per_s.Median();
  const int windows = static_cast<int>(phase.wall_s);
  if (windows < 3) {
    return phase.wall_s > 0 ? static_cast<double>(phase.timed_ops) / phase.wall_s
                            : 0;
  }
  std::vector<double> counts(windows, 0);
  for (double t : phase.done_s.values()) {
    int w = static_cast<int>(t - phase.start_s);
    if (w >= 0 && w < windows) counts[w] += 1;
  }
  Samples per_window;
  for (double c : counts) per_window.Add(c);
  return per_window.Median();
}

// Read latency quantile, robust to a disturbed stretch of the run: the
// timed reads, in completion order, are cut into 3..10 chunks of at least
// 1000 (so a p99 has ten samples beyond it in every chunk), and the median
// of the chunks' quantiles is reported. With fewer than 3000 reads, the
// plain quantile.
double ReadQuantile(std::vector<std::pair<double, double>> reads, double q) {
  std::sort(reads.begin(), reads.end());
  const size_t chunks = std::min<size_t>(10, reads.size() / 1000);
  Samples all;
  if (chunks < 3) {
    for (const auto& r : reads) all.Add(r.second);
    return all.Quantile(q);
  }
  Samples per_chunk;
  for (size_t c = 0; c < chunks; ++c) {
    Samples chunk;
    for (size_t i = c * reads.size() / chunks;
         i < (c + 1) * reads.size() / chunks; ++i) {
      chunk.Add(reads[i].second);
    }
    per_chunk.Add(chunk.Quantile(q));
  }
  return per_chunk.Median();
}

double PerOp(uint64_t n, uint64_t ops) {
  return ops == 0 ? 0 : static_cast<double>(n) / static_cast<double>(ops);
}

double Ratio(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0 : static_cast<double>(part) / static_cast<double>(whole);
}

void Print(const char* label, const Samples& s) {
  std::fprintf(stderr, "  %-22s mean %10.1f us  (%zu samples)\n", label,
               s.Mean(), s.size());
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "linkbench-read", "linkbench-rw", "traversal-analytics"};
  return kNames;
}

Result<Report> RunWorkload(const Options& options) {
  db2graph::linkbench::Config config =
      options.workload == "linkbench-read"
          ? db2graph::linkbench::Config::Large()
          : db2graph::linkbench::Config::Small();
  if (options.num_vertices > 0) config.num_vertices = options.num_vertices;
  config.seed = options.seed;
  Dataset dataset = db2graph::linkbench::GeneratePartitioned(config);

  std::unique_ptr<Workload> workload;
  if (options.workload == "linkbench-read") {
    workload = std::make_unique<LinkbenchRead>(options, dataset);
  } else if (options.workload == "linkbench-rw") {
    workload = std::make_unique<LinkbenchRw>(options, dataset);
  } else if (options.workload == "traversal-analytics") {
    workload = std::make_unique<TraversalAnalytics>(options, dataset);
  } else {
    return Status::InvalidArgument("unknown workload " + options.workload);
  }
  // The benchmark's own memory (dataset, oracle index, Zipf tables), so
  // rss_peak_mb counts what the engine adds on top.
  const double base_rss_mb = StatusMb("VmRSS:");
  const double base_hwm_mb = StatusMb("VmHWM:");

  Samples setup_s;
  // About 20 s of set-up on LB-large and 4 s on LB-small, so the median
  // is steady on both.
  const int setups = options.setups > 0 ? options.setups
                     : dataset.nodes.size() > 100000 ? 3
                                                     : 7;
  for (int i = 0; i < setups; ++i) {
    if (i > 0) workload->TearDown();
    double t0 = Seconds();
    Status st = workload->SetUp();
    if (!st.ok()) return st;
    setup_s.Add(Seconds() - t0);
  }

  Report report;
  Phase load, direct, traced;
  auto emit = [&report](const std::string& name, const std::string& unit,
                        double value) {
    report.metrics.push_back({name, unit, value});
  };
  const size_t per_pass = workload->OpsPerPass();
  if (!options.trace) {
    double cpu_start = CpuSeconds();
    workload->RunLoad(options.seconds, &load);
    double cpu_s = CpuSeconds() - cpu_start;
    workload->Finish(&report);
    emit("setup_s", "s", setup_s.Median());
    emit("rss_peak_mb", "MB", StatusMb("VmHWM:") - base_rss_mb);
    // traversal-analytics: per query of the median pass, so every shape
    // counts by its time (its per-query median would be a chain's).
    emit("read_p50_us", "us",
         per_pass > 0 ? load.pass_ms.Median() * 1000.0 /
                            static_cast<double>(per_pass)
                      : ReadQuantile(load.timed_reads, 0.5));
    emit("cpu_us_per_op", "us",
         std::max(0.0, cpu_s - load.bench_cpu_s) * 1e6 /
             static_cast<double>(std::max<uint64_t>(1, load.attempted)));
    report.details.Set("bench_cpu_s", Json::Number(load.bench_cpu_s));
    // Throughput and the read tail move with how much of the shared host
    // the run gets, beyond any bound, so they are kept in the result file
    // and the traced run only (see README).
    report.details.Set("throughput_ops",
                       Json::Number(Throughput(load, per_pass)));
    report.details.Set("read_p99_us",
                       Json::Number(ReadQuantile(load.timed_reads, 0.99)));
  } else {
    // Counters over the workload's own load shape; then one client
    // untraced and one client traced, for the layer split and the
    // tracing overhead.
    Counters before = Snapshot(workload->graph());
    workload->RunLoad(options.seconds * 0.5, &load);
    Counters d = Delta(before, Snapshot(workload->graph()));
    workload->RunDirect(options.seconds * 0.25, nullptr, &direct);
    LayerProbe probe;
    workload->RunDirect(options.seconds * 0.25, &probe, &traced);
    workload->Finish(&report);

    // Per-op figures divide the load phase's counter deltas by the ops it
    // attempted (its warm-up included, as the counters include it).
    const uint64_t load_ops = std::max<uint64_t>(1, load.attempted);
    const auto& p = d.provider;
    const auto& s = d.sql;
    // Client-seen latency minus the service's own request time: the wait
    // in the service's queue (linkbench-read is the only workload with a
    // service on its path).
    double service_queue = 0;
    if (d.service_requests > 0) {
      service_queue = std::max(
          0.0, load.read_us.Mean() - static_cast<double>(d.service_micros) /
                                         static_cast<double>(d.service_requests));
    }
    emit("gremlin.parse_us", "us", probe.parse_us.Median());
    emit("gremlin.parse_calls_per_op", "count", PerOp(d.parse_calls, load_ops));
    emit("gremlin.interp_self_us", "us", probe.interp_self_us.Median());
    // Compile parses again; its own share is the difference of the means
    // (medians of a per-op difference of two short timings are noise).
    emit("core.compile_us", "us",
         std::max(0.0, probe.compile_us.Mean() - probe.parse_us.Mean()));
    emit("core.execute_us", "us", direct.gremlin_us.Median());
    emit("core.plan_cache_hit_ratio", "ratio",
         Ratio(d.plan_hits, d.plan_hits + d.plan_misses));
    emit("core.plan_cache_stale_recompiles_per_kop", "count",
         1000.0 * PerOp(d.stale_recompiles, load_ops));
    emit("core.tables_consulted_per_op", "count",
         PerOp(p.vertex_tables_queried + p.edge_tables_queried, load_ops));
    emit("core.tables_pruned_per_op", "count",
         PerOp(p.vertex_tables_pruned + p.edge_tables_pruned, load_ops));
    emit("core.fanout_tasks_per_op", "count", PerOp(p.parallel_tasks, load_ops));
    emit("core.vertex_cache_hit_ratio", "ratio",
         Ratio(p.cache_hits, p.cache_hits + p.cache_misses));
    emit("core.collapsed_hops_per_query", "count",
         PerOp(probe.collapsed_hops, probe.queries));
    emit("core.service_queue_us", "us", service_queue);
    emit("sql.statements_per_op", "count", PerOp(s.selects + s.writes, load_ops));
    emit("sql.rows_scanned_per_op", "count", PerOp(s.rows_scanned, load_ops));
    emit("sql.rows_returned_per_op", "count", PerOp(s.rows_returned, load_ops));
    emit("sql.index_probes_per_op", "count", PerOp(s.index_probes, load_ops));
    emit("sql.full_scans_per_op", "count", PerOp(s.full_scans, load_ops));
    emit("sql.scanned_per_returned", "ratio",
         Ratio(s.rows_scanned, s.rows_returned));
    emit("sql.statement_us", "us", probe.statement_us.Median());
    emit("sql.write_us", "us", probe.write_us.Median());
    emit("sql.morsels_per_query", "count", PerOp(probe.morsels, probe.queries));
    emit("sql.dop", "count",
         probe.sql_entries == 0
             ? 0
             : static_cast<double>(probe.dop_sum) /
                   static_cast<double>(probe.sql_entries));
    emit("sql.synergy_stmt_ms", "ms", probe.synergy_ms.Median());
    for (int k = 0; k < 4; ++k) {
      emit(std::string("op.") + kReadNames[k] + "_p50_us", "us",
           load.kind_us[k].Median());
    }
    emit("op.throughput_ops", "ops/s", Throughput(load, per_pass));
    emit("op.read_p99_us", "us", ReadQuantile(load.timed_reads, 0.99));
    emit("op.write_p50_us", "us", load.write_us.Median());
    emit("op.write_p99_us", "us", load.write_us.Quantile(0.99));
    emit("op.analytics_pass_ms", "ms", load.pass_ms.Median());
    double untraced = direct.gremlin_us.Mean();
    double traced_mean = probe.execute_us.Mean();
    double overhead = untraced > 0 ? traced_mean / untraced : 0;
    emit("trace.overhead_ratio", "ratio", overhead);

    std::fprintf(stderr, "layer self time, traced single client (%llu ops):\n",
                 static_cast<unsigned long long>(traced.timed_ops));
    Print("gremlin.parse", probe.parse_us);
    Print("core.compile+parse", probe.compile_us);
    Print("core.execute", probe.execute_us);
    Print("gremlin.steps", probe.steps_us);
    Print("gremlin.interp_self", probe.interp_self_us);
    Print("sql.statement", probe.statement_us);
    Print("sql.write", probe.write_us);
    std::fprintf(stderr,
                 "tracing overhead: traced Execute %.1f us vs untraced %.1f "
                 "us (x%.3f)\n",
                 traced_mean, untraced, overhead);
    Json self = Json::Object();
    self.Set("gremlin.parse_us_mean", Json::Number(probe.parse_us.Mean()));
    self.Set("core.compile_us_mean",
             Json::Number(probe.compile_us.Mean() - probe.parse_us.Mean()));
    self.Set("core.execute_us_mean", Json::Number(probe.execute_us.Mean()));
    self.Set("gremlin.steps_us_mean", Json::Number(probe.steps_us.Mean()));
    self.Set("gremlin.interp_self_us_mean",
             Json::Number(probe.interp_self_us.Mean()));
    self.Set("sql.statement_us_mean", Json::Number(probe.statement_us.Mean()));
    self.Set("untraced_execute_us_mean", Json::Number(untraced));
    report.details.Set("layer_self_time", std::move(self));
    if (!options.chrome_trace_path.empty()) {
      std::ofstream out(options.chrome_trace_path);
      out << probe.sink.ToJson().Dump(0);
    }
  }
  for (const Phase* phase : {&load, &direct, &traced}) {
    report.attempted += phase->attempted;
    report.failed += phase->failed;
    for (const std::string& e : phase->errors) report.errors.push_back(e);
  }
  report.details.Set("setup_runs", Json::Number(static_cast<double>(setup_s.size())));
  report.details.Set("base_rss_mb", Json::Number(base_rss_mb));
  report.details.Set("base_hwm_mb", Json::Number(base_hwm_mb));
  report.details.Set("read_samples",
                     Json::Number(static_cast<double>(load.read_us.size())));
  report.details.Set("write_samples",
                     Json::Number(static_cast<double>(load.write_us.size())));
  report.details.Set("vertices",
                     Json::Number(static_cast<double>(dataset.nodes.size())));
  report.details.Set("edges",
                     Json::Number(static_cast<double>(dataset.links.size())));
  workload->TearDown();
  return report;
}

}  // namespace perfbench
