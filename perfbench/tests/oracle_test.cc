// Tests of the benchmark's answer oracle: hand-built datasets with answers
// worked out by hand, properties that hold for any seed, and short runs of
// every workload on a tiny dataset (no op may fail, and linkbench-rw's
// Link tables must hold initial + adds - deletes rows once it quiesces).
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "core/db2graph.h"
#include "linkbench/partitioned.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {
namespace {

using db2graph::linkbench::Dataset;
using db2graph::linkbench::Link;
using db2graph::linkbench::Node;

// Partitioned convention: vertex type = id % 10, and link type k joins a
// type-k source to a type-(k + 3) destination.
Dataset HandBuilt() {
  Dataset d;
  for (int64_t id = 1; id <= 20; ++id) {
    // versions 1..20 and times 100x the id make every answer easy to
    // compute by hand.
    d.nodes.push_back(Node{id, static_cast<int>(id % 10), id, 100 * id, "x"});
  }
  auto link = [&d](int64_t id1, int64_t id2) {
    d.links.push_back(Link{id1, static_cast<int>(id1 % 10), id2, 1, "y", 5, 1});
  };
  link(3, 6);
  link(3, 16);
  link(13, 6);
  link(6, 9);
  link(16, 9);
  link(16, 19);
  link(9, 12);
  return d;
}

TEST(OracleTest, TableOneReadsByHand) {
  Dataset d = HandBuilt();
  GraphIndex index(d);
  Shadow view(&index);

  Answer node;
  AddItem(&node, VertexItem(3, 3));
  EXPECT_EQ(view.GetNode(3), node);
  EXPECT_EQ(view.GetNode(99), Answer{});

  EXPECT_EQ(view.CountLinks(3, 3), ScalarAnswer(2));
  EXPECT_EQ(view.CountLinks(3, 4), ScalarAnswer(0));
  EXPECT_EQ(view.CountLinks(16, 6), ScalarAnswer(2));

  Answer one;
  AddItem(&one, EdgeItem(3, 16));
  EXPECT_EQ(view.GetLink(3, 3, 16), one);
  EXPECT_EQ(view.GetLink(3, 3, 9), Answer{});

  Answer list;
  AddItem(&list, EdgeItem(3, 16));
  AddItem(&list, EdgeItem(3, 6));  // order does not matter
  EXPECT_EQ(view.GetLinkList(3, 3), list);
  EXPECT_EQ(view.GetLinkList(3, 3).count, 2);
}

TEST(OracleTest, ShadowFollowsWrites) {
  Dataset d = HandBuilt();
  GraphIndex index(d);
  Shadow shadow(&index);
  shadow.AddLink(3, 3, 6);  // a duplicate (3, 6) link
  EXPECT_EQ(shadow.CountLinks(3, 3), ScalarAnswer(3));
  EXPECT_EQ(shadow.GetLink(3, 3, 6).count, 2);
  shadow.DeleteLink(3, 3, 6);  // DELETE removes both copies
  EXPECT_EQ(shadow.CountLinks(3, 3), ScalarAnswer(1));
  EXPECT_EQ(shadow.added().at(3), 1);
  EXPECT_EQ(shadow.deleted().at(3), 2);
  shadow.SetVersion(3, 42);
  Answer node;
  AddItem(&node, VertexItem(3, 42));
  EXPECT_EQ(shadow.GetNode(3), node);
  // The base index is untouched.
  EXPECT_EQ(Shadow(&index).CountLinks(3, 3), ScalarAnswer(2));
}

TEST(OracleTest, AnalyticShapesByHand) {
  Dataset d = HandBuilt();
  GraphIndex index(d);
  // 3 -> {6, 16} -> {9} + {9, 19}: three 2-hop paths, two distinct ends.
  EXPECT_EQ(ChainCount(index, 3, {3, 6}, false), ScalarAnswer(3));
  EXPECT_EQ(ChainCount(index, 3, {3, 6}, true), ScalarAnswer(2));
  // ... then 9 -> 12: two 3-hop paths, one distinct end.
  EXPECT_EQ(ChainCount(index, 3, {3, 6, 9}, false), ScalarAnswer(2));
  EXPECT_EQ(ChainCount(index, 3, {3, 6, 9}, true), ScalarAnswer(1));
  // versions of the 2-hop ends: 9 twice, 19 once.
  EXPECT_EQ(ChainVersionGroupCount(index, 3, {3, 6}),
            GroupCountAnswer({{9, 2}, {19, 1}}));
  // Type-3 vertices with version > 5: 13 only; its one link ends at 6.
  EXPECT_EQ(ScanExpand(index, 3, 5, 3), std::vector<int64_t>({6}));
  EXPECT_EQ(ScanExpand(index, 3, 0, 3).size(), 3u);
  // Link_e6 grouped by source: 6 -> 1 row, 16 -> 2 rows.
  Answer grouped;
  AddItem(&grouped, ItemHash({kRowItem, 6, 1}));
  AddItem(&grouped, ItemHash({kRowItem, 16, 2}));
  EXPECT_EQ(LinkGroupByAnswer(index, 6), grouped);
}

// The engine's answers on the hand-built dataset reduce to the oracle's:
// this pins the reduction (ids, edge endpoints, groupCount lists, rows).
TEST(OracleTest, EngineAgreesOnHandBuiltData) {
  Dataset d = HandBuilt();
  GraphIndex index(d);
  Shadow view(&index);
  db2graph::sql::Database db;
  ASSERT_TRUE(db2graph::linkbench::LoadIntoPartitionedDatabase(&db, d).ok());
  auto graph = db2graph::core::Db2Graph::Open(
      &db, db2graph::linkbench::MakePartitionedOverlay(false));
  ASSERT_TRUE(graph.ok());
  auto run = [&](const std::string& q) {
    auto r = (*graph)->Execute(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    return r.ok() ? ReduceTraversers(*r) : Answer{};
  };
  EXPECT_EQ(run("g.V(3).hasLabel('vt3')"), view.GetNode(3));
  EXPECT_EQ(run("g.V(3).outE('et3').count()"), view.CountLinks(3, 3));
  EXPECT_EQ(run("g.V(3).outE('et3').where(inV().hasId(16))"),
            view.GetLink(3, 3, 16));
  EXPECT_EQ(run("g.V(3).outE('et3')"), view.GetLinkList(3, 3));
  EXPECT_EQ(run("g.V(3).out('et3').out('et6').count()"),
            ChainCount(index, 3, {3, 6}, false));
  EXPECT_EQ(run("g.V(3).out('et3').out('et6').dedup().count()"),
            ChainCount(index, 3, {3, 6}, true));
  EXPECT_EQ(run("g.V(3).out('et3').out('et6').values('version').groupCount()"),
            ChainVersionGroupCount(index, 3, {3, 6}));
  auto rows = db.Execute("SELECT id1, COUNT(*) FROM Link_e6 GROUP BY id1");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(ReduceRows(*rows), LinkGroupByAnswer(index, 6));
}

TEST(OracleTest, CountLinksOverAllLabelsIsOutDegree) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    db2graph::linkbench::Config config;
    config.num_vertices = 3000;
    config.seed = seed;
    Dataset d = db2graph::linkbench::GeneratePartitioned(config);
    GraphIndex index(d);
    Shadow view(&index);
    std::map<int64_t, int64_t> degree;
    for (const Link& l : d.links) ++degree[l.id1];
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 200; ++i) {
      int64_t id = d.nodes[rng() % d.nodes.size()].id;
      int64_t sum = 0;
      for (int lbl = 0; lbl < config.num_edge_types; ++lbl) {
        int64_t n = static_cast<int64_t>(index.OutLinks(id, lbl).size());
        EXPECT_EQ(view.CountLinks(id, lbl), ScalarAnswer(n));
        sum += n;
      }
      EXPECT_EQ(sum, degree[id]) << "seed " << seed << " id " << id;
    }
  }
}

TEST(OracleTest, ZipfIsSkewedAndInRange) {
  Zipf zipf(1000, 0.8);
  std::mt19937_64 rng(7);
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    size_t r = zipf.Sample(&rng);
    ASSERT_LT(r, 1000u);
    ++hits[r];
  }
  EXPECT_GT(hits[0], hits[9]);
  EXPECT_GT(hits[9], hits[99]);
  EXPECT_GT(hits[99], 0);
}

// Short runs of each workload on a tiny dataset: every answer checks out,
// and for linkbench-rw the quiesce check (COUNT(*) per Link table equals
// initial + adds - deletes) holds.
TEST(WorkloadTest, EveryWorkloadRunsClean) {
  for (const std::string& name : WorkloadNames()) {
    for (bool trace : {false, true}) {
      Options options;
      options.workload = name;
      options.seed = 5;
      options.seconds = 0.4;
      options.trace = trace;
      options.nproc = 2;
      options.setups = 1;
      options.num_vertices = 2000;
      auto report = RunWorkload(options);
      ASSERT_TRUE(report.ok()) << name << ": " << report.status().ToString();
      EXPECT_TRUE(report->correct) << name;
      EXPECT_GT(report->attempted, 0u) << name;
      EXPECT_EQ(report->failed, 0u) << name;
      for (const std::string& e : report->errors) ADD_FAILURE() << e;
    }
  }
}

}  // namespace
}  // namespace perfbench
