// The benchmark's answer oracle: every expected result, computed as plain
// C++ over the generated linkbench::Dataset (plus, for linkbench-rw, the
// writes one client made to its own slice), never by the engine.
//
// Every answer — engine side and oracle side — is reduced to an Answer: a
// count of result items plus an order-independent digest (the wrapping
// sum of one 64-bit hash per item). Engines may return rows or traversers
// in any order; the digest does not care, yet a missing, extra or altered
// item changes it.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gremlin/interpreter.h"
#include "linkbench/linkbench.h"
#include "sql/result_set.h"

namespace perfbench {

struct Answer {
  int64_t count = 0;
  uint64_t digest = 0;

  bool operator==(const Answer& o) const {
    return count == o.count && digest == o.digest;
  }
  bool operator!=(const Answer& o) const { return !(*this == o); }
  std::string ToString() const;
};

/// Hash of one result item made of integer components.
uint64_t ItemHash(std::initializer_list<int64_t> parts);

/// Tags keep a vertex, an edge and a scalar with equal ids apart.
enum ItemTag : int64_t { kVertexItem = 1, kEdgeItem, kValueItem, kListItem,
                         kRowItem };

/// Adds one item to an answer.
void AddItem(Answer* a, uint64_t item_hash);

/// Engine-side reductions.
Answer ReduceTraversers(const std::vector<db2graph::gremlin::Traverser>& ts);
Answer ReduceRows(const db2graph::sql::ResultSet& rs);

/// Oracle-side shapes of the same items.
uint64_t VertexItem(int64_t id, int64_t version);
uint64_t EdgeItem(int64_t src, int64_t dst);
Answer ScalarAnswer(int64_t value);
/// One groupCount() traverser: key-sorted [k, n, k, n, ...].
Answer GroupCountAnswer(const std::map<int64_t, int64_t>& counts);

/// Rank-skewed sampler: P(rank r) proportional to 1 / r^s over n ranks
/// (r = 1..n), by inverse CDF. Returns a 0-based rank.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(std::mt19937_64* rng) const;

 private:
  std::vector<double> cdf_;
};

/// The oracle's index over a generated dataset: node attributes by id and
/// out-adjacency as (ltype, dst) pairs. Ids need not be dense.
class GraphIndex {
 public:
  explicit GraphIndex(const db2graph::linkbench::Dataset& dataset);

  bool HasNode(int64_t id) const { return nodes_.count(id) > 0; }
  int NodeType(int64_t id) const { return nodes_.at(id).type; }
  int64_t Version(int64_t id) const { return nodes_.at(id).version; }
  int64_t Time(int64_t id) const { return nodes_.at(id).time; }
  /// Destinations of id's out-links of type ltype, in generation order.
  std::vector<int64_t> OutLinks(int64_t id, int ltype) const;
  /// All out-links of id, any type.
  const std::vector<std::pair<int, int64_t>>& AllOutLinks(int64_t id) const;
  /// Ids of nodes of a type, ascending.
  const std::vector<int64_t>& NodesOfType(int type) const;
  const std::map<int, std::vector<int64_t>>& nodes_by_type() const {
    return by_type_;
  }
  int64_t LinkCount(int ltype) const;

 private:
  struct NodeAttrs {
    int type = 0;
    int64_t version = 0;
    int64_t time = 0;
  };
  std::unordered_map<int64_t, NodeAttrs> nodes_;
  std::unordered_map<int64_t, std::vector<std::pair<int, int64_t>>> out_;
  std::map<int, std::vector<int64_t>> by_type_;
  std::map<int, int64_t> link_counts_;
};

/// One linkbench-rw client's record of its own writes. A client only
/// writes links whose source lies in its slice and nodes in its slice, so
/// base data plus this shadow determines every read of the slice.
class Shadow {
 public:
  explicit Shadow(const GraphIndex* base) : base_(base) {}

  std::vector<int64_t> OutLinks(int64_t id, int ltype) const;
  int64_t Version(int64_t id) const;

  void AddLink(int64_t id1, int ltype, int64_t id2);
  /// Removes every (id1, ltype, id2) link, as the DELETE does.
  void DeleteLink(int64_t id1, int ltype, int64_t id2);
  void SetVersion(int64_t id, int64_t version);

  /// Links added / deleted per link type, for the quiesce check.
  const std::map<int, int64_t>& added() const { return added_; }
  const std::map<int, int64_t>& deleted() const { return deleted_; }

  // The four Table 1 reads.
  Answer GetNode(int64_t id) const;
  Answer CountLinks(int64_t id1, int ltype) const;
  Answer GetLink(int64_t id1, int ltype, int64_t id2) const;
  Answer GetLinkList(int64_t id1, int ltype) const;

 private:
  std::vector<int64_t>* Own(int64_t id1, int ltype);

  const GraphIndex* base_;
  std::map<std::pair<int64_t, int>, std::vector<int64_t>> links_;
  std::unordered_map<int64_t, int64_t> versions_;
  std::map<int, int64_t> added_;
  std::map<int, int64_t> deleted_;
};

// Analytic answers over the base data (traversal-analytics is read-only).

/// Paths of g.V(seed).out(l0).out(l1)...; `dedup` counts distinct ends.
Answer ChainCount(const GraphIndex& g, int64_t seed,
                  const std::vector<int>& ltypes, bool dedup);
/// g.V(seed).out(l0)...values('version').groupCount()
Answer ChainVersionGroupCount(const GraphIndex& g, int64_t seed,
                              const std::vector<int>& ltypes);
/// End vertices of g.V().hasLabel(vt).has('version', gt(x)).out(et), one
/// entry per traverser.
std::vector<int64_t> ScanExpand(const GraphIndex& g, int vtype,
                                int64_t min_version_exclusive, int ltype);

/// SELECT id1, COUNT(*) FROM Link_e<ltype> GROUP BY id1
Answer LinkGroupByAnswer(const GraphIndex& g, int ltype);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
