#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <set>

namespace perfbench {

using db2graph::Value;
using db2graph::gremlin::Traverser;

namespace {

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Fold(uint64_t h, int64_t part) {
  return Mix(h ^ static_cast<uint64_t>(part));
}

int64_t ValueBits(const Value& v) {
  if (v.is_int()) return v.as_int();
  if (v.is_bool()) return v.as_bool() ? 1 : 0;
  if (v.is_double()) {
    double d = v.as_double();
    int64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
  }
  if (v.is_string()) {
    return static_cast<int64_t>(std::hash<std::string>{}(v.as_string()));
  }
  return 0;  // null
}

int64_t PropertyOrZero(const db2graph::gremlin::Element& e,
                       const std::string& key) {
  const Value* v = e.FindProperty(key);
  return v == nullptr ? 0 : ValueBits(*v);
}

}  // namespace

std::string Answer::ToString() const {
  return "{count=" + std::to_string(count) +
         ", digest=" + std::to_string(digest) + "}";
}

uint64_t ItemHash(std::initializer_list<int64_t> parts) {
  uint64_t h = 0x51ed270b27f1a4b5ull;
  for (int64_t p : parts) h = Fold(h, p);
  return h;
}

void AddItem(Answer* a, uint64_t item_hash) {
  ++a->count;
  a->digest += item_hash;
}

uint64_t VertexItem(int64_t id, int64_t version) {
  return ItemHash({kVertexItem, id, version});
}

uint64_t EdgeItem(int64_t src, int64_t dst) {
  return ItemHash({kEdgeItem, src, dst});
}

Answer ScalarAnswer(int64_t value) {
  Answer a;
  AddItem(&a, ItemHash({kValueItem, value}));
  return a;
}

Answer GroupCountAnswer(const std::map<int64_t, int64_t>& counts) {
  uint64_t h = ItemHash({kListItem});
  for (const auto& [key, n] : counts) {
    h = Fold(Fold(h, key), n);
  }
  Answer a;
  AddItem(&a, h);
  return a;
}

Answer ReduceTraversers(const std::vector<Traverser>& ts) {
  Answer a;
  for (const Traverser& t : ts) {
    switch (t.kind) {
      case Traverser::Kind::kVertex:
        AddItem(&a, VertexItem(ValueBits(t.vertex->id),
                               PropertyOrZero(*t.vertex, "version")));
        break;
      case Traverser::Kind::kEdge:
        AddItem(&a, EdgeItem(ValueBits(t.edge->src_id),
                             ValueBits(t.edge->dst_id)));
        break;
      case Traverser::Kind::kValue:
        AddItem(&a, ItemHash({kValueItem, ValueBits(t.value)}));
        break;
      case Traverser::Kind::kList: {
        uint64_t h = ItemHash({kListItem});
        for (const Value& v : t.list) h = Fold(h, ValueBits(v));
        AddItem(&a, h);
        break;
      }
    }
  }
  return a;
}

Answer ReduceRows(const db2graph::sql::ResultSet& rs) {
  Answer a;
  for (const db2graph::Row& row : rs.rows) {
    uint64_t h = ItemHash({kRowItem});
    for (const Value& v : row) h = Fold(h, ValueBits(v));
    AddItem(&a, h);
  }
  return a;
}

Zipf::Zipf(size_t n, double s) {
  cdf_.resize(n);
  double sum = 0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(std::mt19937_64* rng) const {
  double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
  size_t r = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(r, cdf_.size() - 1);
}

GraphIndex::GraphIndex(const db2graph::linkbench::Dataset& dataset) {
  nodes_.reserve(dataset.nodes.size());
  for (const auto& n : dataset.nodes) {
    nodes_[n.id] = NodeAttrs{n.type, n.version, n.time};
    by_type_[n.type].push_back(n.id);
  }
  for (auto& [type, ids] : by_type_) std::sort(ids.begin(), ids.end());
  for (const auto& l : dataset.links) {
    out_[l.id1].emplace_back(l.ltype, l.id2);
    ++link_counts_[l.ltype];
  }
}

std::vector<int64_t> GraphIndex::OutLinks(int64_t id, int ltype) const {
  std::vector<int64_t> dsts;
  for (const auto& [t, dst] : AllOutLinks(id)) {
    if (t == ltype) dsts.push_back(dst);
  }
  return dsts;
}

const std::vector<std::pair<int, int64_t>>& GraphIndex::AllOutLinks(
    int64_t id) const {
  static const std::vector<std::pair<int, int64_t>> kNone;
  auto it = out_.find(id);
  return it == out_.end() ? kNone : it->second;
}

const std::vector<int64_t>& GraphIndex::NodesOfType(int type) const {
  static const std::vector<int64_t> kNone;
  auto it = by_type_.find(type);
  return it == by_type_.end() ? kNone : it->second;
}

int64_t GraphIndex::LinkCount(int ltype) const {
  auto it = link_counts_.find(ltype);
  return it == link_counts_.end() ? 0 : it->second;
}

std::vector<int64_t> Shadow::OutLinks(int64_t id, int ltype) const {
  auto it = links_.find({id, ltype});
  return it == links_.end() ? base_->OutLinks(id, ltype) : it->second;
}

int64_t Shadow::Version(int64_t id) const {
  auto it = versions_.find(id);
  return it == versions_.end() ? base_->Version(id) : it->second;
}

std::vector<int64_t>* Shadow::Own(int64_t id1, int ltype) {
  auto it = links_.find({id1, ltype});
  if (it == links_.end()) {
    it = links_.emplace(std::make_pair(id1, ltype),
                        base_->OutLinks(id1, ltype)).first;
  }
  return &it->second;
}

void Shadow::AddLink(int64_t id1, int ltype, int64_t id2) {
  Own(id1, ltype)->push_back(id2);
  ++added_[ltype];
}

void Shadow::DeleteLink(int64_t id1, int ltype, int64_t id2) {
  std::vector<int64_t>* dsts = Own(id1, ltype);
  auto end = std::remove(dsts->begin(), dsts->end(), id2);
  deleted_[ltype] += dsts->end() - end;
  dsts->erase(end, dsts->end());
}

void Shadow::SetVersion(int64_t id, int64_t version) {
  versions_[id] = version;
}

Answer Shadow::GetNode(int64_t id) const {
  Answer a;
  if (base_->HasNode(id)) AddItem(&a, VertexItem(id, Version(id)));
  return a;
}

Answer Shadow::CountLinks(int64_t id1, int ltype) const {
  return ScalarAnswer(static_cast<int64_t>(OutLinks(id1, ltype).size()));
}

Answer Shadow::GetLink(int64_t id1, int ltype, int64_t id2) const {
  Answer a;
  for (int64_t dst : OutLinks(id1, ltype)) {
    if (dst == id2) AddItem(&a, EdgeItem(id1, id2));
  }
  return a;
}

Answer Shadow::GetLinkList(int64_t id1, int ltype) const {
  Answer a;
  for (int64_t dst : OutLinks(id1, ltype)) AddItem(&a, EdgeItem(id1, dst));
  return a;
}

namespace {

// End vertex of every path g.V(seed).out(l0).out(l1)..., one per path.
std::vector<int64_t> ChainEnds(const GraphIndex& g, int64_t seed,
                               const std::vector<int>& ltypes) {
  std::vector<int64_t> frontier;
  if (g.HasNode(seed)) frontier.push_back(seed);
  for (int ltype : ltypes) {
    std::vector<int64_t> next;
    for (int64_t v : frontier) {
      for (const auto& [t, dst] : g.AllOutLinks(v)) {
        if (t == ltype) next.push_back(dst);
      }
    }
    frontier.swap(next);
  }
  return frontier;
}

}  // namespace

Answer ChainCount(const GraphIndex& g, int64_t seed,
                  const std::vector<int>& ltypes, bool dedup) {
  std::vector<int64_t> ends = ChainEnds(g, seed, ltypes);
  if (!dedup) return ScalarAnswer(static_cast<int64_t>(ends.size()));
  std::set<int64_t> distinct(ends.begin(), ends.end());
  return ScalarAnswer(static_cast<int64_t>(distinct.size()));
}

Answer ChainVersionGroupCount(const GraphIndex& g, int64_t seed,
                              const std::vector<int>& ltypes) {
  std::map<int64_t, int64_t> counts;
  for (int64_t v : ChainEnds(g, seed, ltypes)) ++counts[g.Version(v)];
  return GroupCountAnswer(counts);
}

std::vector<int64_t> ScanExpand(const GraphIndex& g, int vtype,
                                int64_t min_version_exclusive, int ltype) {
  std::vector<int64_t> ends;
  for (int64_t v : g.NodesOfType(vtype)) {
    if (g.Version(v) <= min_version_exclusive) continue;
    for (const auto& [t, dst] : g.AllOutLinks(v)) {
      if (t == ltype) ends.push_back(dst);
    }
  }
  return ends;
}

Answer LinkGroupByAnswer(const GraphIndex& g, int ltype) {
  std::map<int64_t, int64_t> per_source;
  for (const auto& [type, ids] : g.nodes_by_type()) {
    for (int64_t v : ids) {
      int64_t n = 0;
      for (const auto& [t, dst] : g.AllOutLinks(v)) n += t == ltype;
      if (n > 0) per_source[v] = n;
    }
  }
  Answer a;
  for (const auto& [id1, n] : per_source) {
    AddItem(&a, ItemHash({kRowItem, id1, n}));
  }
  return a;
}

}  // namespace perfbench
