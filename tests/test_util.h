#ifndef MRX_TESTS_TEST_UTIL_H_
#define MRX_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "graph/data_graph.h"
#include "index/index_graph.h"
#include "util/rng.h"

namespace mrx::testing {

/// Builds a graph from per-node labels and an edge list; node ids are the
/// positions in `labels`; node 0 is the root.
inline DataGraph MakeGraph(const std::vector<std::string>& labels,
                           const std::vector<std::pair<NodeId, NodeId>>& edges) {
  DataGraphBuilder builder;
  for (const std::string& label : labels) builder.AddNode(label);
  for (auto [u, v] : edges) builder.AddEdge(u, v);
  builder.SetRoot(0);
  auto result = std::move(builder).Build();
  return std::move(result).value();
}

/// The paper's Figure 3 data graph (as reconstructed in the tests for the
/// M(k)-vs-D(k) refinement contrast): r with children a, c, d; one b under
/// a (the r/a/b target), two under c, three under d.
///   0:r -> 1:a, 2:c, 3:d;  1:a -> 4:b;  2:c -> 5:b, 6:b;
///   3:d -> 7:b, 8:b, 9:b
inline DataGraph MakeFigure3Graph() {
  return MakeGraph({"r", "a", "c", "d", "b", "b", "b", "b", "b", "b"},
                   {{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 5}, {2, 6},
                    {3, 7}, {3, 8}, {3, 9}});
}

/// A graph engineered for the Figure 4 "overqualified parents" scenario:
/// two b nodes that are 1-bisimilar but not 2-bisimilar (their a parents
/// hang under differently-labeled grandparents), each with one c child.
/// The c children (5, 6) are 1-bisimilar and must stay together under a
/// correct //b/c refinement.
///   0:r -> 1:a, 7:q;  7:q -> 2:a;  1:a -> 3:b;  2:a -> 4:b;
///   3:b -> 5:c;  4:b -> 6:c
inline DataGraph MakeOverqualifiedGraph() {
  return MakeGraph({"r", "a", "a", "b", "b", "c", "c", "q"},
                   {{0, 1}, {0, 7}, {7, 2}, {1, 3}, {2, 4}, {3, 5},
                    {4, 6}});
}

/// The paper's Figure 1 auction-site toy graph (labels and the documented
/// target sets; reference edges dashed in the figure are plain directed
/// edges here, as in the paper's model).
inline DataGraph MakeFigure1Graph() {
  DataGraphBuilder b;
  const char* labels[] = {"root",   "site",   "regions", "people",
                          "auctions", "africa", "asia",   "person",
                          "person", "person", "auction", "auction",
                          "item",   "item",   "item",    "seller",
                          "bidder", "bidder", "seller",  "item",
                          "item"};
  for (const char* l : labels) b.AddNode(l);
  const std::pair<NodeId, NodeId> regular[] = {
      {0, 1},  {1, 2},  {1, 3},  {1, 4},  {2, 5},  {2, 6},  {3, 7},
      {3, 8},  {3, 9},  {4, 10}, {4, 11}, {5, 12}, {6, 13}, {6, 14},
      {10, 15}, {10, 16}, {10, 19}, {11, 17}, {11, 18}, {11, 20}};
  for (auto [u, v] : regular) b.AddEdge(u, v);
  const std::pair<NodeId, NodeId> references[] = {
      {15, 7}, {16, 8}, {17, 8}, {18, 9}, {19, 12}, {20, 13}};
  for (auto [u, v] : references) b.AddEdge(u, v, EdgeKind::kReference);
  b.SetRoot(0);
  return std::move(std::move(b).Build()).value();
}

/// Reference (oracle) k-bisimilarity check, straight from Definition 2,
/// memoized pairwise. Exponential-ish, for small test graphs only.
class ReferenceBisimilarity {
 public:
  explicit ReferenceBisimilarity(const DataGraph& g) : g_(g) {}

  bool Bisimilar(NodeId u, NodeId v, int k) {
    if (g_.label(u) != g_.label(v)) return false;
    if (k <= 0) return true;
    if (u == v) return true;
    auto key = std::make_tuple(std::min(u, v), std::max(u, v), k);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    memo_[key] = true;  // Coinductive default for cycles.
    bool ok = MatchParents(u, v, k) && MatchParents(v, u, k);
    memo_[key] = ok;
    return ok;
  }

 private:
  bool MatchParents(NodeId u, NodeId v, int k) {
    for (NodeId up : g_.parents(u)) {
      bool matched = false;
      for (NodeId vp : g_.parents(v)) {
        if (Bisimilar(up, vp, k - 1)) {
          matched = true;
          break;
        }
      }
      if (!matched) return false;
    }
    return true;
  }

  const DataGraph& g_;
  std::map<std::tuple<NodeId, NodeId, int>, bool> memo_;
};

/// Random rooted digraph: a tree backbone over `num_nodes` nodes plus
/// `extra_edges` arbitrary edges (cycles and multi-parents allowed), with
/// labels drawn from `num_labels` choices. Deterministic in `seed`.
inline DataGraph RandomGraph(uint64_t seed, size_t num_nodes,
                             size_t num_labels, size_t extra_edges) {
  Rng rng(seed);
  DataGraphBuilder builder;
  for (size_t i = 0; i < num_nodes; ++i) {
    builder.AddNode("l" + std::to_string(rng.Below(num_labels)));
  }
  for (NodeId v = 1; v < num_nodes; ++v) {
    builder.AddEdge(static_cast<NodeId>(rng.Below(v)), v);
  }
  for (size_t e = 0; e < extra_edges; ++e) {
    NodeId u = static_cast<NodeId>(rng.Below(num_nodes));
    NodeId v = static_cast<NodeId>(rng.Below(num_nodes));
    builder.AddEdge(u, v, rng.Chance(0.5) ? EdgeKind::kReference
                                          : EdgeKind::kRegular);
  }
  builder.SetRoot(0);
  return std::move(std::move(builder).Build()).value();
}

/// Verifies that every alive index node's extent is k-bisimilar for its
/// recorded k (the paper's Property 1), against the oracle.
inline ::testing::AssertionResult ExtentsAreKBisimilar(
    const IndexGraph& ig, int32_t k_cap = 64) {
  ReferenceBisimilarity ref(ig.data());
  for (IndexNodeId v = 0; v < ig.capacity(); ++v) {
    if (!ig.alive(v)) continue;
    const auto& node = ig.node(v);
    int32_t k = std::min(node.k, k_cap);
    const std::vector<NodeId> extent = node.extent.ids();
    for (size_t i = 1; i < extent.size(); ++i) {
      if (!ref.Bisimilar(extent[0], extent[i], k)) {
        return ::testing::AssertionFailure()
               << "index node " << v << " (k=" << node.k << ") holds "
               << extent[0] << " and " << extent[i]
               << " which are not " << k << "-bisimilar";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Verifies the paper's Property 3: parent.k >= child.k - 1.
inline ::testing::AssertionResult SatisfiesProperty3(const IndexGraph& ig) {
  for (IndexNodeId v = 0; v < ig.capacity(); ++v) {
    if (!ig.alive(v)) continue;
    for (IndexNodeId c : ig.node(v).children) {
      if (ig.node(v).k < ig.node(c).k - 1) {
        return ::testing::AssertionFailure()
               << "edge " << v << " (k=" << ig.node(v).k << ") -> " << c
               << " (k=" << ig.node(c).k << ") violates Property 3";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace mrx::testing

#endif  // MRX_TESTS_TEST_UTIL_H_
