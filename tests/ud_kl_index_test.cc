#include <gtest/gtest.h>

#include <map>
#include <set>

#include "index/a_k_index.h"
#include "index/ud_kl_index.h"
#include "query/data_evaluator.h"
#include "tests/test_util.h"

namespace mrx {
namespace {

using mrx::testing::MakeFigure1Graph;
using mrx::testing::MakeGraph;
using mrx::testing::RandomGraph;

PathExpression Q(const DataGraph& g, std::string_view text) {
  return std::move(PathExpression::Parse(text, g.symbols())).value();
}

/// Oracle: the set of outgoing label paths of length ≤ l from `n`.
std::set<std::vector<LabelId>> OutgoingPaths(const DataGraph& g, NodeId n,
                                             int l) {
  std::set<std::vector<LabelId>> out;
  std::vector<std::pair<NodeId, std::vector<LabelId>>> frontier = {
      {n, {g.label(n)}}};
  out.insert({g.label(n)});
  for (int depth = 0; depth < l; ++depth) {
    std::vector<std::pair<NodeId, std::vector<LabelId>>> next;
    for (const auto& [node, labels] : frontier) {
      for (NodeId c : g.children(node)) {
        std::vector<LabelId> extended = labels;
        extended.push_back(g.label(c));
        out.insert(extended);
        next.emplace_back(c, std::move(extended));
      }
    }
    frontier = std::move(next);
  }
  return out;
}

TEST(DownBisimulationTest, ZeroIsLabelPartition) {
  DataGraph g = MakeFigure1Graph();
  BisimulationPartition part = ComputeDownBisimulation(g, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(part.block_of[u] == part.block_of[v],
                g.label(u) == g.label(v));
    }
  }
}

TEST(DownBisimulationTest, SeparatesByChildren) {
  // Two b nodes: one with a c child, one without.
  DataGraph g = MakeGraph({"r", "b", "b", "c"}, {{0, 1}, {0, 2}, {1, 3}});
  BisimulationPartition part = ComputeDownBisimulation(g, 1);
  EXPECT_NE(part.block_of[1], part.block_of[2]);
  // The up-bisimulation keeps them together at any k.
  BisimulationPartition up = ComputeKBisimulation(g, 5);
  EXPECT_EQ(up.block_of[1], up.block_of[2]);
}

TEST(DownBisimulationTest, BlocksShareOutgoingPaths) {
  DataGraph g = RandomGraph(11, 40, 4, 20);
  for (int l = 0; l <= 3; ++l) {
    BisimulationPartition part = ComputeDownBisimulation(g, l);
    std::map<uint32_t, NodeId> representative;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      auto [it, inserted] = representative.emplace(part.block_of[n], n);
      if (!inserted) {
        EXPECT_EQ(OutgoingPaths(g, n, l), OutgoingPaths(g, it->second, l))
            << "l=" << l << " nodes " << n << "," << it->second;
      }
    }
  }
}

TEST(UdklIndexTest, RefinesAk) {
  DataGraph g = RandomGraph(13, 60, 4, 30);
  for (int k = 0; k <= 2; ++k) {
    AkIndex ak(g, k);
    UdklIndex ud(g, k, 2);
    EXPECT_GE(ud.graph().num_nodes(), ak.graph().num_nodes());
    // Every UD block is within one A(k) block.
    for (IndexNodeId v : ud.graph().AliveNodes()) {
      const auto& extent = ud.graph().node(v).extent;
      IndexNodeId ak_node = ak.graph().index_of(extent.front());
      for (NodeId o : extent) {
        EXPECT_EQ(ak.graph().index_of(o), ak_node);
      }
    }
  }
}

TEST(UdklIndexTest, ExtentsAreUpKBisimilar) {
  DataGraph g = RandomGraph(17, 50, 4, 25);
  UdklIndex ud(g, 2, 1);
  EXPECT_TRUE(mrx::testing::ExtentsAreKBisimilar(ud.graph()));
}

TEST(UdklIndexTest, ExtentsShareOutgoingPaths) {
  DataGraph g = RandomGraph(19, 40, 3, 20);
  const int l = 2;
  UdklIndex ud(g, 1, l);
  for (IndexNodeId v : ud.graph().AliveNodes()) {
    const std::vector<NodeId> extent = ud.graph().node(v).extent.ids();
    for (size_t i = 1; i < extent.size(); ++i) {
      EXPECT_EQ(OutgoingPaths(g, extent[0], l),
                OutgoingPaths(g, extent[i], l));
    }
  }
}

TEST(UdklIndexTest, QueriesAreExact) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  UdklIndex ud(g, 2, 2);
  for (const char* text :
       {"//person", "//site/people/person", "//auction/seller/person",
        "//site/regions/*/item"}) {
    PathExpression p = Q(g, text);
    EXPECT_EQ(ud.Query(p).answer, eval.Evaluate(p)) << text;
  }
}

TEST(UdklIndexTest, PreciseUpToK) {
  DataGraph g = MakeFigure1Graph();
  UdklIndex ud(g, 3, 1);
  QueryResult r = ud.Query(Q(g, "//site/people/person"));
  EXPECT_TRUE(r.precise);
  EXPECT_EQ(r.stats.data_nodes_validated, 0u);
}

TEST(UdklIndexTest, DownwardChecksBecomeBlockUniform) {
  // The §4.1 connection: with down-uniform extents, "does this index
  // node's extent have the suffix outgoing?" has one answer per node —
  // no data-level re-checking needed for suffixes ≤ l. Verify on random
  // graphs: for every UD node and label pair (a, b), either every member
  // has an outgoing a/b path or none does.
  DataGraph g = RandomGraph(23, 40, 3, 20);
  UdklIndex ud(g, 1, 2);
  DataEvaluator eval(g);
  const SymbolTable& symbols = g.symbols();
  for (IndexNodeId v : ud.graph().AliveNodes()) {
    const auto& extent = ud.graph().node(v).extent;
    for (LabelId b = 0; b < symbols.size(); ++b) {
      // Outgoing path label(v)/b of length 1 ≤ l.
      PathExpression down({ud.graph().node(v).label, b}, false);
      size_t with = 0;
      for (NodeId o : extent) {
        for (NodeId c : g.children(o)) {
          if (g.label(c) == b) {
            ++with;
            break;
          }
        }
      }
      EXPECT_TRUE(with == 0 || with == extent.size())
          << "node " << v << " label " << symbols.Name(b);
    }
  }
}

}  // namespace
}  // namespace mrx
