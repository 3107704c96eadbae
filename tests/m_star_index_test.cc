#include <gtest/gtest.h>

#include "index/m_k_index.h"
#include "index/m_star_index.h"
#include "query/data_evaluator.h"
#include "tests/test_util.h"

namespace mrx {
namespace {

using mrx::testing::MakeFigure3Graph;
using mrx::testing::MakeGraph;
using mrx::testing::MakeOverqualifiedGraph;
using mrx::testing::RandomGraph;

PathExpression Q(const DataGraph& g, std::string_view text) {
  return std::move(PathExpression::Parse(text, g.symbols())).value();
}

TEST(MStarIndexTest, StartsWithSingleA0Component) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  EXPECT_EQ(index.num_components(), 1u);
  EXPECT_EQ(index.component(0).num_nodes(), 5u);
  EXPECT_TRUE(index.CheckProperties().ok());
}

TEST(MStarIndexTest, RefineCreatesComponentsUpToFupLength) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  index.Refine(Q(g, "//r/a/b"));
  EXPECT_EQ(index.num_components(), 3u);
  EXPECT_TRUE(index.CheckProperties().ok()) << index.CheckProperties();
}

TEST(MStarIndexTest, ComponentZeroStaysCoarse) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  index.Refine(Q(g, "//r/a/b"));
  // I0 keeps the label partition: multiresolution means the coarse view
  // survives refinement.
  EXPECT_EQ(index.component(0).num_nodes(), 5u);
}

TEST(MStarIndexTest, FinestComponentSupportsFup) {
  DataGraph g = MakeFigure3Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  PathExpression p = Q(g, "//r/a/b");
  index.Refine(p);
  for (QueryResult r :
       {index.QueryNaive(p, &eval), index.QueryTopDown(p, &eval)}) {
    EXPECT_TRUE(r.precise);
    EXPECT_EQ(r.stats.data_nodes_validated, 0u);
    EXPECT_EQ(r.answer, eval.Evaluate(p));
  }
}

TEST(MStarIndexTest, AvoidsOverqualifiedParentSplit) {
  // The §4 headline: where D(k)-promote and M(k) split the 1-bisimilar c
  // nodes (Figure 4), M*(k) keeps them together by consulting the
  // perfectly qualified parents in the previous component.
  DataGraph g = MakeOverqualifiedGraph();
  MStarIndex mstar(g);
  MkIndex mk(g);
  for (const char* fup : {"//r/a/b", "//b/c"}) {
    mstar.Refine(Q(g, fup));
    mk.Refine(Q(g, fup));
  }
  ASSERT_TRUE(mstar.CheckProperties().ok()) << mstar.CheckProperties();
  // M(k) over-refines...
  EXPECT_NE(mk.graph().index_of(5), mk.graph().index_of(6));
  // ...M*(k) does not: in the finest component holding //b/c's targets
  // (I1), nodes 5 and 6 share an index node with k = 1.
  const IndexGraph& i1 = mstar.component(1);
  EXPECT_EQ(i1.index_of(5), i1.index_of(6));
  EXPECT_EQ(i1.node(i1.index_of(5)).k, 1);
  // Both FUPs remain precise.
  DataEvaluator eval(g);
  for (const char* fup : {"//r/a/b", "//b/c"}) {
    QueryResult r = mstar.QueryTopDown(Q(g, fup), &eval);
    EXPECT_TRUE(r.precise) << fup;
    EXPECT_EQ(r.answer, eval.Evaluate(Q(g, fup)));
  }
}

TEST(MStarIndexTest, QueryStrategiesAgree) {
  DataGraph g = RandomGraph(81, 60, 4, 30);
  DataEvaluator eval(g);
  MStarIndex index(g);
  const SymbolTable& symbols = g.symbols();
  std::vector<PathExpression> fups;
  for (LabelId a = 0; a < symbols.size() && fups.size() < 4; ++a) {
    for (LabelId b = 0; b < symbols.size() && fups.size() < 4; ++b) {
      PathExpression p({a, b}, false);
      if (!eval.Evaluate(p).empty()) fups.push_back(p);
    }
  }
  for (const PathExpression& p : fups) index.Refine(p);
  ASSERT_TRUE(index.CheckProperties().ok()) << index.CheckProperties();
  for (const PathExpression& p : fups) {
    std::vector<NodeId> expected = eval.Evaluate(p);
    EXPECT_EQ(index.QueryNaive(p, &eval).answer, expected);
    EXPECT_EQ(index.QueryTopDown(p, &eval).answer, expected);
    EXPECT_EQ(index.QueryWithPrefilter(p, 0, p.num_steps() - 1, &eval).answer,
              expected);
    EXPECT_EQ(index.QueryWithPrefilter(p, p.num_steps() - 1,
                                       p.num_steps() - 1, &eval)
                  .answer,
              expected);
  }
}

TEST(MStarIndexTest, UnrefinedQueriesAreExactViaValidation) {
  DataGraph g = MakeFigure3Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  PathExpression p = Q(g, "//c/b");
  EXPECT_EQ(index.QueryNaive(p, &eval).answer, eval.Evaluate(p));
  EXPECT_EQ(index.QueryTopDown(p, &eval).answer, eval.Evaluate(p));
}

TEST(MStarIndexTest, PhysicalSizeSkipsDuplicates) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  // Before any refinement: only I0 counts.
  EXPECT_EQ(index.PhysicalNodeCount(), 5u);
  EXPECT_EQ(index.PhysicalEdgeCount(), 6u);
  index.Refine(Q(g, "//r/a/b"));
  // I1 and I2 only pay for nodes that actually split. The b node splits
  // into {4} and {5..9} (I1/I2 and the I2 copy of the split pieces are
  // duplicates of each other where extents are equal).
  size_t nodes = index.PhysicalNodeCount();
  EXPECT_LT(nodes, 5u + index.component(1).num_nodes() +
                       index.component(2).num_nodes());
  EXPECT_GE(nodes, 5u + 2u);  // At least the split pieces count once.
  // The one-walk form agrees with the separate counts.
  EXPECT_EQ(index.Physical().nodes, nodes);
  EXPECT_EQ(index.Physical().edges, index.PhysicalEdgeCount());
}

TEST(MStarIndexTest, GrowsMonotonicallyWithRefinement) {
  DataGraph g = RandomGraph(91, 60, 5, 30);
  DataEvaluator eval(g);
  MStarIndex index(g);
  size_t prev_nodes = index.PhysicalNodeCount();
  const SymbolTable& symbols = g.symbols();
  int refined = 0;
  for (LabelId a = 0; a < symbols.size() && refined < 5; ++a) {
    for (LabelId b = 0; b < symbols.size() && refined < 5; ++b) {
      for (LabelId c = 0; c < symbols.size() && refined < 5; ++c) {
        PathExpression p({a, b, c}, false);
        if (eval.Evaluate(p).empty()) continue;
        index.Refine(p);
        ++refined;
        ASSERT_TRUE(index.CheckProperties().ok())
            << index.CheckProperties();
        size_t nodes = index.PhysicalNodeCount();
        EXPECT_GE(nodes, prev_nodes);
        prev_nodes = nodes;
      }
    }
  }
  EXPECT_GT(refined, 0);
}

TEST(MStarIndexTest, ComponentExtentsAreKBisimilar) {
  DataGraph g = RandomGraph(95, 50, 4, 25);
  DataEvaluator eval(g);
  MStarIndex index(g);
  const SymbolTable& symbols = g.symbols();
  int refined = 0;
  for (LabelId a = 0; a < symbols.size() && refined < 4; ++a) {
    for (LabelId b = 0; b < symbols.size() && refined < 4; ++b) {
      PathExpression p({a, b}, false);
      if (eval.Evaluate(p).empty()) continue;
      index.Refine(p);
      ++refined;
    }
  }
  for (size_t i = 0; i < index.num_components(); ++i) {
    EXPECT_TRUE(mrx::testing::ExtentsAreKBisimilar(index.component(i)))
        << "component " << i;
  }
}

TEST(MStarIndexTest, TopDownVisitsFewerNodesThanNaiveOnShortQueries) {
  // Refine with a long FUP so the finest component is much bigger than
  // I0/I1; then a short query should be cheaper top-down (it never has to
  // scan the finest component's full label row).
  DataGraph g = RandomGraph(99, 120, 4, 60);
  DataEvaluator eval(g);
  MStarIndex index(g);
  const SymbolTable& symbols = g.symbols();
  int refined = 0;
  for (LabelId a = 0; a < symbols.size() && refined < 3; ++a) {
    for (LabelId b = 0; b < symbols.size() && refined < 3; ++b) {
      for (LabelId c = 0; c < symbols.size() && refined < 3; ++c) {
        for (LabelId d = 0; d < symbols.size() && refined < 3; ++d) {
          PathExpression p({a, b, c, d}, false);
          if (eval.Evaluate(p).empty()) continue;
          index.Refine(p);
          ++refined;
        }
      }
    }
  }
  ASSERT_GT(refined, 0);
  // Average over all single-label queries.
  uint64_t naive_cost = 0, topdown_cost = 0;
  for (LabelId l = 0; l < symbols.size(); ++l) {
    PathExpression p({l}, false);
    naive_cost += index.QueryNaive(p, &eval).stats.total();
    topdown_cost += index.QueryTopDown(p, &eval).stats.total();
    EXPECT_EQ(index.QueryNaive(p, &eval).answer,
              index.QueryTopDown(p, &eval).answer);
  }
  EXPECT_LE(topdown_cost, naive_cost);
}

TEST(MStarIndexTest, ZeroLengthFupNeedsNoComponents) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  index.Refine(Q(g, "//b"));
  EXPECT_EQ(index.num_components(), 1u);
}

TEST(MStarIndexTest, SupernodeLinksAreConsistent) {
  DataGraph g = RandomGraph(103, 40, 4, 20);
  DataEvaluator eval(g);
  MStarIndex index(g);
  const SymbolTable& symbols = g.symbols();
  int refined = 0;
  for (LabelId a = 0; a < symbols.size() && refined < 3; ++a) {
    for (LabelId b = 0; b < symbols.size() && refined < 3; ++b) {
      PathExpression p({a, b}, false);
      if (eval.Evaluate(p).empty()) continue;
      index.Refine(p);
      ++refined;
    }
  }
  for (size_t i = 1; i < index.num_components(); ++i) {
    const IndexGraph& comp = index.component(i);
    const IndexGraph& prev = index.component(i - 1);
    for (IndexNodeId v = 0; v < comp.capacity(); ++v) {
      if (!comp.alive(v)) continue;
      IndexNodeId sup = index.supernode(i, v);
      ASSERT_NE(sup, kInvalidIndexNode);
      EXPECT_EQ(sup, prev.index_of(comp.node(v).extent.front()));
    }
  }
}

}  // namespace
}  // namespace mrx
