// Tests for the descendant axis ("a//b") across the whole stack: data
// evaluation, validation, and every index. Such expressions are always
// answered through validation (no finite local similarity certifies an
// unbounded-length instance) but must always be exact.

#include <gtest/gtest.h>

#include "index/a_k_index.h"
#include "index/d_k_index.h"
#include "index/m_k_index.h"
#include "index/m_star_index.h"
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

TEST(DescendantAxisTest, DataEvaluationBasics) {
  //      r
  //      |
  //      a
  //     / \
  //    x   b
  //    |
  //    b
  DataGraph g = MakeGraph({"r", "a", "x", "b", "b"},
                          {{0, 1}, {1, 2}, {2, 3}, {1, 4}});
  DataEvaluator eval(g);
  // a//b: both the direct child (4) and the one below x (3).
  EXPECT_EQ(eval.Evaluate(Q(g, "//a//b")), (std::vector<NodeId>{3, 4}));
  // a/b: only the direct child.
  EXPECT_EQ(eval.Evaluate(Q(g, "//a/b")), (std::vector<NodeId>{4}));
  // r//b: everything below the root labeled b.
  EXPECT_EQ(eval.Evaluate(Q(g, "//r//b")), (std::vector<NodeId>{3, 4}));
}

TEST(DescendantAxisTest, OneOrMoreEdges) {
  // a//a requires at least one edge: a node does not match itself unless
  // a cycle brings it back.
  DataGraph g = MakeGraph({"r", "a", "a"}, {{0, 1}, {1, 2}});
  DataEvaluator eval(g);
  EXPECT_EQ(eval.Evaluate(Q(g, "//a//a")), (std::vector<NodeId>{2}));

  DataGraph cyclic = MakeGraph({"r", "a", "b"}, {{0, 1}, {1, 2}, {2, 1}});
  DataEvaluator cyclic_eval(cyclic);
  // The cycle a -> b -> a makes node 1 its own descendant.
  EXPECT_EQ(cyclic_eval.Evaluate(Q(cyclic, "//a//a")),
            (std::vector<NodeId>{1}));
}

TEST(DescendantAxisTest, MixedAxesAndWildcard) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  // Every item anywhere below site, vs only region items via the child
  // chain.
  PathExpression deep = Q(g, "//site//item");
  std::vector<NodeId> items = eval.Evaluate(deep);
  // items 12,13,14 under regions; 19,20 under auctions.
  EXPECT_EQ(items, (std::vector<NodeId>{12, 13, 14, 19, 20}));
  PathExpression mixed = Q(g, "//site//*/person");
  EXPECT_EQ(eval.Evaluate(mixed), (std::vector<NodeId>{7, 8, 9}));
}

TEST(DescendantAxisTest, HasIncomingPathAgrees) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  for (const char* text :
       {"//site//item", "//root//person", "//auctions//person",
        "//regions//item", "//a//missing"}) {
    PathExpression p = Q(g, text);
    std::vector<NodeId> expected = eval.Evaluate(p);
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      EXPECT_EQ(eval.HasIncomingPath(n, p),
                std::binary_search(expected.begin(), expected.end(), n))
          << text << " node " << n;
    }
  }
}

TEST(DescendantAxisTest, AnchoredDescendant) {
  DataGraph g = MakeGraph({"r", "x", "r", "b", "b"},
                          {{0, 1}, {1, 3}, {0, 2}, {2, 4}});
  DataEvaluator eval(g);
  // /r//b from the root reaches both; the inner r only reaches 4.
  EXPECT_EQ(eval.Evaluate(Q(g, "/r//b")), (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(eval.Evaluate(Q(g, "//r//b")), (std::vector<NodeId>{3, 4}));
}

TEST(DescendantAxisTest, AllIndexesAnswerExactly) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  const char* queries[] = {"//site//item", "//root//person",
                           "//auctions//person", "//regions//item",
                           "//site//bidder/person"};

  AkIndex a2(g, 2);
  OneIndex one(g);
  DkIndex dkc = DkIndex::Construct(g, {Q(g, "//site/people/person")});
  MkIndex mk(g);
  mk.Refine(Q(g, "//site/people/person"));
  MStarIndex mstar(g);
  mstar.Refine(Q(g, "//site/people/person"));

  for (const char* text : queries) {
    PathExpression p = Q(g, text);
    std::vector<NodeId> expected = eval.Evaluate(p);
    EXPECT_EQ(a2.Query(p).answer, expected) << text;
    EXPECT_EQ(one.Query(p).answer, expected) << text;
    EXPECT_EQ(dkc.Query(p).answer, expected) << text;
    EXPECT_EQ(mk.Query(p).answer, expected) << text;
    EXPECT_EQ(mstar.QueryNaive(p, &eval).answer, expected) << text;
    EXPECT_EQ(mstar.QueryTopDown(p, &eval).answer, expected) << text;
    EXPECT_EQ(mstar.QueryBottomUp(p, &eval).answer, expected) << text;
    EXPECT_EQ(mstar.QueryHybrid(p, &eval).answer, expected) << text;
    // Never claimed precise, even by the 1-index.
    EXPECT_FALSE(one.Query(p).precise) << text;
  }
}

TEST(DescendantAxisTest, RefineIsANoOpForDescendantFups) {
  DataGraph g = MakeFigure1Graph();
  MkIndex mk(g);
  MStarIndex mstar(g);
  DkIndex dk(g);
  size_t mk_nodes = mk.graph().num_nodes();
  PathExpression p = Q(g, "//site//person");
  mk.Refine(p);
  mstar.Refine(p);
  dk.Promote(p);
  EXPECT_EQ(mk.graph().num_nodes(), mk_nodes);
  EXPECT_EQ(mstar.num_components(), 1u);
  EXPECT_EQ(dk.graph().num_nodes(), mk_nodes);
}

TEST(DescendantAxisTest, RandomGraphSweep) {
  for (uint64_t seed : {501, 502, 503}) {
    DataGraph g = RandomGraph(seed, 50, 4, 25);
    DataEvaluator eval(g);
    const SymbolTable& symbols = g.symbols();
    MStarIndex mstar(g);
    // Refine some plain FUPs so components exist.
    int refined = 0;
    for (LabelId a = 0; a < symbols.size() && refined < 2; ++a) {
      for (LabelId b = 0; b < symbols.size() && refined < 2; ++b) {
        PathExpression p({a, b}, false);
        if (!eval.Evaluate(p).empty()) {
          mstar.Refine(p);
          ++refined;
        }
      }
    }
    for (LabelId a = 0; a < symbols.size(); ++a) {
      for (LabelId b = 0; b < symbols.size(); ++b) {
        PathExpression p({a, b}, {0, 1}, false);  // //a//b
        std::vector<NodeId> expected = eval.Evaluate(p);
        ASSERT_EQ(mstar.QueryNaive(p, &eval).answer, expected);
        ASSERT_EQ(mstar.QueryTopDown(p, &eval).answer, expected);
      }
    }
  }
}

TEST(DescendantAxisTest, SubpathClearsLeadingAxis) {
  SymbolTable symbols;
  symbols.Intern("a");
  symbols.Intern("b");
  symbols.Intern("c");
  auto p = PathExpression::Parse("//a//b//c", symbols);
  ASSERT_TRUE(p.ok());
  PathExpression sub = p->Subpath(1, 2);  // b//c
  EXPECT_FALSE(sub.DescendantStep(0));
  EXPECT_TRUE(sub.DescendantStep(1));
  EXPECT_EQ(sub.ToString(symbols), "//b//c");
}

}  // namespace
}  // namespace mrx
