// Focused tests of the M*(k) query strategies on edge cases: queries
// longer than the finest component, prefilter boundary positions, anchored
// paths, wildcard steps, and cost accounting between strategies.

#include <gtest/gtest.h>

#include "index/m_star_index.h"
#include "query/data_evaluator.h"
#include "tests/test_util.h"

namespace mrx {
namespace {

using mrx::testing::MakeFigure1Graph;
using mrx::testing::MakeFigure3Graph;
using mrx::testing::MakeGraph;
using mrx::testing::RandomGraph;

PathExpression Q(const DataGraph& g, std::string_view text) {
  return std::move(PathExpression::Parse(text, g.symbols())).value();
}

TEST(MStarQueryTest, QueryLongerThanFinestComponent) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  index.Refine(Q(g, "//people/person"));  // Creates I1 only.
  ASSERT_EQ(index.num_components(), 2u);
  PathExpression longer = Q(g, "//root/site/people/person");
  EXPECT_EQ(index.QueryTopDown(longer, &eval).answer, eval.Evaluate(longer));
  EXPECT_EQ(index.QueryNaive(longer, &eval).answer, eval.Evaluate(longer));
  EXPECT_EQ(index.QueryWithPrefilter(longer, 2, 3, &eval).answer,
            eval.Evaluate(longer));
}

TEST(MStarQueryTest, PrefilterAtEveryBoundary) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  PathExpression p = Q(g, "//site/auctions/auction/seller/person");
  index.Refine(p);
  std::vector<NodeId> expected = eval.Evaluate(p);
  ASSERT_FALSE(expected.empty());
  for (size_t b = 0; b < p.num_steps(); ++b) {
    for (size_t e = b; e < p.num_steps(); ++e) {
      EXPECT_EQ(index.QueryWithPrefilter(p, b, e, &eval).answer, expected)
          << "subpath [" << b << "," << e << "]";
    }
  }
}

TEST(MStarQueryTest, AnchoredTopDown) {
  DataGraph g = MakeGraph({"r", "a", "r", "a"}, {{0, 1}, {0, 2}, {2, 3}});
  DataEvaluator eval(g);
  MStarIndex index(g);
  PathExpression anchored = Q(g, "/r/a");
  EXPECT_EQ(index.QueryTopDown(anchored, &eval).answer,
            eval.Evaluate(anchored));
  EXPECT_EQ(index.QueryTopDown(anchored, &eval).answer,
            (std::vector<NodeId>{1}));
  EXPECT_FALSE(index.QueryTopDown(anchored, &eval).precise);
}

TEST(MStarQueryTest, WildcardTopDown) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  PathExpression p = Q(g, "//site/regions/*/item");
  EXPECT_EQ(index.QueryTopDown(p, &eval).answer, eval.Evaluate(p));
  EXPECT_EQ(index.QueryTopDown(p, &eval).answer,
            (std::vector<NodeId>{12, 13, 14}));
}

TEST(MStarQueryTest, RefinedWildcardFupBecomesPrecise) {
  DataGraph g = MakeFigure1Graph();
  MStarIndex index(g);
  DataEvaluator eval(g);
  PathExpression p = Q(g, "//site/regions/*/item");
  index.Refine(p);
  ASSERT_TRUE(index.CheckProperties().ok()) << index.CheckProperties();
  QueryResult r = index.QueryNaive(p, &eval);
  EXPECT_TRUE(r.precise);
  EXPECT_EQ(r.answer, (std::vector<NodeId>{12, 13, 14}));
}

TEST(MStarQueryTest, TopDownCostCountsDescentAndFrontiers) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  DataEvaluator eval(g);
  index.Refine(Q(g, "//r/a/b"));
  QueryResult r = index.QueryTopDown(Q(g, "//r/a/b"), &eval);
  // Level 0 visits r in I0 (1), descends into I1 (1 subnode) and steps to
  // a (1), descends into I2 (1) and steps to b (1): small but non-zero.
  EXPECT_GE(r.stats.index_nodes_visited, 5u);
  EXPECT_EQ(r.stats.data_nodes_validated, 0u);
}

TEST(MStarQueryTest, UnknownLabelQueriesAreEmptyEverywhere) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  DataEvaluator eval(g);
  index.Refine(Q(g, "//r/a/b"));
  PathExpression p = Q(g, "//does/not/exist");
  EXPECT_TRUE(index.QueryNaive(p, &eval).answer.empty());
  EXPECT_TRUE(index.QueryTopDown(p, &eval).answer.empty());
  EXPECT_TRUE(index.QueryWithPrefilter(p, 0, 2, &eval).answer.empty());
}

TEST(MStarQueryTest, StrategiesAgreeOnLongRandomQueries) {
  DataGraph g = RandomGraph(123, 80, 4, 40);
  DataEvaluator eval(g);
  MStarIndex index(g);
  // Refine a couple of length-5 FUPs to build deep components.
  const SymbolTable& symbols = g.symbols();
  int refined = 0;
  for (LabelId a = 0; a < symbols.size() && refined < 2; ++a) {
    for (LabelId b = 0; b < symbols.size() && refined < 2; ++b) {
      PathExpression p({a, b, a, b, a, b}, false);
      if (eval.Evaluate(p).empty()) continue;
      index.Refine(p);
      ++refined;
    }
  }
  ASSERT_TRUE(index.CheckProperties().ok()) << index.CheckProperties();
  // Cross-check strategies on a batch of random two- and four-step paths.
  for (LabelId a = 0; a < symbols.size(); ++a) {
    for (LabelId b = 0; b < symbols.size(); ++b) {
      PathExpression p({a, b, a, b}, false);
      std::vector<NodeId> expected = eval.Evaluate(p);
      ASSERT_EQ(index.QueryNaive(p, &eval).answer, expected);
      ASSERT_EQ(index.QueryTopDown(p, &eval).answer, expected);
      ASSERT_EQ(index.QueryWithPrefilter(p, 1, 2, &eval).answer, expected);
    }
  }
}

TEST(MStarQueryTest, PrefilterSingleStepSubpath) {
  DataGraph g = MakeFigure3Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  PathExpression p = Q(g, "//r/a/b");
  // Subpath = just the final label.
  EXPECT_EQ(index.QueryWithPrefilter(p, 2, 2, &eval).answer, eval.Evaluate(p));
  // Subpath = just the first label.
  EXPECT_EQ(index.QueryWithPrefilter(p, 0, 0, &eval).answer, eval.Evaluate(p));
}

}  // namespace
}  // namespace mrx
