// Tests for the §4.1 "Other approaches" strategies: bottom-up and hybrid
// evaluation on the M*(k)-index. Both must agree exactly with the data
// graph; bottom-up's downward-check overhead should be visible in the
// stats on structures where subnodes lose outgoing paths.

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

TEST(MStarBottomUpTest, MatchesGroundTruthOnFigure1) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  index.Refine(Q(g, "//site/people/person"));
  for (const char* text :
       {"//person", "//site/people/person", "//auction/seller/person",
        "//site/regions/*/item", "//root/site/auctions/auction",
        "//auction/bidder/person"}) {
    PathExpression p = Q(g, text);
    EXPECT_EQ(index.QueryBottomUp(p, &eval).answer, eval.Evaluate(p)) << text;
    EXPECT_EQ(index.QueryHybrid(p, &eval).answer, eval.Evaluate(p)) << text;
  }
}

TEST(MStarBottomUpTest, SingleLabelQuery) {
  DataGraph g = MakeFigure3Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  PathExpression p = Q(g, "//b");
  EXPECT_EQ(index.QueryBottomUp(p, &eval).answer, eval.Evaluate(p));
  EXPECT_EQ(index.QueryHybrid(p, &eval).answer, eval.Evaluate(p));
}

TEST(MStarBottomUpTest, AnchoredFallsBackToTopDown) {
  DataGraph g = MakeFigure3Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  PathExpression p = Q(g, "/r/a/b");
  EXPECT_EQ(index.QueryBottomUp(p, &eval).answer, eval.Evaluate(p));
  EXPECT_EQ(index.QueryHybrid(p, &eval).answer, eval.Evaluate(p));
}

TEST(MStarBottomUpTest, EmptyAnswerQueries) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  DataEvaluator eval(g);
  index.Refine(Q(g, "//r/a/b"));
  for (const char* text : {"//b/a", "//a/b/c", "//missing/label"}) {
    EXPECT_TRUE(index.QueryBottomUp(Q(g, text), &eval).answer.empty()) << text;
    EXPECT_TRUE(index.QueryHybrid(Q(g, text), &eval).answer.empty()) << text;
  }
}

TEST(MStarBottomUpTest, DownwardCheckPrunesLostSuffixes) {
  // Two b nodes 0-bisimilar; only one has a c child. After refinement
  // splits them in I1, the subnode of the childless b loses the outgoing
  // path — exactly the situation §4.1 says bottom-up must re-check.
  DataGraph g = MakeGraph({"r", "a", "b", "b", "c"},
                          {{0, 1}, {1, 2}, {1, 3}, {2, 4}});
  DataEvaluator eval(g);
  MStarIndex index(g);
  index.Refine(Q(g, "//a/b"));  // Builds I1 and splits nothing vital.
  PathExpression p = Q(g, "//a/b/c");
  QueryResult r = index.QueryBottomUp(p, &eval);
  EXPECT_EQ(r.answer, eval.Evaluate(p));
  EXPECT_EQ(r.answer, (std::vector<NodeId>{4}));
}

TEST(MStarBottomUpTest, HybridMeetPositionsAllAgree) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  PathExpression p = Q(g, "//site/auctions/auction/seller/person");
  index.Refine(p);
  std::vector<NodeId> expected = eval.Evaluate(p);
  for (size_t meet = 0; meet < p.num_steps(); ++meet) {
    EXPECT_EQ(index.QueryHybrid(p, meet, &eval).answer, expected)
        << "meet=" << meet;
  }
}

class StrategySweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrategySweepTest, AllFiveStrategiesAgreeOnRandomGraphs) {
  DataGraph g = RandomGraph(GetParam(), 60, 4, 30);
  DataEvaluator eval(g);
  MStarIndex index(g);
  const SymbolTable& symbols = g.symbols();
  // Refine a few FUPs to build components.
  int refined = 0;
  for (LabelId a = 0; a < symbols.size() && refined < 3; ++a) {
    for (LabelId b = 0; b < symbols.size() && refined < 3; ++b) {
      for (LabelId c = 0; c < symbols.size() && refined < 3; ++c) {
        PathExpression p({a, b, c}, false);
        if (eval.Evaluate(p).empty()) continue;
        index.Refine(p);
        ++refined;
      }
    }
  }
  for (LabelId a = 0; a < symbols.size(); ++a) {
    for (LabelId b = 0; b < symbols.size(); ++b) {
      PathExpression p({a, b, a}, false);
      std::vector<NodeId> expected = eval.Evaluate(p);
      ASSERT_EQ(index.QueryNaive(p, &eval).answer, expected);
      ASSERT_EQ(index.QueryTopDown(p, &eval).answer, expected);
      ASSERT_EQ(index.QueryBottomUp(p, &eval).answer, expected);
      ASSERT_EQ(index.QueryHybrid(p, &eval).answer, expected);
      ASSERT_EQ(index.QueryWithPrefilter(p, 1, 2, &eval).answer, expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategySweepTest,
                         ::testing::Range<uint64_t>(200, 206));

}  // namespace
}  // namespace mrx
