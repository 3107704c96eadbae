#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "core/strategy.h"
#include "harness/datasets.h"
#include "index/strategy_chooser.h"
#include "query/data_evaluator.h"
#include "tests/test_util.h"
#include "workload/generator.h"
#include "workload/label_paths.h"

namespace mrx {
namespace {

using mrx::testing::MakeFigure1Graph;
using mrx::testing::MakeFigure3Graph;

PathExpression Q(const DataGraph& g, std::string_view text) {
  return std::move(PathExpression::Parse(text, g.symbols())).value();
}

TEST(StrategyChooserTest, AnchoredAlwaysTopDown) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  StrategyChooser chooser(index);
  EXPECT_EQ(chooser.Choose(Q(g, "/r/a/b")), MStarQueryStrategy::kTopDown);
}

TEST(StrategyChooserTest, DescendantAxisAlwaysNaive) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  StrategyChooser chooser(index);
  EXPECT_EQ(chooser.Choose(Q(g, "//r//b")), MStarQueryStrategy::kNaive);
}

TEST(StrategyChooserTest, EstimatesAreFiniteAndOrdered) {
  DataGraph g = MakeFigure1Graph();
  MStarIndex index(g);
  index.Refine(Q(g, "//site/auctions/auction/seller/person"));
  StrategyChooser chooser(index);
  PathExpression p = Q(g, "//site/auctions/auction/seller/person");
  for (MStarQueryStrategy s : kMStarQueryStrategies) {
    EXPECT_GE(chooser.EstimateCost(p, s), 0.0);
  }
  // Bottom-up's downward-check penalty makes it the most expensive
  // estimate for a long path whose labels appear throughout.
  EXPECT_GT(chooser.EstimateCost(p, MStarQueryStrategy::kBottomUp),
            chooser.EstimateCost(p, MStarQueryStrategy::kTopDown));
}

TEST(StrategyChooserTest, AutoAnswersAreExact) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  index.Refine(Q(g, "//site/people/person"));
  StrategyChooser chooser(index);
  for (const char* text :
       {"//person", "//site/people/person", "//auction/seller/person",
        "//site//item", "/root/site", "//site/regions/*/item"}) {
    PathExpression p = Q(g, text);
    const MStarQueryStrategy chosen =
        ResolveStrategy(SessionOptions::Strategy::kAuto, chooser, p);
    EXPECT_EQ(index.Query(chosen, p, &eval).answer, eval.Evaluate(p))
        << text;
  }
}

TEST(StrategyChooserTest, ResolveStrategyMapsFixedAndDefersAutoToChooser) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  StrategyChooser chooser(index);
  PathExpression p = Q(g, "//r/a/b");
  using S = SessionOptions::Strategy;
  EXPECT_EQ(ResolveStrategy(S::kNaive, chooser, p),
            MStarQueryStrategy::kNaive);
  EXPECT_EQ(ResolveStrategy(S::kTopDown, chooser, p),
            MStarQueryStrategy::kTopDown);
  EXPECT_EQ(ResolveStrategy(S::kBottomUp, chooser, p),
            MStarQueryStrategy::kBottomUp);
  EXPECT_EQ(ResolveStrategy(S::kHybrid, chooser, p),
            MStarQueryStrategy::kHybrid);
  EXPECT_EQ(ResolveStrategy(S::kAuto, chooser, p), chooser.Choose(p));
  EXPECT_EQ(ResolveStrategy(S::kAuto, chooser, Q(g, "/r/a/b")),
            MStarQueryStrategy::kTopDown);
}

TEST(StrategyChooserTest, AutoIsCompetitiveOnGeneratedWorkload) {
  auto g = harness::BuildXMarkGraph(0.05);
  ASSERT_TRUE(g.ok());
  LabelPathEnumerationOptions eo;
  eo.max_length = 9;
  auto paths = EnumerateLabelPaths(*g, eo);
  WorkloadOptions wo;
  wo.num_queries = 120;
  wo.max_query_length = 9;
  auto workload = GenerateWorkload(paths, wo);

  MStarIndex index(*g);
  DataEvaluator eval(*g);
  for (const auto& q : workload) index.Refine(q);
  StrategyChooser chooser(index);

  uint64_t auto_cost = 0;
  uint64_t best_cost = 0;
  uint64_t topdown_cost = 0;
  for (const auto& q : workload) {
    uint64_t cost[std::size(kMStarQueryStrategies)];
    for (MStarQueryStrategy s : kMStarQueryStrategies) {
      cost[static_cast<size_t>(s)] = index.Query(s, q, &eval).stats.total();
    }
    best_cost += *std::min_element(std::begin(cost), std::end(cost));
    topdown_cost += cost[static_cast<size_t>(MStarQueryStrategy::kTopDown)];
    auto_cost += cost[static_cast<size_t>(chooser.Choose(q))];
  }
  // The chooser must not be a disaster: within 2x of the per-query best,
  // and no worse than always-top-down by more than 25%.
  EXPECT_LE(auto_cost, best_cost * 2);
  EXPECT_LE(auto_cost, topdown_cost + topdown_cost / 4);
}

}  // namespace
}  // namespace mrx
