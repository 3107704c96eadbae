// Tests for the §4.1 "Other approaches" strategies: bottom-up and hybrid
// evaluation on the M*(k)-index. Both must agree exactly with the data
// graph; bottom-up's downward-check overhead should be visible in the
// stats on structures where subnodes lose outgoing paths.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/datasets.h"
#include "index/m_star_index.h"
#include "query/data_evaluator.h"
#include "tests/section5.h"
#include "tests/test_util.h"

namespace mrx {
namespace {

using mrx::testing::MakeFigure1Graph;
using mrx::testing::MakeFigure3Graph;
using mrx::testing::MakeGraph;
using mrx::testing::RandomGraph;
using mrx::testing::Section5Fups;
using mrx::testing::Section5Stream;

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

/// The paper's cost metric and the answers of one evaluation route over
/// the whole §5 stream: per query, the answer, the target set, index nodes
/// visited and data nodes validated. The obs counters (extent elements
/// scanned) are implementation cost, not the paper's, and stay out.
template <typename Route>
uint64_t StreamDigest(const std::vector<PathExpression>& stream,
                      Route route) {
  mrx::testing::Digest digest;
  for (const PathExpression& q : stream) {
    const QueryResult r = route(q);
    digest.Add(r.answer.size());
    for (NodeId o : r.answer) digest.Add(o);
    digest.Add(r.target.size());
    for (IndexNodeId v : r.target) digest.Add(v);
    digest.Add(r.stats.index_nodes_visited);
    digest.Add(r.stats.data_nodes_validated);
  }
  return digest.value();
}

/// Every §4.1 strategy, plus subpath pre-filtering on the path's second
/// half, on a half-refined and a fully refined hierarchy (the §5 FUPs).
std::map<std::string, uint64_t> StrategyDigests(const std::string& name,
                                                const DataGraph& g) {
  const std::vector<PathExpression> stream = Section5Stream(g);
  const std::vector<PathExpression> fups = Section5Fups(g);
  std::map<std::string, uint64_t> out;
  for (const bool half : {true, false}) {
    MStarIndex index(g);
    index.RefineBatch(half ? std::vector<PathExpression>(
                                 fups.begin(), fups.begin() + fups.size() / 2)
                           : fups);
    const std::string state = name + (half ? "/half/" : "/full/");
    for (MStarQueryStrategy strategy : kMStarQueryStrategies) {
      DataEvaluator eval(g);
      out[state + StrategyName(strategy)] =
          StreamDigest(stream, [&](const PathExpression& q) {
            return index.Query(strategy, q, &eval);
          });
    }
    DataEvaluator eval(g);
    out[state + "prefilter"] =
        StreamDigest(stream, [&](const PathExpression& q) {
          return index.QueryWithPrefilter(q, (q.num_steps() - 1) / 2,
                                          q.num_steps() - 1, &eval);
        });
  }
  return out;
}

// Recorded with the extent-decoding descents and the sort-based answer
// assembly: how the strategies descend the hierarchy and assemble answers
// must leave every answer, target set and paper cost figure unchanged.
TEST(MStarCostGoldenTest, Section5StreamMatchesGolden) {
  const std::map<std::string, uint64_t> expected = {
      {"xmark/full/bottomup", 0x129626a23797330eull},
      {"xmark/full/hybrid", 0x4b27ce24d7b8944dull},
      {"xmark/full/naive", 0x637eb2877293696eull},
      {"xmark/full/prefilter", 0xbfe971e5cccb81adull},
      {"xmark/full/topdown", 0x645da8bc5ba58736ull},
      {"xmark/half/bottomup", 0xb33a0f1b10db75a1ull},
      {"xmark/half/hybrid", 0x6bc8646346e1863cull},
      {"xmark/half/naive", 0xd8d33369092a7aefull},
      {"xmark/half/prefilter", 0x0dc8fb5b7994f8beull},
      {"xmark/half/topdown", 0x67e47c73bceed404ull},
      {"nasa/full/bottomup", 0xa3314238c9615743ull},
      {"nasa/full/hybrid", 0x106a3b81e371d3d1ull},
      {"nasa/full/naive", 0x9ccc032fe70278aaull},
      {"nasa/full/prefilter", 0xecc30e077c2f5070ull},
      {"nasa/full/topdown", 0x5465d244f745656dull},
      {"nasa/half/bottomup", 0x3cefaa068f5bb6bbull},
      {"nasa/half/hybrid", 0xbe825bdb356a4404ull},
      {"nasa/half/naive", 0x42f0faa64a816c1dull},
      {"nasa/half/prefilter", 0xa1b3735d246e45b3ull},
      {"nasa/half/topdown", 0x4ac23e7e35cabad2ull},
  };
  for (const std::string name : {"xmark", "nasa"}) {
    Result<DataGraph> g = name == "xmark" ? harness::BuildXMarkGraph(0.05)
                                          : harness::BuildNasaGraph(0.05);
    ASSERT_TRUE(g.ok()) << g.status();
    for (const auto& [key, actual] : StrategyDigests(name, *g)) {
      const auto want = expected.find(key);
      if (want == expected.end()) {
        ADD_FAILURE() << "no golden digest for " << key;
        continue;
      }
      EXPECT_EQ(actual, want->second)
          << key << std::hex << " digest 0x" << actual;
    }
  }
}

}  // namespace
}  // namespace mrx
