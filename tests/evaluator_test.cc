#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "index/evaluator.h"
#include "index/index_graph.h"
#include "query/data_evaluator.h"
#include "tests/test_util.h"

namespace mrx {
namespace {

using mrx::testing::MakeFigure3Graph;
using mrx::testing::MakeGraph;

PathExpression Q(const DataGraph& g, std::string_view text) {
  return std::move(PathExpression::Parse(text, g.symbols())).value();
}

TEST(IndexTargetSetTest, SingleLabel) {
  DataGraph g = MakeFigure3Graph();
  IndexGraph ig = IndexGraph::LabelPartition(g);
  QueryStats stats;
  auto target = IndexTargetSet(ig, Q(g, "//b"), &stats);
  ASSERT_EQ(target.size(), 1u);
  EXPECT_EQ(ig.node(target[0]).label, *g.symbols().Lookup("b"));
  EXPECT_EQ(stats.index_nodes_visited, 1u);
}

TEST(IndexTargetSetTest, PathTraversal) {
  DataGraph g = MakeFigure3Graph();
  IndexGraph ig = IndexGraph::LabelPartition(g);
  QueryStats stats;
  auto target = IndexTargetSet(ig, Q(g, "//r/a/b"), &stats);
  ASSERT_EQ(target.size(), 1u);
  // Visits r at level 0, a at level 1, b at level 2.
  EXPECT_EQ(stats.index_nodes_visited, 3u);
}

TEST(IndexTargetSetTest, NoMatchesIsEmptyAndCheap) {
  DataGraph g = MakeFigure3Graph();
  IndexGraph ig = IndexGraph::LabelPartition(g);
  QueryStats stats;
  EXPECT_TRUE(IndexTargetSet(ig, Q(g, "//b/r"), &stats).empty());
  // Only the b node was put on a frontier.
  EXPECT_EQ(stats.index_nodes_visited, 1u);
}

TEST(IndexTargetSetTest, UnknownLabelIsFree) {
  DataGraph g = MakeFigure3Graph();
  IndexGraph ig = IndexGraph::LabelPartition(g);
  QueryStats stats;
  EXPECT_TRUE(IndexTargetSet(ig, Q(g, "//nothing"), &stats).empty());
  EXPECT_EQ(stats.index_nodes_visited, 0u);
}

TEST(IndexTargetSetTest, AnchoredStartsAtRootNode) {
  // Two r-labeled nodes; anchored paths start at the root's index node
  // only.
  DataGraph g = MakeGraph({"r", "r", "a"}, {{0, 1}, {1, 2}});
  IndexGraph ig = IndexGraph::LabelPartition(g);
  auto anchored = IndexTargetSet(ig, Q(g, "/r/a"), nullptr);
  auto floating = IndexTargetSet(ig, Q(g, "//r/a"), nullptr);
  EXPECT_EQ(anchored.size(), 1u);
  EXPECT_EQ(floating.size(), 1u);
}

TEST(IndexTargetSetTest, WildcardStep) {
  DataGraph g = MakeFigure3Graph();
  IndexGraph ig = IndexGraph::LabelPartition(g);
  auto target = IndexTargetSet(ig, Q(g, "//r/*/b"), nullptr);
  ASSERT_EQ(target.size(), 1u);
}

TEST(IndexTargetSetTest, SkipsDeadNodes) {
  DataGraph g = MakeFigure3Graph();
  IndexGraph ig = IndexGraph::LabelPartition(g);
  IndexNodeId b = ig.index_of(4);
  ig.ReplaceNode(b, {{{4}, 1}, {{5, 6, 7, 8, 9}, 0}});
  SplitScratch scratch;
  ig.RebuildAdjacency(&scratch);
  auto target = IndexTargetSet(ig, Q(g, "//b"), nullptr);
  EXPECT_EQ(target.size(), 2u);
  for (IndexNodeId v : target) EXPECT_TRUE(ig.alive(v));
}

TEST(AnswerOnIndexTest, PreciseSkipsValidation) {
  DataGraph g = MakeFigure3Graph();
  IndexGraph ig = IndexGraph::LabelPartition(g);
  DataEvaluator eval(g);
  // Raise every node's k artificially; extents of the label partition for
  // this tree-shaped graph happen to be fully bisimilar except b.
  QueryResult r = AnswerOnIndex(ig, Q(g, "//c"), &eval);
  EXPECT_TRUE(r.precise);
  EXPECT_EQ(r.stats.data_nodes_validated, 0u);
  EXPECT_EQ(r.answer, (std::vector<NodeId>{2}));
}

TEST(AnswerOnIndexTest, UnderRefinedTargetValidates) {
  DataGraph g = MakeFigure3Graph();
  IndexGraph ig = IndexGraph::LabelPartition(g);
  DataEvaluator eval(g);
  QueryResult r = AnswerOnIndex(ig, Q(g, "//a/b"), &eval);
  EXPECT_FALSE(r.precise);
  EXPECT_GT(r.stats.data_nodes_validated, 0u);
  EXPECT_EQ(r.answer, (std::vector<NodeId>{4}));
}

TEST(AnswerOnIndexTest, AnchoredAlwaysValidates) {
  DataGraph g = MakeFigure3Graph();
  IndexGraph ig = IndexGraph::LabelPartition(g);
  DataEvaluator eval(g);
  QueryResult r = AnswerOnIndex(ig, Q(g, "/r"), &eval);
  EXPECT_FALSE(r.precise);
  EXPECT_EQ(r.answer, (std::vector<NodeId>{0}));
}

TEST(AnswerOnIndexTest, StatsAccumulateAcrossTargets) {
  DataGraph g = MakeGraph({"r", "x", "y", "b", "b"},
                          {{0, 1}, {0, 2}, {1, 3}, {2, 4}});
  IndexGraph ig = IndexGraph::LabelPartition(g);
  // Split b by hand so //b has two target index nodes.
  ig.ReplaceNode(ig.index_of(3), {{{3}, 0}, {{4}, 0}});
  SplitScratch scratch;
  ig.RebuildAdjacency(&scratch);
  DataEvaluator eval(g);
  QueryResult r = AnswerOnIndex(ig, Q(g, "//x/b"), &eval);
  EXPECT_EQ(r.answer, (std::vector<NodeId>{3}));
  // Both b nodes were reached? No: only x's child {3}. Target is 1 node.
  EXPECT_EQ(r.target.size(), 1u);
}

// The collector's merge: target extents interleave id by id, so every
// target adds its own run and the runs must merge, not concatenate. r has
// children a1 and x, x has child a2; a1 and a2 share one index node. Each
// b node joins, by its id modulo the group count, one of `precise` blocks
// under a1 (k = 2, whole extents in the answer), a validated block under
// a1 and a2 alternately (k = 0, only a1's children survive) or an empty
// one under a2 (k = 0, a target with no survivor). A precise block also
// owns a contiguous tail.
TEST(AssembleAnswerTest, InterleavedTargetsMergeInEveryRep) {
  for (uint32_t precise : {1u, 2u, 5u}) {
    const uint32_t groups = precise + 2;
    std::vector<std::string> labels = {"r", "a", "x", "a"};
    std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {0, 2}, {2, 3}};
    // Blocks: 0 r, 1 x, 2 {a1, a2}, then the b blocks in group order.
    std::vector<uint32_t> block_of = {0, 2, 1, 2};
    const NodeId interleaved = 90 * groups;
    for (NodeId i = 0; i < interleaved + 40; ++i) {
      const uint32_t group = i < interleaved ? i % groups : 0;
      const NodeId id = static_cast<NodeId>(labels.size());
      const bool under_a1 = group < precise ||
                            (group == precise && (i / groups) % 2 == 0);
      labels.push_back("b");
      edges.push_back({under_a1 ? 1 : 3, id});
      block_of.push_back(3 + group);
    }
    const uint32_t num_blocks = 3 + groups;
    std::vector<int32_t> ks(num_blocks, 0);
    for (uint32_t b = 0; b < precise; ++b) ks[3 + b] = 2;

    DataGraph g = MakeGraph(labels, edges);
    const IndexGraph ig =
        IndexGraph::FromPartition(g, block_of, num_blocks, ks);
    DataEvaluator eval(g);
    const PathExpression q = Q(g, "//r/a/b");
    const QueryResult r = AnswerOnIndex(ig, q, &eval);

    ASSERT_EQ(r.target.size(), groups);
    std::vector<NodeId> expected;
    for (IndexNodeId v : r.target) {
      for (NodeId o : ig.node(v).extent) {
        if (ig.node(v).k >= 2 || g.parents(o)[0] == 1) expected.push_back(o);
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(r.answer, expected) << precise;
    EXPECT_EQ(r.answer, eval.Evaluate(q)) << precise;
    EXPECT_FALSE(r.precise);
    EXPECT_GT(r.stats.data_nodes_validated, 0u);
  }
}

TEST(QueryStatsTest, AdditionAndTotal) {
  QueryStats a{3, 4};
  QueryStats b{10, 20};
  a += b;
  EXPECT_EQ(a.index_nodes_visited, 13u);
  EXPECT_EQ(a.data_nodes_validated, 24u);
  EXPECT_EQ(a.total(), 37u);
}

}  // namespace
}  // namespace mrx
