#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "index/bisimulation.h"
#include "index/index_graph.h"
#include "tests/test_util.h"

namespace mrx {
namespace {

using mrx::testing::MakeFigure3Graph;
using mrx::testing::MakeGraph;
using mrx::testing::RandomGraph;

TEST(IndexGraphTest, LabelPartitionShape) {
  DataGraph g = MakeFigure3Graph();  // labels r,a,c,d,b over 10 nodes
  IndexGraph ig = IndexGraph::LabelPartition(g);
  EXPECT_EQ(ig.num_nodes(), 5u);
  EXPECT_TRUE(ig.CheckConsistency().ok());
  // The b node holds all six b's with k = 0.
  IndexNodeId b = ig.index_of(4);
  EXPECT_EQ(ig.node(b).extent.size(), 6u);
  EXPECT_EQ(ig.node(b).k, 0);
  // Edges r->a, r->c, r->d, a->b, c->b, d->b.
  EXPECT_EQ(ig.num_edges(), 6u);
}

TEST(IndexGraphTest, FromPartitionRecordsK) {
  DataGraph g = MakeGraph({"r", "a", "a"}, {{0, 1}, {0, 2}});
  std::vector<uint32_t> blocks = {0, 1, 1};
  std::vector<int32_t> k = {0, 3};
  IndexGraph ig = IndexGraph::FromPartition(g, blocks, 2, k);
  EXPECT_EQ(ig.num_nodes(), 2u);
  EXPECT_EQ(ig.node(ig.index_of(1)).k, 3);
  EXPECT_TRUE(ig.CheckConsistency().ok());
}

TEST(IndexGraphTest, ReplaceNodeSplitsAndRewires) {
  DataGraph g = MakeFigure3Graph();
  IndexGraph ig = IndexGraph::LabelPartition(g);
  IndexNodeId b = ig.index_of(4);
  std::vector<IndexGraph::Part> parts;
  parts.push_back({{4}, 2});
  parts.push_back({{5, 6, 7, 8, 9}, 0});
  auto ids = ig.ReplaceNode(b, std::move(parts));
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_FALSE(ig.alive(b));
  EXPECT_EQ(ig.num_nodes(), 6u);
  // ReplaceNode re-homes extents only; adjacency waits for the rebuild.
  EXPECT_FALSE(ig.CheckConsistency().ok());
  SplitScratch scratch;
  ig.RebuildAdjacency(&scratch);
  EXPECT_TRUE(ig.CheckConsistency().ok()) << ig.CheckConsistency();
  // {4} is a child of the a node only; the rest has c and d parents.
  EXPECT_EQ(ig.index_of(4), ids[0]);
  EXPECT_EQ(ig.node(ids[0]).parents.size(), 1u);
  EXPECT_EQ(ig.node(ids[0]).parents[0], ig.index_of(1));
  EXPECT_EQ(ig.node(ids[1]).parents.size(), 2u);
  EXPECT_EQ(ig.node(ids[0]).k, 2);
  EXPECT_EQ(ig.node(ids[1]).k, 0);
}

TEST(IndexGraphTest, ReplaceNodeWithSelfLoop) {
  DataGraph g = MakeGraph({"r", "a", "a"}, {{0, 1}, {1, 2}, {2, 1}});
  IndexGraph ig = IndexGraph::LabelPartition(g);
  IndexNodeId a = ig.index_of(1);
  // The a node has a self loop (a1 -> a2, a2 -> a1).
  EXPECT_TRUE(std::binary_search(ig.node(a).children.begin(),
                                 ig.node(a).children.end(), a));
  auto ids = ig.ReplaceNode(a, {{{1}, 1}, {{2}, 1}});
  SplitScratch scratch;
  ig.RebuildAdjacency(&scratch);
  EXPECT_TRUE(ig.CheckConsistency().ok()) << ig.CheckConsistency();
  // Now the two singleton a nodes point at each other.
  EXPECT_EQ(ig.node(ids[0]).children, (std::vector<IndexNodeId>{ids[1]}));
  EXPECT_EQ(ig.node(ids[1]).children, (std::vector<IndexNodeId>{ids[0]}));
}

TEST(IndexGraphTest, ReplaceNodeSinglePartRaisesK) {
  DataGraph g = MakeGraph({"r", "a"}, {{0, 1}});
  IndexGraph ig = IndexGraph::LabelPartition(g);
  IndexNodeId a = ig.index_of(1);
  auto ids = ig.ReplaceNode(a, {{{1}, 5}});
  SplitScratch scratch;
  ig.RebuildAdjacency(&scratch);
  EXPECT_EQ(ig.num_nodes(), 2u);
  EXPECT_EQ(ig.node(ids[0]).k, 5);
  EXPECT_TRUE(ig.CheckConsistency().ok());
}

TEST(IndexGraphTest, NumEdgesCountsAliveOnly) {
  DataGraph g = MakeFigure3Graph();
  IndexGraph ig = IndexGraph::LabelPartition(g);
  size_t before = ig.num_edges();
  IndexNodeId b = ig.index_of(4);
  ig.ReplaceNode(b, {{{4}, 1}, {{5, 6, 7, 8, 9}, 0}});
  SplitScratch scratch;
  ig.RebuildAdjacency(&scratch);
  // a->b4; c,d -> rest; r->a,c,d: total 6 edges again.
  EXPECT_EQ(before, 6u);
  EXPECT_EQ(ig.num_edges(), 6u);
}

TEST(IndexGraphTest, Pred) {
  DataGraph g = MakeFigure3Graph();
  IndexGraph ig = IndexGraph::LabelPartition(g);
  EXPECT_EQ(ig.Pred(std::vector<NodeId>{4}), (std::vector<NodeId>{1}));
  EXPECT_EQ(ig.Pred(std::vector<NodeId>{5, 9}), (std::vector<NodeId>{2, 3}));
  EXPECT_TRUE(ig.Pred(std::vector<NodeId>{}).empty());
  // The Extent overload agrees with the vector kernel.
  EXPECT_EQ(ig.Pred(Extent(std::vector<NodeId>{5, 9})),
            (std::vector<NodeId>{2, 3}));
}

TEST(IndexGraphTest, AliveNodesSkipsTombstones) {
  DataGraph g = MakeFigure3Graph();
  IndexGraph ig = IndexGraph::LabelPartition(g);
  IndexNodeId b = ig.index_of(4);
  ig.ReplaceNode(b, {{{4}, 1}, {{5, 6, 7, 8, 9}, 0}});
  auto alive = ig.AliveNodes();
  EXPECT_EQ(alive.size(), ig.num_nodes());
  for (IndexNodeId v : alive) EXPECT_TRUE(ig.alive(v));
  EXPECT_EQ(std::count(alive.begin(), alive.end(), b), 0);
}

TEST(IndexGraphTest, CopyIsDeep) {
  DataGraph g = MakeFigure3Graph();
  IndexGraph a = IndexGraph::LabelPartition(g);
  IndexGraph b = a;
  b.ReplaceNode(b.index_of(4), {{{4}, 1}, {{5, 6, 7, 8, 9}, 0}});
  SplitScratch scratch;
  b.RebuildAdjacency(&scratch);
  EXPECT_EQ(a.num_nodes(), 5u);
  EXPECT_EQ(b.num_nodes(), 6u);
  EXPECT_TRUE(a.CheckConsistency().ok());
  EXPECT_TRUE(b.CheckConsistency().ok());
}

TEST(IndexGraphTest, RandomSplitsKeepConsistency) {
  DataGraph g = RandomGraph(77, 80, 6, 40);
  IndexGraph ig = IndexGraph::LabelPartition(g);
  SplitScratch scratch;
  Rng rng(5);
  for (int step = 0; step < 30; ++step) {
    auto alive = ig.AliveNodes();
    IndexNodeId v = alive[rng.Below(alive.size())];
    const auto& extent = ig.node(v).extent;
    if (extent.size() < 2) continue;
    // Split off a random nonempty strict subset.
    std::vector<NodeId> left, right;
    for (NodeId o : extent) {
      (rng.Chance(0.5) ? left : right).push_back(o);
    }
    if (left.empty() || right.empty()) continue;
    ig.ReplaceNode(v, {{left, 1}, {right, 0}});
    ig.RebuildAdjacency(&scratch);
    ASSERT_TRUE(ig.CheckConsistency().ok()) << ig.CheckConsistency();
  }
}

// FromPartition's lists are Property 2 exactly, computed here naively from
// every data edge, and each is allocated at its size.
TEST(IndexGraphTest, FromPartitionAdjacencyIsPropertyTwoSizedExactly) {
  for (uint64_t seed : {3, 17, 29, 41}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DataGraph g = RandomGraph(seed, 150, 5, 90);
    Rng rng(seed);
    // Random label-uniform partition: each label's nodes scatter over up to
    // three blocks, and the blocks are numbered in a random order.
    std::vector<uint32_t> raw(g.num_nodes());
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      raw[n] = g.label(n) * 3 + static_cast<uint32_t>(rng.Below(3));
    }
    std::vector<uint32_t> order(g.symbols().size() * 3);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<uint32_t> used(order.size(), 0);
    for (uint32_t r : raw) used[r] = 1;
    std::vector<uint32_t> id_of(order.size(), 0);
    uint32_t num_blocks = 0;
    for (uint32_t r : order) {
      if (used[r]) id_of[r] = num_blocks++;
    }
    std::vector<uint32_t> block_of(g.num_nodes());
    for (NodeId n = 0; n < g.num_nodes(); ++n) block_of[n] = id_of[raw[n]];

    IndexGraph ig = IndexGraph::FromPartition(
        g, block_of, num_blocks, std::vector<int32_t>(num_blocks, 0));
    ASSERT_TRUE(ig.CheckConsistency().ok()) << ig.CheckConsistency();
    ASSERT_EQ(ig.num_nodes(), num_blocks);
    std::vector<std::vector<IndexNodeId>> children(num_blocks);
    std::vector<std::vector<IndexNodeId>> parents(num_blocks);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v : g.children(u)) {
        children[block_of[u]].push_back(block_of[v]);
        parents[block_of[v]].push_back(block_of[u]);
      }
    }
    for (uint32_t b = 0; b < num_blocks; ++b) {
      for (auto* list : {&children[b], &parents[b]}) {
        std::sort(list->begin(), list->end());
        list->erase(std::unique(list->begin(), list->end()), list->end());
      }
      const IndexGraph::Node& node = ig.node(b);
      EXPECT_EQ(node.children, children[b]) << b;
      EXPECT_EQ(node.parents, parents[b]) << b;
      EXPECT_EQ(node.children.capacity(), node.children.size()) << b;
      EXPECT_EQ(node.parents.capacity(), node.parents.size()) << b;
    }
  }
}

// Adjacency rebuilt once after many splits — of fresh nodes too, before
// their own lists exist — equals adjacency rebuilt after every split.
TEST(IndexGraphTest, BatchedRebuildMatchesPerSplitRebuild) {
  DataGraph g = RandomGraph(91, 120, 5, 60);
  IndexGraph eager = IndexGraph::LabelPartition(g);
  IndexGraph batched = eager;
  SplitScratch scratch;
  Rng rng(13);
  for (int step = 0; step < 60; ++step) {
    auto alive = eager.AliveNodes();
    IndexNodeId v = alive[rng.Below(alive.size())];
    std::vector<NodeId> left, right;
    for (NodeId o : eager.node(v).extent) {
      (rng.Chance(0.5) ? left : right).push_back(o);
    }
    if (left.empty() || right.empty()) continue;
    eager.ReplaceNode(v, {{left, 1}, {right, 0}});
    eager.RebuildAdjacency(&scratch);
    batched.ReplaceNode(v, {{left, 1}, {right, 0}});
    if (step % 7 == 6) {
      batched.RebuildAdjacency(&scratch);
      ASSERT_TRUE(batched.CheckConsistency().ok())
          << batched.CheckConsistency();
    }
  }
  batched.RebuildAdjacency(&scratch);
  ASSERT_TRUE(eager.CheckConsistency().ok()) << eager.CheckConsistency();
  ASSERT_TRUE(batched.CheckConsistency().ok()) << batched.CheckConsistency();
  ASSERT_EQ(eager.capacity(), batched.capacity());
  for (IndexNodeId v = 0; v < eager.capacity(); ++v) {
    ASSERT_EQ(eager.alive(v), batched.alive(v));
    EXPECT_EQ(eager.node(v).children, batched.node(v).children) << v;
    EXPECT_EQ(eager.node(v).parents, batched.node(v).parents) << v;
  }
}

// Between rebuilds, a walk's children lists are derived on demand. After
// every split, on random nodes and labels, ChildrenForWalk must list every
// alive child with that label that a full rebuild finds, and no dead node
// with it; the final rebuild must leave exact lists.
TEST(IndexGraphTest, ChildrenForWalkMatchFullRebuild) {
  DataGraph g = RandomGraph(57, 150, 4, 80);
  IndexGraph lazy = IndexGraph::LabelPartition(g);
  SplitScratch scratch;
  Rng rng(29);
  size_t checked = 0;
  for (int step = 0; step < 80; ++step) {
    std::vector<IndexNodeId> alive = lazy.AliveNodes();
    const IndexNodeId v = alive[rng.Below(alive.size())];
    std::vector<NodeId> left, right;
    for (NodeId o : lazy.node(v).extent) {
      (rng.Chance(0.5) ? left : right).push_back(o);
    }
    if (left.empty() || right.empty()) continue;
    lazy.ReplaceNode(v, {{left, 1}, {right, 0}});
    IndexGraph exact = lazy;
    SplitScratch exact_scratch;
    exact.RebuildAdjacency(&exact_scratch);
    alive = lazy.AliveNodes();
    for (int probe = 0; probe < 4; ++probe) {
      const IndexNodeId u = alive[rng.Below(alive.size())];
      const LabelId label = lazy.node(alive[rng.Below(alive.size())]).label;
      std::vector<IndexNodeId> got;
      for (IndexNodeId x : lazy.ChildrenForWalk(u, label, &scratch)) {
        if (lazy.node(x).label != label) continue;
        EXPECT_TRUE(lazy.alive(x)) << "step " << step << ", node " << u;
        got.push_back(x);
      }
      std::sort(got.begin(), got.end());
      std::vector<IndexNodeId> want;
      for (IndexNodeId x : exact.node(u).children) {
        if (exact.node(x).label == label) want.push_back(x);
      }
      EXPECT_EQ(got, want) << "step " << step << ", node " << u;
      ++checked;
    }
  }
  lazy.RebuildAdjacency(&scratch);
  EXPECT_TRUE(lazy.CheckConsistency().ok()) << lazy.CheckConsistency();
  EXPECT_GT(checked, 100u);
}

// The M*(k) cascade leaves per-id values in the shared scratch (its
// touched-list slots) that a later rebuild's passes may equal; the rebuild
// must not read them as dedupe stamps and drop a neighbour.
TEST(IndexGraphTest, RebuildIgnoresLeftoverSlots) {
  DataGraph g = MakeFigure3Graph();
  for (uint32_t offset = 1; offset <= 4; ++offset) {
    IndexGraph ig = IndexGraph::LabelPartition(g);
    ig.ReplaceNode(ig.index_of(4), {{{4}, 2}, {{5, 6, 7, 8, 9}, 0}});
    SplitScratch scratch;
    scratch.NextPass(ig.capacity());
    std::fill(scratch.slot.begin(), scratch.slot.end(),
              scratch.pass + offset);
    ig.RebuildAdjacency(&scratch);
    EXPECT_TRUE(ig.CheckConsistency().ok())
        << "offset " << offset << ": " << ig.CheckConsistency();
  }
}

TEST(IndexGraphTest, RefinementStatsCountSplits) {
  DataGraph g = MakeFigure3Graph();
  IndexGraph ig = IndexGraph::LabelPartition(g);
  EXPECT_EQ(ig.refinement_stats().splits, 0u);
  IndexNodeId b = ig.index_of(4);
  ig.ReplaceNode(b, {{{4}, 1}, {{5, 6, 7, 8, 9}, 0}});
  EXPECT_EQ(ig.refinement_stats().splits, 1u);
  EXPECT_EQ(ig.refinement_stats().nodes_created, 1u);
  EXPECT_EQ(ig.refinement_stats().extent_moves, 6u);
  // A single-part replace (k relabel) is not a split.
  ig.ReplaceNode(ig.index_of(4), {{{4}, 2}});
  EXPECT_EQ(ig.refinement_stats().splits, 1u);
}

TEST(IndexGraphTest, DebugStringListsAliveNodes) {
  DataGraph g = MakeGraph({"r", "a"}, {{0, 1}});
  IndexGraph ig = IndexGraph::LabelPartition(g);
  std::string dump = ig.DebugString();
  EXPECT_NE(dump.find("[r,k=0]"), std::string::npos);
  EXPECT_NE(dump.find("[a,k=0]"), std::string::npos);
}

}  // namespace
}  // namespace mrx
