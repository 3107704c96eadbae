#include "mutate/mutable_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mutate/mutation.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace mrx::mutate {
namespace {

using ::mrx::testing::MakeFigure3Graph;
using ::mrx::testing::MakeGraph;

/// Structural fingerprint for whole-graph equality: label names in node
/// order, the root, and the sorted (from, to, kind) edge list.
using GraphSig =
    std::tuple<std::vector<std::string>, NodeId,
               std::vector<std::tuple<NodeId, NodeId, int>>>;

GraphSig SigOf(const DataGraph& g) {
  std::vector<std::string> labels;
  for (NodeId n = 0; n < g.num_nodes(); ++n) labels.push_back(g.label_name(n));
  std::vector<std::tuple<NodeId, NodeId, int>> edges;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const auto kids = g.children(n);
    const auto kinds = g.child_kinds(n);
    for (size_t i = 0; i < kids.size(); ++i) {
      edges.emplace_back(n, kids[i], static_cast<int>(kinds[i]));
    }
  }
  std::sort(edges.begin(), edges.end());
  return {std::move(labels), g.root(), std::move(edges)};
}

std::vector<uint32_t> Identity(size_t n) {
  std::vector<uint32_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<uint32_t>(i);
  return ids;
}

TEST(MutableGraphTest, SeedMaterializesIdentically) {
  const DataGraph g = mrx::testing::MakeFigure1Graph();
  MutableDataGraph live(g);
  auto mat = live.Materialize();
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(SigOf(mat->graph), SigOf(g));
  EXPECT_EQ(mat->stable_of, Identity(g.num_nodes()));
}

TEST(MutableGraphTest, AppendLeafShowsUpInMaterialized) {
  const DataGraph g = MakeFigure3Graph();
  MutableDataGraph live(g);
  auto added = live.AppendSubtree(1, [] {
    SubtreeSpec s;
    s.labels = {"x"};
    return s;
  }());
  ASSERT_TRUE(added.ok());
  ASSERT_EQ(added->size(), 1u);
  auto mat = live.Materialize();
  ASSERT_TRUE(mat.ok());
  const DataGraph expected = MakeGraph(
      {"r", "a", "c", "d", "b", "b", "b", "b", "b", "b", "x"},
      {{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 5}, {2, 6}, {3, 7}, {3, 8},
       {3, 9}, {1, 10}});
  EXPECT_EQ(SigOf(mat->graph), SigOf(expected));
}

TEST(MutableGraphTest, AppendSubtreeWithInternalRefCycle) {
  const DataGraph g = MakeFigure3Graph();
  MutableDataGraph live(g);
  SubtreeSpec spec;
  spec.labels = {"u", "v", "w"};
  spec.edges = {{0, 1, EdgeKind::kRegular},
                {0, 2, EdgeKind::kRegular},
                {1, 2, EdgeKind::kReference},
                {2, 1, EdgeKind::kReference}};
  ASSERT_TRUE(live.AppendSubtree(0, spec).ok());
  auto mat = live.Materialize();
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(mat->graph.num_nodes(), g.num_nodes() + 3);
  EXPECT_EQ(mat->graph.num_reference_edges(), 2u);
}

TEST(MutableGraphTest, DeleteSubtreeSeversAndReportsStrandedRefs) {
  // 0:r -> 1:a -> 2:b -> 3:c ; survivor 4:s with ref 4->2 (into doomed);
  // doomed 3 has ref 3->4 (out of doomed, strands 4's ref parent).
  DataGraphBuilder b;
  for (const char* l : {"r", "a", "b", "c", "s"}) b.AddNode(l);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(0, 4);
  b.AddEdge(4, 2, EdgeKind::kReference);
  b.AddEdge(3, 4, EdgeKind::kReference);
  b.SetRoot(0);
  const DataGraph g = std::move(std::move(b).Build()).value();

  MutableDataGraph live(g);
  auto report = live.DeleteSubtree(2);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->removed, (std::vector<uint32_t>{2, 3}));
  // Node 4 lost its ref parent 3 (doomed -> survivor edge dropped).
  EXPECT_EQ(report->ref_orphaned, (std::vector<uint32_t>{4}));
  auto mat = live.Materialize();
  ASSERT_TRUE(mat.ok());
  const DataGraph expected = MakeGraph({"r", "a", "s"}, {{0, 1}, {0, 2}});
  EXPECT_EQ(SigOf(mat->graph), SigOf(expected));
  // The survivor's dangling ref child (4 -> 2) was severed too.
  EXPECT_EQ(mat->graph.num_reference_edges(), 0u);
}

TEST(MutableGraphTest, DeleteRootRejected) {
  const DataGraph g = MakeFigure3Graph();
  MutableDataGraph live(g);
  auto report = live.DeleteSubtree(0);
  EXPECT_FALSE(report.ok());
  // Also via a batch: the batch must roll back cleanly.
  auto touch = live.ApplyBatch({Mutation::Delete(0)}, Identity(g.num_nodes()));
  EXPECT_FALSE(touch.ok());
  auto mat = live.Materialize();
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(SigOf(mat->graph), SigOf(g));
}

TEST(MutableGraphTest, AppendUnderJustDeletedParentRollsBackWholeBatch) {
  const DataGraph g = MakeFigure3Graph();
  MutableDataGraph live(g);
  // Delete(1) dooms {1, 4}; the append then targets 4 -> the whole batch
  // (including the delete) must unwind.
  MutationBatch batch{Mutation::Delete(1), Mutation::AppendLeaf(4, "x")};
  auto touch = live.ApplyBatch(batch, Identity(g.num_nodes()));
  ASSERT_FALSE(touch.ok());
  EXPECT_NE(touch.status().message().find("mutation 2"), std::string::npos);
  auto mat = live.Materialize();
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(SigOf(mat->graph), SigOf(g));
  EXPECT_EQ(live.num_alive(), g.num_nodes());
  EXPECT_EQ(live.num_edges(), g.num_edges());
}

TEST(MutableGraphTest, RefEdgeCycleAccepted) {
  const DataGraph g = MakeFigure3Graph();
  MutableDataGraph live(g);
  // 4 -> 1 closes a cycle with the regular path 1 -> 4; then 5 <-> 6.
  EXPECT_TRUE(live.AddRefEdge(4, 1).ok());
  EXPECT_TRUE(live.AddRefEdge(5, 6).ok());
  EXPECT_TRUE(live.AddRefEdge(6, 5).ok());
  auto mat = live.Materialize();
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(mat->graph.num_reference_edges(), 3u);
  EXPECT_EQ(mat->graph.num_edges(), g.num_edges() + 3);
}

TEST(MutableGraphTest, RefEdgeValidation) {
  const DataGraph g = MakeFigure3Graph();
  MutableDataGraph live(g);
  // Duplicate of an existing (from, to) pair: the builder invariant is one
  // edge per pair, whatever the kind.
  EXPECT_FALSE(live.AddRefEdge(0, 1).ok());
  EXPECT_FALSE(live.RemoveRefEdge(0, 1).ok());  // Regular edge, not a ref.
  EXPECT_FALSE(live.RemoveRefEdge(5, 6).ok());  // No such edge.
  ASSERT_TRUE(live.AddRefEdge(5, 6).ok());
  EXPECT_TRUE(live.RemoveRefEdge(5, 6).ok());
  auto mat = live.Materialize();
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(SigOf(mat->graph), SigOf(g));
}

TEST(MutableGraphTest, MidBatchFailureRollsBackEarlierOps) {
  const DataGraph g = MakeFigure3Graph();
  MutableDataGraph live(g);
  MutationBatch batch{Mutation::AppendLeaf(2, "y"), Mutation::AddRef(5, 6),
                      Mutation::AddRef(0, 1)};  // Last op: duplicate pair.
  auto touch = live.ApplyBatch(batch, Identity(g.num_nodes()));
  ASSERT_FALSE(touch.ok());
  auto mat = live.Materialize();
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(SigOf(mat->graph), SigOf(g));
  EXPECT_EQ(live.num_edges(), g.num_edges());
  EXPECT_EQ(live.num_alive(), g.num_nodes());
}

TEST(MutableGraphTest, BatchIdsResolveAgainstPreBatchVersion) {
  const DataGraph g = MakeFigure3Graph();
  MutableDataGraph live(g);
  // Batch 1: delete node 1 (dooming {1, 4}).
  auto touch1 = live.ApplyBatch({Mutation::Delete(1)}, Identity(g.num_nodes()));
  ASSERT_TRUE(touch1.ok());
  auto mat1 = live.Materialize();
  ASSERT_TRUE(mat1.ok());
  // In the new version, old node 2 ("c") is now compact id 1.
  ASSERT_EQ(mat1->graph.label_name(1), "c");
  // Batch 2 speaks the new id space via mat1->stable_of.
  auto touch2 = live.ApplyBatch({Mutation::AppendLeaf(1, "z")}, mat1->stable_of);
  ASSERT_TRUE(touch2.ok());
  auto mat2 = live.Materialize();
  ASSERT_TRUE(mat2.ok());
  const DataGraph& g2 = mat2->graph;
  // The "z" leaf hangs under the "c" node.
  const NodeId z = static_cast<NodeId>(g2.num_nodes() - 1);
  EXPECT_EQ(g2.label_name(z), "z");
  bool found = false;
  for (NodeId p : g2.parents(z)) found = found || g2.label_name(p) == "c";
  EXPECT_TRUE(found);
}

TEST(MutableGraphTest, TouchReportsParentSetChanges) {
  const DataGraph g = MakeFigure3Graph();
  MutableDataGraph live(g);
  auto touch = live.ApplyBatch(
      {Mutation::AddRef(5, 6), Mutation::AppendLeaf(3, "w")},
      Identity(g.num_nodes()));
  ASSERT_TRUE(touch.ok());
  // Node 6 gained a parent; the appended node is new, not parent-changed.
  EXPECT_EQ(touch->parent_set_changed, (std::vector<uint32_t>{6}));
  ASSERT_EQ(touch->new_nodes.size(), 1u);
  EXPECT_FALSE(touch->any_deletion);
  EXPECT_EQ(touch->ref_edges_added, 1u);
}

TEST(MutableGraphTest, StableIdsNeverReused) {
  const DataGraph g = MakeFigure3Graph();
  MutableDataGraph live(g);
  auto touch1 =
      live.ApplyBatch({Mutation::AppendLeaf(0, "x")}, Identity(g.num_nodes()));
  ASSERT_TRUE(touch1.ok());
  const uint32_t first = touch1->new_nodes[0];
  auto mat = live.Materialize();
  ASSERT_TRUE(mat.ok());
  auto touch2 = live.ApplyBatch(
      {Mutation::Delete(mat->compact_of[first]), Mutation::AppendLeaf(0, "y")},
      mat->stable_of);
  ASSERT_TRUE(touch2.ok());
  EXPECT_GT(touch2->new_nodes[0], first);  // The dead slot is not recycled.
  EXPECT_FALSE(live.alive(first));
}

/// An independent model of the live graph for the differential test below:
/// labels, liveness and an edge map in stable ids, with the Mutation
/// contract applied from scratch (no MutableDataGraph code).
struct GraphModel {
  std::vector<std::string> labels;
  std::vector<uint8_t> alive;
  std::map<std::pair<uint32_t, uint32_t>, EdgeKind> edges;
  uint32_t root = 0;

  explicit GraphModel(const DataGraph& g) : alive(g.num_nodes(), 1) {
    root = g.root();
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      labels.push_back(g.label_name(n));
      const auto kids = g.children(n);
      const auto kinds = g.child_kinds(n);
      for (size_t i = 0; i < kids.size(); ++i) edges[{n, kids[i]}] = kinds[i];
    }
  }

  std::vector<uint32_t> StableOf() const {
    std::vector<uint32_t> out;
    for (uint32_t s = 0; s < alive.size(); ++s) {
      if (alive[s]) out.push_back(s);
    }
    return out;
  }

  /// Applies `op` (compact ids of the version `stable_of` describes);
  /// false if the contract rejects it.
  bool Apply(const Mutation& op, const std::vector<uint32_t>& stable_of) {
    auto live = [&](NodeId c, uint32_t* s) {
      if (c >= stable_of.size()) return false;
      *s = stable_of[c];
      return alive[*s] != 0;
    };
    uint32_t from = 0, to = 0;
    if (!live(op.target, &from)) return false;
    switch (op.kind) {
      case Mutation::Kind::kAppendSubtree: {
        const uint32_t base = static_cast<uint32_t>(labels.size());
        for (const std::string& l : op.subtree.labels) {
          labels.push_back(l);
          alive.push_back(1);
        }
        edges[{from, base}] = EdgeKind::kRegular;
        for (const SubtreeSpec::Edge& e : op.subtree.edges) {
          edges[{base + e.from, base + e.to}] = e.kind;
        }
        return true;
      }
      case Mutation::Kind::kDeleteSubtree: {
        std::vector<uint8_t> doomed(alive.size(), 0);
        std::vector<uint32_t> stack = {from};
        doomed[from] = 1;
        while (!stack.empty()) {
          const uint32_t s = stack.back();
          stack.pop_back();
          for (auto it = edges.lower_bound({s, 0});
               it != edges.end() && it->first.first == s; ++it) {
            const uint32_t c = it->first.second;
            if (it->second == EdgeKind::kRegular && !doomed[c]) {
              doomed[c] = 1;
              stack.push_back(c);
            }
          }
        }
        if (doomed[root]) return false;
        std::erase_if(edges, [&](const auto& e) {
          return doomed[e.first.first] || doomed[e.first.second];
        });
        for (uint32_t s = 0; s < alive.size(); ++s) {
          if (doomed[s]) alive[s] = 0;
        }
        return true;
      }
      case Mutation::Kind::kAddRefEdge:
        if (!live(op.ref_target, &to) || edges.contains({from, to})) {
          return false;
        }
        edges[{from, to}] = EdgeKind::kReference;
        return true;
      case Mutation::Kind::kRemoveRefEdge: {
        if (!live(op.ref_target, &to)) return false;
        auto it = edges.find({from, to});
        if (it == edges.end() || it->second != EdgeKind::kReference) {
          return false;
        }
        edges.erase(it);
        return true;
      }
    }
    return false;
  }

  DataGraph Build() const {
    std::vector<NodeId> compact(alive.size(), kInvalidNode);
    DataGraphBuilder b;
    for (uint32_t s = 0; s < alive.size(); ++s) {
      if (!alive[s]) continue;
      compact[s] = static_cast<NodeId>(b.AddNode(labels[s]));
    }
    for (const auto& [e, kind] : edges) {
      b.AddEdge(compact[e.first], compact[e.second], kind);
    }
    b.SetRoot(compact[root]);
    return std::move(std::move(b).Build()).value();
  }
};

/// Every array of the two graphs' CSR, parents and label buckets agrees.
void ExpectSameCsr(const DataGraph& a, const DataGraph& b) {
  auto eq = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  EXPECT_EQ(a.root(), b.root());
  EXPECT_EQ(a.num_reference_edges(), b.num_reference_edges());
  EXPECT_TRUE(eq(a.node_labels(), b.node_labels()));
  EXPECT_TRUE(eq(a.child_row_offsets(), b.child_row_offsets()));
  EXPECT_TRUE(eq(a.child_row_targets(), b.child_row_targets()));
  EXPECT_TRUE(eq(a.child_row_kinds(), b.child_row_kinds()));
  EXPECT_TRUE(eq(a.parent_row_offsets(), b.parent_row_offsets()));
  EXPECT_TRUE(eq(a.parent_row_targets(), b.parent_row_targets()));
  EXPECT_TRUE(eq(a.label_bucket_offsets(), b.label_bucket_offsets()));
  EXPECT_TRUE(eq(a.label_bucket_nodes(), b.label_bucket_nodes()));
}

/// One random batch against `g`'s compact ids, mostly on seed rows: leaf
/// and small-subtree appends, subtree deletes, ref adds and removes; a
/// fifth of the batches end in a delete of the root, so everything before
/// it rolls back.
MutationBatch RandomOverlayBatch(Rng& rng, const DataGraph& g) {
  const auto pick = [&] { return static_cast<NodeId>(rng.Below(g.num_nodes())); };
  MutationBatch batch;
  const size_t ops = 1 + rng.Below(4);
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t roll = rng.Below(100);
    if (roll < 35) {
      SubtreeSpec spec;
      spec.labels.push_back("l" + std::to_string(rng.Below(4)));
      if (rng.Chance(0.5)) {
        spec.labels.push_back("new");
        spec.labels.push_back("l0");
        spec.edges = {{0, 1, EdgeKind::kRegular}, {0, 2, EdgeKind::kRegular}};
        if (rng.Chance(0.5)) spec.edges.push_back({2, 1, EdgeKind::kReference});
      }
      batch.push_back(Mutation::Append(pick(), std::move(spec)));
    } else if (roll < 50) {
      batch.push_back(Mutation::Delete(pick()));
    } else if (roll < 75) {
      batch.push_back(Mutation::AddRef(pick(), pick()));
    } else {
      // Prefer an existing reference edge, so removals mostly succeed.
      NodeId from = pick(), to = pick();
      for (int tries = 0; tries < 20; ++tries) {
        const NodeId u = pick();
        const auto kinds = g.child_kinds(u);
        const auto ref =
            std::find(kinds.begin(), kinds.end(), EdgeKind::kReference);
        if (ref != kinds.end()) {
          from = u;
          to = g.children(u)[ref - kinds.begin()];
          break;
        }
      }
      batch.push_back(Mutation::RemoveRef(from, to));
    }
  }
  if (rng.Chance(0.2)) batch.push_back(Mutation::Delete(g.root()));
  return batch;
}

TEST(MutableGraphTest, OverlayMatchesAnIndependentModel) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto g0 = std::make_shared<const DataGraph>(
        mrx::testing::RandomGraph(seed, 120, 4, 40));
    LiveGraph graph(g0);
    // A second, hand-driven twin checks MaterializeAfter against a full
    // Materialize() of the same state.
    MutableDataGraph twin(*g0);
    MutableDataGraph::Materialized prev{*g0, Identity(g0->num_nodes()), {}};
    GraphModel model(*g0);
    size_t applied = 0, rejected = 0;
    for (int step = 0; step < 80; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const MutationBatch batch = RandomOverlayBatch(rng, graph.graph());
      GraphModel next = model;
      const std::vector<uint32_t> stable_of = model.StableOf();
      bool accepted = true;
      for (const Mutation& op : batch) {
        accepted = accepted && next.Apply(op, stable_of);
      }
      const auto live_step = graph.Apply(batch);
      const auto touch = twin.ApplyBatch(batch, prev.stable_of);
      ASSERT_EQ(live_step.ok(), accepted);
      ASSERT_EQ(touch.ok(), accepted);
      if (!accepted) {
        ++rejected;
        // Rolled back exactly, down to the label buckets and the symbol
        // table.
        auto full = twin.Materialize();
        ASSERT_TRUE(full.ok());
        ExpectSameCsr(full->graph, prev.graph);
        EXPECT_EQ(full->graph.symbols().size(), prev.graph.symbols().size());
        EXPECT_EQ(full->stable_of, prev.stable_of);
        continue;
      }
      ++applied;
      model = std::move(next);
      const DataGraph expected = model.Build();
      ASSERT_EQ(SigOf(graph.graph()), SigOf(expected));

      auto after = twin.MaterializeAfter(prev.graph, prev.stable_of, *touch);
      auto full = twin.Materialize();
      ASSERT_TRUE(after.ok());
      ASSERT_TRUE(full.ok());
      ExpectSameCsr(after->graph, full->graph);
      ExpectSameCsr(after->graph, graph.graph());
      EXPECT_EQ(after->stable_of, full->stable_of);
      EXPECT_EQ(after->compact_of, full->compact_of);
      prev = *std::move(after);
    }
    // Both outcomes were exercised.
    EXPECT_GT(applied, 20u);
    EXPECT_GT(rejected, 5u);
  }
}

TEST(MutableGraphTest, RejectedAppendsLeaveNoLabelsBehind) {
  const DataGraph g = MakeFigure3Graph();
  MutableDataGraph live(g);
  const size_t labels = live.symbols().size();
  for (int i = 0; i < 50; ++i) {
    // The append interns a fresh label; the root delete then fails.
    const MutationBatch batch{
        Mutation::AppendLeaf(1, "fresh" + std::to_string(i)),
        Mutation::Delete(0)};
    ASSERT_FALSE(live.ApplyBatch(batch, Identity(g.num_nodes())).ok());
  }
  EXPECT_EQ(live.symbols().size(), labels);
  auto mat = live.Materialize();
  ASSERT_TRUE(mat.ok());
  ExpectSameCsr(mat->graph, g);
}

}  // namespace
}  // namespace mrx::mutate
