// Pins the refinement split kernel, IndexGraph::SplitByParents, to the
// per-parent loop it replaced in SPLITNODE*, PROMOTE*, REFINENODE and
// PROMOTE (§2, §3.2, §4.2): for u in us ascending, build Succ(u) over u's
// extent and split every piece into w ∩ Succ(u) and w \ Succ(u). That
// loop survives here only as the reference. Piece order matters — it
// decides the ids of the new index nodes — so pieces must match exactly,
// not just as sets. The golden test then pins whole refined partitions
// of every index family to fingerprints recorded with the per-parent loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check/case_gen.h"
#include "harness/datasets.h"
#include "index/d_k_index.h"
#include "index/index_graph.h"
#include "index/m_k_index.h"
#include "index/m_star_index.h"
#include "tests/section5.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace mrx {
namespace {

using mrx::testing::Digest;
using mrx::testing::MakeFigure3Graph;
using mrx::testing::MakeGraph;
using mrx::testing::Section5Fups;
using Pieces = std::vector<std::vector<NodeId>>;

/// The paper's Succ(s): all data nodes with a parent in `s`; sorted.
std::vector<NodeId> ReferenceSucc(const DataGraph& g,
                                  const std::vector<NodeId>& s) {
  std::vector<NodeId> out;
  for (NodeId o : s) {
    auto kids = g.children(o);
    out.insert(out.end(), kids.begin(), kids.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The per-parent split loop, verbatim in structure.
Pieces ReferenceSplit(const IndexGraph& by, const std::vector<NodeId>& members,
                      const std::vector<IndexNodeId>& us) {
  Pieces pieces = {members};
  if (members.empty()) return {};
  for (IndexNodeId u : us) {
    const std::vector<NodeId> succ =
        ReferenceSucc(by.data(), by.node(u).extent.ids());
    Pieces next;
    for (const auto& w : pieces) {
      std::vector<NodeId> in;
      std::vector<NodeId> out;
      std::set_intersection(w.begin(), w.end(), succ.begin(), succ.end(),
                            std::back_inserter(in));
      std::set_difference(w.begin(), w.end(), succ.begin(), succ.end(),
                          std::back_inserter(out));
      if (!in.empty()) next.push_back(std::move(in));
      if (!out.empty()) next.push_back(std::move(out));
    }
    pieces.swap(next);
  }
  return pieces;
}

TEST(SplitKernelTest, ReferenceSuccOnFigure3) {
  DataGraph g = MakeFigure3Graph();
  EXPECT_EQ(ReferenceSucc(g, {0}), (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(ReferenceSucc(g, {2, 3}), (std::vector<NodeId>{5, 6, 7, 8, 9}));
  EXPECT_TRUE(ReferenceSucc(g, {}).empty());
}

TEST(SplitKernelTest, PieceOrderFollowsTheParentLoop) {
  // Four b members whose parents sit in index nodes a (column 0) and c
  // (column 1): b4 under both, b5 under a only, b6 under c only, b7 under
  // neither (its parent d is outside us). The loop splits by a first
  // (in before out), then by c: {a,c}, {a}, {c}, {} — a list that is a
  // strict prefix of another sorts after it.
  DataGraph g = MakeGraph({"r", "a", "c", "d", "b", "b", "b", "b"},
                          {{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}, {1, 5},
                           {2, 6}, {3, 7}});
  IndexGraph ig = IndexGraph::LabelPartition(g);
  std::vector<IndexNodeId> us = {ig.index_of(1), ig.index_of(2)};
  std::sort(us.begin(), us.end());
  const std::vector<NodeId> members = {4, 5, 6, 7};
  SplitScratch scratch;
  const Pieces pieces = ig.SplitByParents(members, us, &scratch);
  EXPECT_EQ(pieces, ReferenceSplit(ig, members, us));
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces.back(), (std::vector<NodeId>{7}));
}

TEST(SplitKernelTest, EdgeCasesMatchReference) {
  SplitScratch scratch;
  // v ∈ parents(v): a self-loop plus a reference cycle a -> b -> a.
  DataGraph g = MakeGraph({"r", "a", "a", "b", "b"},
                          {{0, 1}, {1, 2}, {2, 2}, {1, 3}, {2, 4}, {3, 1}});
  IndexGraph ig = IndexGraph::LabelPartition(g);
  const IndexNodeId a = ig.index_of(1);
  ASSERT_TRUE(std::binary_search(ig.node(a).parents.begin(),
                                 ig.node(a).parents.end(), a));
  const std::vector<NodeId> a_members = ig.node(a).extent.ids();
  EXPECT_EQ(ig.SplitByParents(a_members, ig.node(a).parents, &scratch),
            ReferenceSplit(ig, a_members, ig.node(a).parents));
  // Empty us: one piece, the members unchanged.
  EXPECT_EQ(ig.SplitByParents(a_members, {}, &scratch), Pieces{a_members});
  // The root has no parents: it lands in the last piece.
  const std::vector<NodeId> all = {0, 1, 2, 3, 4};
  const std::vector<IndexNodeId> us = ig.AliveNodes();
  const Pieces pieces = ig.SplitByParents(all, us, &scratch);
  EXPECT_EQ(pieces, ReferenceSplit(ig, all, us));
  EXPECT_EQ(pieces.back(), (std::vector<NodeId>{0}));
  // No members, no pieces.
  EXPECT_TRUE(ig.SplitByParents({}, us, &scratch).empty());
}

/// A random label-uniform partition: each label's nodes spread over up to
/// three blocks (or plain A(0) some of the time).
IndexGraph RandomPartition(const DataGraph& g, Rng& rng) {
  if (rng.Chance(0.3)) return IndexGraph::LabelPartition(g);
  std::map<uint64_t, uint32_t> dense;
  std::vector<uint32_t> block_of(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const uint64_t raw = uint64_t{g.label(n)} * 3 + rng.Below(3);
    auto [it, fresh] = dense.emplace(raw, static_cast<uint32_t>(dense.size()));
    block_of[n] = it->second;
  }
  const uint32_t blocks = static_cast<uint32_t>(dense.size());
  return IndexGraph::FromPartition(g, block_of, blocks,
                                   std::vector<int32_t>(blocks, 0));
}

TEST(SplitKernelTest, RandomCasesMatchReference) {
  struct {
    size_t self_loop = 0;       // v ∈ us for the node v being split.
    size_t empty_us = 0;
    size_t orphan = 0;          // a member with no data parents.
    size_t outside_parent = 0;  // a member with a parent outside us.
    size_t multi_piece = 0;
  } seen;
  Rng rng(2024);
  SplitScratch scratch;  // Reused across cases, as refinement does.
  check::CaseGenOptions options;
  for (int c = 0; c < 300; ++c) {
    const check::GeneratedCase gen = check::GenerateCase(rng, options);
    Result<DataGraph> built = gen.graph.Build();
    ASSERT_TRUE(built.ok()) << built.status();
    const DataGraph& g = *built;
    IndexGraph by = RandomPartition(g, rng);
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<IndexNodeId> alive = by.AliveNodes();
      const IndexNodeId v = alive[rng.Below(alive.size())];
      std::vector<NodeId> members;
      std::vector<IndexNodeId> us;
      if (rng.Chance(0.5)) {  // The promote shape: v's extent, all parents.
        members = by.node(v).extent.ids();
        us = by.node(v).parents;
      } else {  // Arbitrary members and an arbitrary subset of nodes.
        for (NodeId o = 0; o < g.num_nodes(); ++o) {
          if (rng.Chance(0.4)) members.push_back(o);
        }
        for (IndexNodeId u : alive) {
          if (rng.Chance(0.3)) us.push_back(u);
        }
      }
      if (rng.Chance(0.1)) us.clear();
      const Pieces pieces = by.SplitByParents(members, us, &scratch);
      ASSERT_EQ(pieces, ReferenceSplit(by, members, us))
          << "case " << c << " (" << gen.shape << ") trial " << trial;

      seen.self_loop += std::binary_search(us.begin(), us.end(), v);
      seen.empty_us += us.empty() && !members.empty();
      seen.multi_piece += pieces.size() > 1;
      for (NodeId m : members) {
        seen.orphan += g.parents(m).empty();
        for (NodeId p : g.parents(m)) {
          seen.outside_parent +=
              !std::binary_search(us.begin(), us.end(), by.index_of(p));
        }
      }
      // Apply a promote-shaped split so later trials run on a partition
      // with tombstones and fresh ids, sharing the same scratch.
      if (by.node(v).extent.size() > 1) {
        std::vector<IndexGraph::Part> parts;
        for (auto& piece : by.SplitByParents(by.node(v).extent.ids(),
                                             by.node(v).parents, &scratch)) {
          parts.push_back(IndexGraph::Part{std::move(piece), 1});
        }
        by.ReplaceNode(v, std::move(parts));
        by.RebuildAdjacency(&scratch);
        ASSERT_TRUE(by.CheckConsistency().ok()) << by.CheckConsistency();
      }
    }
  }
  EXPECT_GT(seen.self_loop, 0u);
  EXPECT_GT(seen.empty_us, 0u);
  EXPECT_GT(seen.orphan, 0u);
  EXPECT_GT(seen.outside_parent, 0u);
  EXPECT_GT(seen.multi_piece, 0u);
}

TEST(SplitKernelTest, ScratchPassWrapKeepsAdjacencyExact) {
  DataGraph g = mrx::testing::RandomGraph(31, 60, 4, 30);
  IndexGraph ig = IndexGraph::LabelPartition(g);
  SplitScratch scratch;
  const uint32_t start = UINT32_MAX - 3;
  scratch.pass = start;  // Wraps within the next few splits.
  Rng rng(8);
  for (int step = 0; step < 20; ++step) {
    const std::vector<IndexNodeId> alive = ig.AliveNodes();
    const IndexNodeId v = alive[rng.Below(alive.size())];
    std::vector<IndexGraph::Part> parts;
    for (auto& piece : ig.SplitByParents(ig.node(v).extent.ids(),
                                         ig.node(v).parents, &scratch)) {
      parts.push_back(IndexGraph::Part{std::move(piece), 1});
    }
    ig.ReplaceNode(v, std::move(parts));
    ig.RebuildAdjacency(&scratch);
    ASSERT_TRUE(ig.CheckConsistency().ok()) << ig.CheckConsistency();
  }
  // The counter wrapped: it can only end below where it started by going
  // through zero, however many passes each split takes.
  EXPECT_LT(scratch.pass, start);
}

/// Every alive node of `graph`: id, label, k, extent and children.
void AddGraph(const IndexGraph& graph, Digest* digest) {
  for (IndexNodeId v = 0; v < graph.capacity(); ++v) {
    if (!graph.alive(v)) continue;
    const IndexGraph::Node& node = graph.node(v);
    digest->Add(v);
    digest->Add(node.label);
    digest->Add(static_cast<uint32_t>(node.k));
    digest->Add(node.extent.size());
    for (NodeId o : node.extent) digest->Add(o);
    digest->Add(node.children.size());
    for (IndexNodeId c : node.children) digest->Add(c);
  }
}

struct Golden {
  size_t nodes = 0;  ///< Alive index nodes over all components.
  uint64_t digest = 0;
};

Golden OfGraph(const IndexGraph& graph) {
  Digest digest;
  AddGraph(graph, &digest);
  return Golden{graph.num_nodes(), digest.value()};
}

/// Every component, plus the supernode link of every alive node.
Golden OfHierarchy(const MStarIndex& index) {
  Digest digest;
  size_t nodes = 0;
  for (size_t i = 0; i < index.num_components(); ++i) {
    const IndexGraph& comp = index.component(i);
    digest.Add(i);
    AddGraph(comp, &digest);
    nodes += comp.num_nodes();
    if (i == 0) continue;
    for (IndexNodeId v = 0; v < comp.capacity(); ++v) {
      if (comp.alive(v)) digest.Add(index.supernode(i, v));
    }
  }
  return Golden{nodes, digest.value()};
}

/// Every index family refined by the §5 FUPs of one dataset. Each refined
/// graph must also pass the structural checks: the digests hash children
/// and supernode links only, so stale parent or subnode lists after a
/// refine call would slip past them.
std::vector<std::pair<std::string, Golden>> RefinedFingerprints(
    const std::string& name, const DataGraph& g) {
  const std::vector<PathExpression> fups = Section5Fups(g);
  std::vector<std::pair<std::string, Golden>> out;
  for (bool merge : {true, false}) {
    MkIndex mk(g);
    mk.set_merge_unnecessary_splits(merge);
    for (const PathExpression& fup : fups) mk.Refine(fup);
    const std::string key = name + (merge ? "/mk" : "/mk_nomerge");
    const Status consistent = mk.graph().CheckConsistency();
    EXPECT_TRUE(consistent.ok()) << key << ": " << consistent;
    out.emplace_back(key, OfGraph(mk.graph()));
  }
  DkIndex dk(g);
  for (const PathExpression& fup : fups) dk.Promote(fup);
  const Status dk_consistent = dk.graph().CheckConsistency();
  EXPECT_TRUE(dk_consistent.ok()) << name << "/dk: " << dk_consistent;
  out.emplace_back(name + "/dk", OfGraph(dk.graph()));
  MStarIndex mstar(g);
  mstar.RefineBatch(fups);
  const Status properties = mstar.CheckProperties();
  EXPECT_TRUE(properties.ok()) << name << "/mstar: " << properties;
  out.emplace_back(name + "/mstar", OfHierarchy(mstar));
  out.emplace_back(name + "/fups", Golden{fups.size(), 0});
  return out;
}

// Recorded with the per-parent split loop and eager per-split adjacency:
// the kernel, the batched adjacency rebuild, the linear cascade and the
// call sites must leave every refined partition — node ids, labels, k,
// extents, children and supernode links — unchanged.
TEST(SplitKernelTest, RefinedPartitionsMatchGolden) {
  const std::map<std::string, Golden> expected = {
      {"xmark/mk", {8168, 0xe3dd30f657271ed7ull}},
      {"xmark/mk_nomerge", {7506, 0x50be1dd692bffa35ull}},
      {"xmark/dk", {7877, 0x3325ff34e851c418ull}},
      {"xmark/mstar", {16492, 0xd34df5512d506a2full}},
      {"xmark/fups", {235, 0}},
      {"nasa/mk", {2103, 0xf41d4e6c77e4ffbfull}},
      {"nasa/mk_nomerge", {2910, 0xb24aee66859f816aull}},
      {"nasa/dk", {3126, 0x0d33fa140b9703deull}},
      {"nasa/mstar", {8258, 0x6cc09d41f22bda52ull}},
      {"nasa/fups", {272, 0}},
  };
  for (const std::string name : {"xmark", "nasa"}) {
    Result<DataGraph> g = name == "xmark" ? harness::BuildXMarkGraph(0.2)
                                          : harness::BuildNasaGraph(0.2);
    ASSERT_TRUE(g.ok()) << g.status();
    for (const auto& [key, actual] : RefinedFingerprints(name, *g)) {
      const Golden& want = expected.at(key);
      EXPECT_EQ(actual.nodes, want.nodes) << key;
      EXPECT_EQ(actual.digest, want.digest)
          << key << std::hex << " digest 0x" << actual.digest;
    }
  }
}

// Refine(fup) is RefineBatch({fup}): one scratch per call, so its stamp
// counter restarts at every call while the cascade leaves its touched-list
// slots behind in the scratch. Each call must still return with exact
// adjacency and Properties 1-5, and the calls together must refine to the
// same hierarchy as one batch.
TEST(SplitKernelTest, PerFupRefineKeepsPropertiesAndMatchesBatch) {
  for (const std::string name : {"xmark", "nasa"}) {
    Result<DataGraph> g = name == "xmark" ? harness::BuildXMarkGraph(0.05)
                                          : harness::BuildNasaGraph(0.05);
    ASSERT_TRUE(g.ok()) << g.status();
    const std::vector<PathExpression> fups = Section5Fups(*g);
    ASSERT_FALSE(fups.empty()) << name;
    MStarIndex each(*g);
    for (size_t i = 0; i < fups.size(); ++i) {
      each.Refine(fups[i]);
      const Status properties = each.CheckProperties();
      ASSERT_TRUE(properties.ok())
          << name << " after FUP " << i << " "
          << fups[i].ToString(g->symbols()) << ": "
          << properties;
    }
    MStarIndex batch(*g);
    batch.RefineBatch(fups);
    const Status batch_properties = batch.CheckProperties();
    EXPECT_TRUE(batch_properties.ok()) << name << ": " << batch_properties;
    const Golden a = OfHierarchy(each);
    const Golden b = OfHierarchy(batch);
    EXPECT_EQ(a.nodes, b.nodes) << name;
    EXPECT_EQ(a.digest, b.digest) << name;
  }
}

}  // namespace
}  // namespace mrx
