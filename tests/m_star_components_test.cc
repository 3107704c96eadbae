// Tests for MStarIndex::FromComponents (the storage layer's reassembly
// path): valid specs rebuild an equivalent index; malformed specs are
// rejected with precise errors rather than producing a broken index.

#include <gtest/gtest.h>

#include "index/bisimulation.h"
#include "index/m_star_index.h"
#include "query/data_evaluator.h"
#include "tests/test_util.h"

namespace mrx {
namespace {

using mrx::testing::MakeFigure3Graph;

PathExpression Q(const DataGraph& g, std::string_view text) {
  return std::move(PathExpression::Parse(text, g.symbols())).value();
}

/// Extracts the component specs of an index the way the storage encoder
/// does (ordinal = position among alive nodes).
std::vector<MStarComponentSpec> SpecsOf(const MStarIndex& index) {
  std::vector<MStarComponentSpec> specs;
  for (size_t i = 0; i < index.num_components(); ++i) {
    const IndexGraph& comp = index.component(i);
    MStarComponentSpec spec;
    std::vector<uint32_t> ordinal_of;
    if (i > 0) {
      const IndexGraph& prev = index.component(i - 1);
      ordinal_of.assign(prev.capacity(), 0);
      uint32_t ordinal = 0;
      for (IndexNodeId v : prev.AliveNodes()) ordinal_of[v] = ordinal++;
    }
    for (IndexNodeId v : comp.AliveNodes()) {
      spec.extents.push_back(comp.node(v).extent);
      spec.ks.push_back(comp.node(v).k);
      spec.supernodes.push_back(
          i > 0 ? ordinal_of[index.supernode(i, v)] : 0);
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(FromComponentsTest, RebuildsEquivalentIndex) {
  DataGraph g = MakeFigure3Graph();
  DataEvaluator eval(g);
  MStarIndex index(g);
  PathExpression fup = Q(g, "//r/a/b");
  index.Refine(fup);

  auto rebuilt = MStarIndex::FromComponents(g, SpecsOf(index));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(rebuilt->num_components(), index.num_components());
  EXPECT_EQ(rebuilt->PhysicalNodeCount(), index.PhysicalNodeCount());
  QueryResult r = rebuilt->QueryTopDown(fup, &eval);
  EXPECT_TRUE(r.precise);
  EXPECT_EQ(r.answer, eval.Evaluate(fup));
}

TEST(FromComponentsTest, RejectsEmptySpecList) {
  DataGraph g = MakeFigure3Graph();
  EXPECT_FALSE(MStarIndex::FromComponents(g, {}).ok());
}

TEST(FromComponentsTest, RejectsNonPartition) {
  DataGraph g = MakeFigure3Graph();
  MStarComponentSpec spec;
  spec.extents = {Extent(std::vector<NodeId>{0, 1}),
                  Extent(std::vector<NodeId>{1, 2})};  // Node 1 twice.
  spec.ks = {0, 0};
  spec.supernodes = {0, 0};
  EXPECT_FALSE(MStarIndex::FromComponents(g, {spec}).ok());
}

TEST(FromComponentsTest, RejectsIncompleteCover) {
  DataGraph g = MakeFigure3Graph();
  MStarComponentSpec spec;
  spec.extents = {Extent(std::vector<NodeId>{0, 1, 2})};  // 3..9 missing.
  spec.ks = {0};
  spec.supernodes = {0};
  EXPECT_FALSE(MStarIndex::FromComponents(g, {spec}).ok());
}

TEST(FromComponentsTest, RejectsMismatchedVectors) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  auto specs = SpecsOf(index);
  specs[0].ks.pop_back();
  EXPECT_FALSE(MStarIndex::FromComponents(g, specs).ok());
}

TEST(FromComponentsTest, RejectsBadSupernodeOrdinal) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  index.Refine(Q(g, "//r/a"));
  auto specs = SpecsOf(index);
  ASSERT_GT(specs.size(), 1u);
  specs[1].supernodes[0] = 10000;
  EXPECT_FALSE(MStarIndex::FromComponents(g, specs).ok());
}

TEST(FromComponentsTest, RejectsHierarchyViolation) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  index.Refine(Q(g, "//r/a"));
  auto specs = SpecsOf(index);
  ASSERT_GT(specs.size(), 1u);
  // Point a node at the wrong supernode: Property 3 (extent containment)
  // breaks and CheckProperties must catch it.
  specs[1].supernodes[0] =
      (specs[1].supernodes[0] + 1) % specs[0].extents.size();
  EXPECT_FALSE(MStarIndex::FromComponents(g, specs).ok());
}

TEST(FromComponentsTest, RejectsOverCapSimilarity) {
  DataGraph g = MakeFigure3Graph();
  MStarIndex index(g);
  auto specs = SpecsOf(index);
  specs[0].ks[0] = 3;  // Component 0 caps k at 0.
  EXPECT_FALSE(MStarIndex::FromComponents(g, specs).ok());
}

TEST(StaticHierarchyTest, SatisfiesPropertiesAndIsPrecise) {
  DataGraph g = mrx::testing::MakeFigure1Graph();
  DataEvaluator eval(g);
  MStarIndex index = MStarIndex::BuildStaticHierarchy(g, 4);
  ASSERT_EQ(index.num_components(), 5u);
  ASSERT_TRUE(index.CheckProperties().ok()) << index.CheckProperties();
  // Precise for everything up to length 4, no refinement ever done.
  for (const char* text :
       {"//person", "//people/person", "//site/people/person",
        "//auctions/auction/seller/person",
        "//site/auctions/auction/bidder/person"}) {
    auto p = PathExpression::Parse(text, g.symbols());
    ASSERT_TRUE(p.ok());
    QueryResult r = index.QueryTopDown(*p, &eval);
    EXPECT_TRUE(r.precise) << text;
    EXPECT_EQ(r.answer, eval.Evaluate(*p)) << text;
  }
}

TEST(StaticHierarchyTest, ComponentIMatchesAk) {
  DataGraph g = mrx::testing::RandomGraph(401, 50, 4, 25);
  MStarIndex index = MStarIndex::BuildStaticHierarchy(g, 3);
  for (int i = 0; i <= 3; ++i) {
    BisimulationPartition part = ComputeKBisimulation(g, i);
    EXPECT_EQ(index.component(i).num_nodes(), part.num_blocks) << i;
  }
}

TEST(StaticHierarchyTest, RefineBeyondCapStillWorks) {
  DataGraph g = mrx::testing::MakeFigure1Graph();
  DataEvaluator eval(g);
  MStarIndex index = MStarIndex::BuildStaticHierarchy(g, 2);
  auto p = PathExpression::Parse(
      "//root/site/auctions/auction/seller/person", g.symbols());
  ASSERT_TRUE(p.ok());
  index.Refine(*p);
  ASSERT_TRUE(index.CheckProperties().ok()) << index.CheckProperties();
  QueryResult r = index.QueryTopDown(*p, &eval);
  EXPECT_TRUE(r.precise);
  EXPECT_EQ(r.answer, eval.Evaluate(*p));
}

}  // namespace
}  // namespace mrx
