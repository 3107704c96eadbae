// Pins the false-instance walk of REFINE* (§4.2) between adjacency
// rebuilds. Inside a batch, RefineBatch leaves the adjacency of the nodes
// its splits create underived, and each FUP's check walks the component
// through IndexGraph::ChildrenForWalk, which derives only what the walk
// reads. After every FUP of the §5 workload, that scoped walk must find
// exactly the target set a walk over fully rebuilt adjacency finds, and the
// batch driven one FUP at a time must end in RefineBatch's hierarchy.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/datasets.h"
#include "index/evaluator.h"
#include "index/m_star_index.h"
#include "query/data_evaluator.h"
#include "tests/section5.h"

namespace mrx {

/// RefineBatch, one FUP at a time, with the hierarchy open in between.
class MStarIndexTestPeer {
 public:
  explicit MStarIndexTestPeer(MStarIndex* index) : index_(index) {}

  /// RefineWithTarget for `fup`; returns whether PROMOTE* had false
  /// instances to break after REFINENODE*.
  bool Refine(const PathExpression& fup, const std::vector<NodeId>& target,
              SplitScratch* scratch) {
    const size_t len = fup.length();
    while (index_->components_.size() <= len) index_->AppendComponentCopy();
    if (!target.empty()) {
      index_->RefineNodeStar(static_cast<int>(len), target, scratch);
    }
    const bool promotes =
        index_->FirstFalseInstance(fup, scratch) != kInvalidIndexNode;
    index_->RefineWithTarget(fup, {}, scratch);  // The PROMOTE* loop only.
    return promotes;
  }

  void Finish(SplitScratch* scratch) { index_->FinishRefine(scratch); }

  size_t num_components() const { return index_->components_.size(); }
  IndexGraph* component(size_t i) { return &index_->components_[i].graph; }

 private:
  MStarIndex* index_;
};

namespace {

using mrx::testing::Section5Fups;

/// Same ids, labels, k, extents, children and supernode links.
bool SameHierarchy(const MStarIndex& a, const MStarIndex& b) {
  if (a.num_components() != b.num_components()) return false;
  for (size_t i = 0; i < a.num_components(); ++i) {
    const IndexGraph& x = a.component(i);
    const IndexGraph& y = b.component(i);
    if (x.capacity() != y.capacity()) return false;
    for (IndexNodeId v = 0; v < x.capacity(); ++v) {
      if (x.alive(v) != y.alive(v)) return false;
      if (!x.alive(v)) continue;
      if (x.node(v).label != y.node(v).label || x.node(v).k != y.node(v).k ||
          x.node(v).extent != y.node(v).extent ||
          x.node(v).children != y.node(v).children ||
          (i > 0 && a.supernode(i, v) != b.supernode(i, v))) {
        return false;
      }
    }
  }
  return true;
}

TEST(MStarRefineWalkTest, ScopedWalkMatchesFullRebuildAfterEveryFup) {
  for (const std::string name : {"xmark", "nasa"}) {
    Result<DataGraph> g = name == "xmark" ? harness::BuildXMarkGraph(0.05)
                                          : harness::BuildNasaGraph(0.05);
    ASSERT_TRUE(g.ok()) << g.status();
    std::vector<PathExpression> fups;
    for (const PathExpression& fup : Section5Fups(*g)) {
      if (fup.length() > 0 && !fup.HasDescendantAxis()) fups.push_back(fup);
    }
    ASSERT_FALSE(fups.empty()) << name;
    DataEvaluator evaluator(*g);

    MStarIndex index(*g);
    MStarIndexTestPeer peer(&index);
    SplitScratch scratch;
    size_t promoted = 0;
    size_t checked = 0;
    for (size_t i = 0; i < fups.size(); ++i) {
      promoted += peer.Refine(fups[i], evaluator.Evaluate(fups[i]), &scratch);
      // The FUP just refined, and the next one, whose check walks this
      // state next.
      for (size_t j = i; j < fups.size() && j <= i + 1; ++j) {
        const size_t len = fups[j].length();
        if (len >= peer.num_components()) continue;
        IndexGraph rebuilt = *peer.component(len);
        SplitScratch rebuild_scratch;
        rebuilt.RebuildAdjacency(&rebuild_scratch);
        ASSERT_TRUE(rebuilt.CheckConsistency().ok())
            << name << " after FUP " << i << ": "
            << rebuilt.CheckConsistency();
        const std::vector<IndexNodeId> want =
            IndexTargetSet(rebuilt, fups[j], nullptr);
        const std::vector<IndexNodeId> got =
            RefinementTargetSet(peer.component(len), fups[j], &scratch);
        ASSERT_EQ(got, want) << name << " after FUP " << i << ", walking "
                             << fups[j].ToString(g->symbols());
        ++checked;
      }
    }
    peer.Finish(&scratch);
    ASSERT_TRUE(index.CheckProperties().ok()) << name;

    MStarIndex batch(*g);
    batch.RefineBatch(fups);
    EXPECT_TRUE(SameHierarchy(index, batch)) << name;
    EXPECT_GE(checked, fups.size()) << name;
    if (name == "nasa") {
      EXPECT_GT(promoted, 0u) << "PROMOTE* never ran";
    }
  }
}

}  // namespace
}  // namespace mrx
