#include "index/m_k_index.h"

#include <algorithm>

#include "index/extent_ops.h"

namespace mrx {

MkIndex::MkIndex(const DataGraph& g)
    : graph_(IndexGraph::LabelPartition(g)), evaluator_(g) {}

QueryResult MkIndex::Query(const PathExpression& path) {
  return AnswerOnIndex(graph_, path, &evaluator_);
}

void MkIndex::Refine(const PathExpression& fup) {
  const int32_t len = static_cast<int32_t>(fup.length());
  if (len == 0) return;  // A single label is precise already (k ≥ 0).
  // No finite k certifies a descendant-axis expression; leave such
  // queries to validation.
  if (fup.HasDescendantAxis()) return;

  // T: target set in the data graph; in the §3 lifecycle it comes from the
  // validation pass of the query processor.
  std::vector<NodeId> target = evaluator_.Evaluate(fup);
  SplitScratch scratch;  // Shared by every split of this call.

  // REFINE lines 1-2. The union over the index target set S of
  // v.extent ∩ T is T itself (the index is safe), and RefineNode re-derives
  // the current covering index nodes internally, so one call suffices and
  // stays correct even when refining one S-node splits another.
  if (!target.empty()) RefineNode(target, len, &scratch);

  // REFINE lines 3-4: break false instances of the FUP that refinement may
  // have created (the Figure 6 situation).
  while (true) {
    std::vector<IndexNodeId> s = RefinementTargetSet(&graph_, fup, &scratch);
    IndexNodeId bad = kInvalidIndexNode;
    for (IndexNodeId v : s) {
      if (graph_.node(v).k < len) {
        bad = v;
        break;
      }
    }
    if (bad == kInvalidIndexNode) {
      graph_.RebuildAdjacency(&scratch);
      return;
    }
    // Hold the extent: PromotePrime splits nodes, which can reallocate the
    // node array and invalidate references into it.
    const Extent bad_extent = graph_.node(bad).extent;
    PromotePrime(bad_extent.ids(), len, fup, &scratch);
  }
}

void MkIndex::RefineNode(const std::vector<NodeId>& relevant, int32_t k,
                         SplitScratch* scratch) {
  if (k <= 0 || relevant.empty()) return;

  // Covers: current index nodes of the relevant data nodes that still lack
  // similarity k (the check of REFINENODE line 2).
  auto under_refined_covers = [&]() {
    std::vector<IndexNodeId> covers;
    for (NodeId o : relevant) covers.push_back(graph_.index_of(o));
    std::sort(covers.begin(), covers.end());
    covers.erase(std::unique(covers.begin(), covers.end()), covers.end());
    std::erase_if(covers,
                  [&](IndexNodeId v) { return graph_.node(v).k >= k; });
    return covers;
  };

  std::vector<IndexNodeId> covers = under_refined_covers();
  if (covers.empty()) return;

  // Restrict to the relevant nodes inside under-refined covers: per the
  // paper, REFINENODE returns immediately for nodes with v.k ≥ k, so their
  // relevant data must not drive parent refinement.
  std::vector<NodeId> active_relevant;
  for (IndexNodeId v : covers) {
    std::vector<NodeId> here = Intersect(graph_.node(v).extent, relevant);
    active_relevant.insert(active_relevant.end(), here.begin(), here.end());
  }
  SortUnique(&active_relevant);

  // Lines 4-7: recursively refine only parents containing predecessors of
  // the relevant data (this is what avoids D(k)'s over-refinement). The
  // per-parent predData sets of the paper union to Pred(active_relevant),
  // and the recursion re-derives its own covers, so one extent-level call
  // is equivalent and survives splits of the current node via cycles.
  RefineNode(graph_.Pred(active_relevant), k - 1, scratch);

  // Lines 9-26: split each (re-derived) cover.
  for (IndexNodeId v : under_refined_covers()) {
    SplitCover(v, k, active_relevant, scratch);
  }
}

void MkIndex::SplitCover(IndexNodeId v, int32_t k,
                         const std::vector<NodeId>& relevant,
                         SplitScratch* scratch) {
  const int32_t kold = graph_.node(v).k;
  std::vector<NodeId> relevant_here =
      Intersect(graph_.node(v).extent, relevant);
  if (relevant_here.empty()) return;

  // Lines 10-17: partition v's extent by Succ of each qualifying parent —
  // the parents holding a data parent of a relevant member. With the
  // merge ablation active, *all* parents qualify and no pieces merge —
  // reproducing D(k)'s PROMOTE splitting exactly. The holders are parents
  // of v by Property 2, so only the ablation reads adjacency.
  std::vector<IndexNodeId> qualifying;
  if (merge_unnecessary_splits_) {
    qualifying = graph_.ParentHolders(relevant_here);
  } else {
    graph_.RebuildAdjacency(scratch);
    qualifying = graph_.node(v).parents;
  }
  std::vector<std::vector<NodeId>> pieces =
      graph_.SplitByParents(graph_.node(v).extent.ids(), qualifying, scratch);

  // Lines 19-26: merge pieces with no relevant member into one remainder
  // that keeps the old similarity (unless the ablation hook turned merging
  // off, in which case every piece gets k as in PROMOTE).
  //
  // Soundness refinement over the paper's literal pseudocode: a piece that
  // mixes relevant and irrelevant members keeps an irrelevant member at k
  // only if *all of that member's data parents lie inside the qualifying
  // parents' extents*. For such members the Venn-cell argument of Lemma 1
  // applies (same Succ membership for every qualifying, (k-1)-uniform
  // parent ⇒ k-bisimilar to the relevant members); a member with a parent
  // the split never consulted has no such guarantee and recording k for it
  // can produce false positives later, so it joins the remainder instead.
  std::vector<IndexGraph::Part> parts;
  std::vector<NodeId> remainder;
  auto provably_bisimilar = [&](NodeId m) {
    for (NodeId p : graph_.data().parents(m)) {
      if (!std::binary_search(qualifying.begin(), qualifying.end(),
                              graph_.index_of(p))) {
        return false;
      }
    }
    return true;
  };
  for (auto& piece : pieces) {
    if (!merge_unnecessary_splits_) {
      parts.push_back(IndexGraph::Part{std::move(piece), k});
      continue;
    }
    if (!Overlaps(piece, relevant_here)) {
      remainder.insert(remainder.end(), piece.begin(), piece.end());
      continue;
    }
    std::vector<NodeId> keep;
    for (NodeId m : piece) {
      if (provably_bisimilar(m)) {
        keep.push_back(m);
      } else {
        remainder.push_back(m);
      }
    }
    if (!keep.empty()) {
      parts.push_back(IndexGraph::Part{std::move(keep), k});
    }
  }
  if (!remainder.empty()) {
    SortUnique(&remainder);
    parts.push_back(IndexGraph::Part{std::move(remainder), kold});
  }
  graph_.ReplaceNode(v, std::move(parts));
}

bool MkIndex::NoFalseInstances(const PathExpression& fup,
                               SplitScratch* scratch) {
  const int32_t len = static_cast<int32_t>(fup.length());
  for (IndexNodeId v : RefinementTargetSet(&graph_, fup, scratch)) {
    if (graph_.node(v).k < len) return false;
  }
  return true;
}

bool MkIndex::PromotePrime(const std::vector<NodeId>& extent, int32_t kv,
                           const PathExpression& fup, SplitScratch* scratch) {
  if (NoFalseInstances(fup, scratch)) return true;
  if (kv <= 0 || extent.empty()) return false;

  auto under_refined_covers = [&]() {
    std::vector<IndexNodeId> covers;
    for (NodeId o : extent) covers.push_back(graph_.index_of(o));
    std::sort(covers.begin(), covers.end());
    covers.erase(std::unique(covers.begin(), covers.end()), covers.end());
    std::erase_if(covers,
                  [&](IndexNodeId v) { return graph_.node(v).k >= kv; });
    return covers;
  };

  std::vector<IndexNodeId> covers = under_refined_covers();
  if (covers.empty()) return NoFalseInstances(fup, scratch);

  // PROMOTE lines 3-4 (all parents, no relevance filter).
  std::vector<NodeId> parent_extent;
  for (IndexNodeId v : covers) {
    for (NodeId o : graph_.node(v).extent) {
      auto ps = graph_.data().parents(o);
      parent_extent.insert(parent_extent.end(), ps.begin(), ps.end());
    }
  }
  SortUnique(&parent_extent);
  if (PromotePrime(parent_extent, kv - 1, fup, scratch)) return true;

  // PROMOTE lines 5-6, with the "long jump" check after each node's split
  // completes (splitting only part-way would record an unsound k).
  for (IndexNodeId v : under_refined_covers()) {
    graph_.RebuildAdjacency(scratch);
    std::vector<IndexGraph::Part> parts;
    for (auto& piece :
         graph_.SplitByParents(graph_.node(v).extent.ids(),
                               graph_.node(v).parents, scratch)) {
      parts.push_back(IndexGraph::Part{std::move(piece), kv});
    }
    graph_.ReplaceNode(v, std::move(parts));
    if (NoFalseInstances(fup, scratch)) return true;
  }
  return NoFalseInstances(fup, scratch);
}

}  // namespace mrx
