#include "index/d_k_index.h"

#include <algorithm>
#include <unordered_set>

#include "index/bisimulation.h"

namespace mrx {

std::vector<int32_t> ComputeDkLabelRequirements(
    const DataGraph& g, const std::vector<PathExpression>& fups) {
  const size_t num_labels = g.symbols().size();
  std::vector<int32_t> kreq(num_labels, 0);

  for (const PathExpression& fup : fups) {
    if (fup.HasDescendantAxis()) continue;
    const int32_t len = static_cast<int32_t>(fup.length());
    LabelId target = fup.label(fup.num_steps() - 1);
    if (target == kUnknownLabel) continue;
    if (target == kWildcardLabel) {
      // A wildcard target touches every label; be conservative.
      for (LabelId l = 0; l < num_labels; ++l) {
        kreq[l] = std::max(kreq[l], len);
      }
      continue;
    }
    kreq[target] = std::max(kreq[target], len);
  }

  // Propagate the D(k) constraint over the *label* adjacency: for every
  // data edge (u, v), require kreq[label(u)] ≥ kreq[label(v)] - 1. This is
  // exactly what makes D(k)-construct refine every index node with a given
  // label alike (the paper's "over-refinement of irrelevant index nodes").
  std::vector<std::pair<LabelId, LabelId>> label_edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.children(u)) {
      label_edges.emplace_back(g.label(u), g.label(v));
    }
  }
  std::sort(label_edges.begin(), label_edges.end());
  label_edges.erase(std::unique(label_edges.begin(), label_edges.end()),
                    label_edges.end());

  bool changed = true;
  while (changed) {
    changed = false;
    for (auto [lu, lv] : label_edges) {
      if (kreq[lu] < kreq[lv] - 1) {
        kreq[lu] = kreq[lv] - 1;
        changed = true;
      }
    }
  }
  return kreq;
}

DkIndex DkIndex::Construct(const DataGraph& g,
                           const std::vector<PathExpression>& fups) {
  std::vector<int32_t> kreq = ComputeDkLabelRequirements(g, fups);
  BisimulationPartition part = ComputeDkConstructPartition(g, kreq);

  // Each block's recorded similarity is its label's requirement (all nodes
  // of a label share one k in D(k)-construct). If the partition reached its
  // fixpoint before a label's requirement, the blocks are in fact fully
  // bisimilar, so the recorded value remains sound.
  std::vector<int32_t> block_k(part.num_blocks, 0);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    block_k[part.block_of[n]] = kreq[g.label(n)];
  }
  return DkIndex(g, IndexGraph::FromPartition(g, part.block_of,
                                              part.num_blocks, block_k));
}

DkIndex::DkIndex(const DataGraph& g)
    : graph_(IndexGraph::LabelPartition(g)), validator_(g) {}

DkIndex::DkIndex(const DataGraph& g, IndexGraph graph)
    : graph_(std::move(graph)), validator_(g) {}

void DkIndex::Promote(const PathExpression& fup) {
  const int32_t len = static_cast<int32_t>(fup.length());
  if (len == 0 || fup.HasDescendantAxis()) return;
  // PROMOTE is invoked on every index node reachable by the FUP that lacks
  // the required similarity; repeat until the target set is fully promoted
  // (splits can surface new under-refined target nodes).
  SplitScratch scratch;  // Shared by every split of this call.
  while (true) {
    std::vector<IndexNodeId> targets =
        RefinementTargetSet(&graph_, fup, &scratch);
    std::vector<NodeId> pending;
    for (IndexNodeId v : targets) {
      if (graph_.node(v).k < len) {
        const auto& extent = graph_.node(v).extent;
        pending.insert(pending.end(), extent.begin(), extent.end());
      }
    }
    if (pending.empty()) {
      graph_.RebuildAdjacency(&scratch);
      return;
    }
    std::sort(pending.begin(), pending.end());
    PromoteExtent(pending, len, &scratch);
  }
}

void DkIndex::PromoteExtent(const std::vector<NodeId>& extent, int32_t kv,
                            SplitScratch* scratch) {
  if (kv <= 0 || extent.empty()) return;

  // Index nodes currently holding `extent` that lack similarity kv.
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
  if (covers.empty()) return;

  // PROMOTE lines 3-4: recursively promote all parents to kv - 1. The
  // parents of the covers are exactly the index nodes containing a data
  // parent of a cover extent, so one extent-level recursion covers them
  // all (and stays correct if a cyclic recursion splits a cover).
  std::vector<NodeId> parent_extent;
  for (IndexNodeId v : covers) {
    for (NodeId o : graph_.node(v).extent) {
      auto ps = graph_.data().parents(o);
      parent_extent.insert(parent_extent.end(), ps.begin(), ps.end());
    }
  }
  std::sort(parent_extent.begin(), parent_extent.end());
  parent_extent.erase(
      std::unique(parent_extent.begin(), parent_extent.end()),
      parent_extent.end());
  PromoteExtent(parent_extent, kv - 1, scratch);

  // PROMOTE lines 5-6: split each cover by Succ of each current parent's
  // extent. Note the deliberate over-refinement: parents promoted beyond
  // kv - 1 by earlier FUPs ("overqualified parents") split the cover more
  // finely than kv-bisimilarity requires.
  for (IndexNodeId v : under_refined_covers()) {
    graph_.RebuildAdjacency(scratch);
    std::vector<IndexGraph::Part> parts;
    for (auto& piece :
         graph_.SplitByParents(graph_.node(v).extent.ids(),
                               graph_.node(v).parents, scratch)) {
      parts.push_back(IndexGraph::Part{std::move(piece), kv});
    }
    graph_.ReplaceNode(v, std::move(parts));
  }
}

QueryResult DkIndex::Query(const PathExpression& path) {
  return AnswerOnIndex(graph_, path, &validator_);
}

}  // namespace mrx
