// The strategy dispatch, the bottom-up and hybrid evaluation strategies of
// §4.1 "Other approaches", and the shared helpers they use. Kept out of
// m_star_index.cc so each translation unit stays focused (refinement
// there, alternative evaluation strategies here).

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

#include "index/extent_ops.h"
#include "index/m_star_index.h"
#include "obs/query_cost.h"

namespace mrx {

const char* StrategyName(MStarQueryStrategy strategy) {
  switch (strategy) {
    case MStarQueryStrategy::kNaive:
      return "naive";
    case MStarQueryStrategy::kTopDown:
      return "topdown";
    case MStarQueryStrategy::kBottomUp:
      return "bottomup";
    case MStarQueryStrategy::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

QueryResult MStarIndex::Query(MStarQueryStrategy strategy,
                              const PathExpression& path,
                              DataEvaluator* validator) const {
  switch (strategy) {
    case MStarQueryStrategy::kNaive:
      return QueryNaive(path, validator);
    case MStarQueryStrategy::kTopDown:
      break;
    case MStarQueryStrategy::kBottomUp:
      return QueryBottomUp(path, validator);
    case MStarQueryStrategy::kHybrid:
      return QueryHybrid(path, validator);
  }
  return QueryTopDown(path, validator);
}

void MStarIndex::CollectAnswer(const PathExpression& path, size_t ci,
                               std::vector<IndexNodeId> target,
                               DataEvaluator* validator,
                               QueryResult* result) const {
  SortUnique(&target);
  result->target = std::move(target);
  obs::CountComponentTouched(ci);
  AssembleAnswer(components_[ci].graph, path, validator, result);
}

bool MStarIndex::HasOutgoingSuffix(size_t ci, IndexNodeId v,
                                   const PathExpression& path, size_t from,
                                   QueryStats* stats) const {
  const IndexGraph& comp = components_[ci].graph;
  std::vector<IndexNodeId> frontier = {v};
  for (size_t step = from + 1;
       step < path.num_steps() && !frontier.empty(); ++step) {
    frontier = ChildStep(comp, frontier, path, step);
    if (stats != nullptr) stats->index_nodes_visited += frontier.size();
  }
  return !frontier.empty();
}

std::vector<IndexNodeId> MStarIndex::MatchingNodes(size_t ci,
                                                   const PathExpression& path,
                                                   size_t step) const {
  const IndexGraph& c0 = components_[0].graph;
  std::vector<IndexNodeId> nodes;
  for (IndexNodeId v = 0; v < c0.capacity(); ++v) {
    if (c0.alive(v) && path.StepMatches(step, c0.node(v).label)) {
      nodes.push_back(v);
    }
  }
  return DescendNodes(0, ci, std::move(nodes), nullptr);
}

std::vector<IndexNodeId> MStarIndex::StartNodes(
    size_t ci, const PathExpression& path) const {
  if (!path.anchored()) return MatchingNodes(ci, path, 0);
  const IndexGraph& comp = components_[ci].graph;
  const IndexNodeId root_node = comp.index_of(data_.root());
  if (!path.StepMatches(0, comp.node(root_node).label)) return {};
  return {root_node};
}

std::vector<IndexNodeId> MStarIndex::DescendNodes(
    size_t from_ci, size_t to_ci, std::vector<IndexNodeId> nodes,
    QueryStats* stats) const {
  if (from_ci == to_ci) return nodes;
  obs::CountComponentTouched(to_ci);
  std::vector<IndexNodeId> next;
  for (size_t i = from_ci + 1; i <= to_ci; ++i) {
    next.clear();
    for (IndexNodeId u : nodes) {
      const std::span<const IndexNodeId> subs = subnodes(i, u);
      next.insert(next.end(), subs.begin(), subs.end());
    }
    nodes.swap(next);
  }
  if (stats != nullptr) stats->index_nodes_visited += nodes.size();
  return nodes;
}

std::vector<IndexNodeId> MStarIndex::VerifiedSuffixStarts(
    const PathExpression& path, size_t suffix_steps, size_t* ci,
    QueryStats* stats) const {
  const size_t finest = components_.size() - 1;
  const size_t j = path.length();

  // Suffix of length 0: every node labeled l_j, in I0.
  obs::CountComponentTouched(0);
  size_t current_ci = 0;
  std::vector<IndexNodeId> starts = MatchingNodes(0, path, j);
  stats->index_nodes_visited += starts.size();

  // Grow the suffix one step at a time, moving to finer components and
  // re-checking downward each time (the paper's caveat: a subnode may
  // have fewer outgoing paths than its supernode).
  for (size_t s = 1; s <= suffix_steps && !starts.empty(); ++s) {
    const size_t next_ci = std::min(s, finest);
    const size_t position = j - s;
    const std::vector<IndexNodeId> descended =
        DescendNodes(current_ci, next_ci, std::move(starts), stats);
    current_ci = next_ci;
    const std::vector<IndexNodeId> candidates =
        ParentStep(components_[current_ci].graph, descended, path, position);
    stats->index_nodes_visited += candidates.size();

    // Downward check: keep only candidates whose outgoing suffix really
    // exists in this component.
    starts.clear();
    for (IndexNodeId p : candidates) {
      if (HasOutgoingSuffix(current_ci, p, path, position, stats)) {
        starts.push_back(p);
      }
    }
  }
  *ci = current_ci;
  return starts;
}

QueryResult MStarIndex::QueryBottomUp(const PathExpression& path,
                                      DataEvaluator* validator) const {
  // Anchoring needs the prefix side pinned to the root; top-down handles
  // it naturally. Descendant axes need closure logic, which the naive
  // strategy (IndexTargetSet) implements.
  if (path.anchored()) return QueryTopDown(path, validator);
  if (path.HasDescendantAxis()) return QueryNaive(path, validator);

  QueryResult result;
  size_t ci = 0;
  std::vector<IndexNodeId> frontier =
      VerifiedSuffixStarts(path, path.length(), &ci, &result.stats);

  // `frontier` now holds verified instance starts in component ci; walk
  // forward once more to collect the target (end) nodes.
  const IndexGraph& comp = components_[ci].graph;
  for (size_t step = 1; step < path.num_steps() && !frontier.empty();
       ++step) {
    frontier = ChildStep(comp, frontier, path, step);
    result.stats.index_nodes_visited += frontier.size();
  }
  CollectAnswer(path, ci, std::move(frontier), validator, &result);
  return result;
}

QueryResult MStarIndex::QueryHybrid(const PathExpression& path,
                                    DataEvaluator* validator) const {
  return QueryHybrid(path, path.num_steps() / 2, validator);
}

QueryResult MStarIndex::QueryHybrid(const PathExpression& path, size_t meet,
                                    DataEvaluator* validator) const {
  if (path.HasDescendantAxis()) return QueryNaive(path, validator);
  if (path.anchored() || path.num_steps() < 3) {
    return QueryTopDown(path, validator);
  }
  assert(meet < path.num_steps());

  QueryResult result;
  const size_t finest = components_.size() - 1;
  const size_t cq = std::min(path.length(), finest);
  const IndexGraph& fine = components_[cq].graph;
  obs::CountComponentTouched(cq);

  // Top-down half: prefix frontier at step `meet`, evaluated in the fine
  // component directly (simplified prefix descent; the full staircase is
  // QueryTopDown's job — the hybrid's interest is the join).
  std::vector<IndexNodeId> prefix_frontier = MatchingNodes(cq, path, 0);
  result.stats.index_nodes_visited += prefix_frontier.size();
  for (size_t step = 1; step <= meet && !prefix_frontier.empty(); ++step) {
    prefix_frontier = ChildStep(fine, prefix_frontier, path, step);
    result.stats.index_nodes_visited += prefix_frontier.size();
  }

  // Bottom-up half: verified suffix starts at step `meet` (suffix length
  // j - meet), computed like QueryBottomUp but stopping at the meet.
  size_t suffix_ci = 0;
  std::vector<IndexNodeId> suffix_starts = VerifiedSuffixStarts(
      path, path.length() - meet, &suffix_ci, &result.stats);

  // Join at the meet step in the fine component.
  std::vector<IndexNodeId> frontier =
      DescendNodes(suffix_ci, cq, std::move(suffix_starts), &result.stats);
  KeepCommon(fine, prefix_frontier, &frontier);

  // Finish forward from the joined frontier to the end of the path.
  for (size_t step = meet + 1; step < path.num_steps() && !frontier.empty();
       ++step) {
    frontier = ChildStep(fine, frontier, path, step);
    result.stats.index_nodes_visited += frontier.size();
  }
  CollectAnswer(path, cq, std::move(frontier), validator, &result);
  return result;
}

}  // namespace mrx
