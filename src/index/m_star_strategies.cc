// The strategy dispatch, the bottom-up and hybrid evaluation strategies of
// §4.1 "Other approaches", and the shared helpers they use. Kept out of
// m_star_index.cc so each translation unit stays focused (refinement
// there, alternative evaluation strategies here).

#include <algorithm>
#include <cassert>

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
  const IndexGraph& comp = components_[ci].graph;
  obs::CountComponentTouched(ci);
  const int32_t needed = static_cast<int32_t>(path.length());
  const bool certifiable = !path.anchored() && !path.HasDescendantAxis();
  for (IndexNodeId v : result->target) {
    const IndexGraph::Node& node = comp.node(v);
    obs::CountExtentScan(node.extent.size());
    if (node.k >= needed && certifiable) {
      // Bulk decode instead of the per-element iterator round-trip.
      node.extent.AppendTo(&result->answer);
    } else {
      result->precise = false;
      for (NodeId o : node.extent) {
        if (validator->HasIncomingPath(
                o, path, &result->stats.data_nodes_validated)) {
          result->answer.push_back(o);
        }
      }
    }
  }
  std::sort(result->answer.begin(), result->answer.end());
}

bool MStarIndex::HasOutgoingSuffix(size_t ci, IndexNodeId v,
                                   const PathExpression& path, size_t from,
                                   QueryStats* stats) const {
  const IndexGraph& comp = components_[ci].graph;
  std::vector<IndexNodeId> frontier = {v};
  for (size_t step = from + 1;
       step < path.num_steps() && !frontier.empty(); ++step) {
    std::vector<IndexNodeId> next;
    std::vector<char> seen(comp.capacity(), 0);
    for (IndexNodeId u : frontier) {
      for (IndexNodeId c : comp.node(u).children) {
        if (path.StepMatches(step, comp.node(c).label) && !seen[c]) {
          seen[c] = 1;
          next.push_back(c);
        }
      }
    }
    if (stats != nullptr) stats->index_nodes_visited += next.size();
    frontier = std::move(next);
  }
  return !frontier.empty();
}

std::vector<IndexNodeId> MStarIndex::DescendNodes(
    size_t from_ci, size_t to_ci, const std::vector<IndexNodeId>& nodes,
    QueryStats* stats) const {
  if (from_ci == to_ci) return nodes;
  const IndexGraph& from = components_[from_ci].graph;
  const IndexGraph& to = components_[to_ci].graph;
  obs::CountComponentTouched(to_ci);
  std::vector<IndexNodeId> out;
  std::vector<char> seen(to.capacity(), 0);
  for (IndexNodeId u : nodes) {
    obs::CountExtentScan(from.node(u).extent.size());
    for (NodeId o : from.node(u).extent) {
      IndexNodeId v = to.index_of(o);
      if (!seen[v]) {
        seen[v] = 1;
        out.push_back(v);
      }
    }
  }
  if (stats != nullptr) stats->index_nodes_visited += out.size();
  return out;
}

QueryResult MStarIndex::QueryBottomUp(const PathExpression& path,
                                      DataEvaluator* validator) const {
  // Anchoring needs the prefix side pinned to the root; top-down handles
  // it naturally. Descendant axes need closure logic, which the naive
  // strategy (AnswerOnIndex) implements.
  if (path.anchored()) return QueryTopDown(path, validator);
  if (path.HasDescendantAxis()) return QueryNaive(path, validator);

  QueryResult result;
  const size_t finest = components_.size() - 1;
  const size_t j = path.length();

  // Suffix of length 0: every node labeled l_j, in I0.
  size_t current_ci = 0;
  obs::CountComponentTouched(0);
  std::vector<IndexNodeId> starts;  // Nodes at path position j - s.
  {
    const IndexGraph& c0 = components_[0].graph;
    for (IndexNodeId v = 0; v < c0.capacity(); ++v) {
      if (c0.alive(v) && path.StepMatches(j, c0.node(v).label)) {
        starts.push_back(v);
      }
    }
    result.stats.index_nodes_visited += starts.size();
  }

  // Grow the suffix one step at a time, moving to finer components and
  // re-checking downward each time (the paper's caveat: a subnode may
  // have fewer outgoing paths than its supernode).
  for (size_t s = 1; s <= j && !starts.empty(); ++s) {
    const size_t ci = std::min(s, finest);
    const size_t position = j - s;
    std::vector<IndexNodeId> descended =
        DescendNodes(current_ci, ci, starts, &result.stats);
    current_ci = ci;

    const IndexGraph& comp = components_[ci].graph;
    std::vector<IndexNodeId> candidates;
    std::vector<char> seen(comp.capacity(), 0);
    for (IndexNodeId v : descended) {
      for (IndexNodeId p : comp.node(v).parents) {
        if (path.StepMatches(position, comp.node(p).label) && !seen[p]) {
          seen[p] = 1;
          candidates.push_back(p);
        }
      }
    }
    result.stats.index_nodes_visited += candidates.size();

    // Downward check: keep only candidates whose outgoing suffix really
    // exists in this component.
    starts.clear();
    for (IndexNodeId p : candidates) {
      if (HasOutgoingSuffix(ci, p, path, position, &result.stats)) {
        starts.push_back(p);
      }
    }
  }

  // `starts` now holds verified instance starts in component current_ci;
  // walk forward once more to collect the target (end) nodes.
  std::vector<IndexNodeId> frontier = std::move(starts);
  const IndexGraph& comp = components_[current_ci].graph;
  for (size_t step = 1; step < path.num_steps() && !frontier.empty();
       ++step) {
    std::vector<IndexNodeId> next;
    std::vector<char> seen(comp.capacity(), 0);
    for (IndexNodeId u : frontier) {
      for (IndexNodeId c : comp.node(u).children) {
        if (path.StepMatches(step, comp.node(c).label) && !seen[c]) {
          seen[c] = 1;
          next.push_back(c);
        }
      }
    }
    result.stats.index_nodes_visited += next.size();
    frontier = std::move(next);
  }
  CollectAnswer(path, current_ci, std::move(frontier), validator, &result);
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
  obs::CountComponentTouched(0);

  // Top-down half: prefix frontier at step `meet`, evaluated in the fine
  // component directly (simplified prefix descent; the full staircase is
  // QueryTopDown's job — the hybrid's interest is the join).
  std::vector<IndexNodeId> prefix_frontier;
  for (IndexNodeId v = 0; v < fine.capacity(); ++v) {
    if (fine.alive(v) && path.StepMatches(0, fine.node(v).label)) {
      prefix_frontier.push_back(v);
    }
  }
  result.stats.index_nodes_visited += prefix_frontier.size();
  for (size_t step = 1; step <= meet && !prefix_frontier.empty(); ++step) {
    std::vector<IndexNodeId> next;
    std::vector<char> seen(fine.capacity(), 0);
    for (IndexNodeId u : prefix_frontier) {
      for (IndexNodeId c : fine.node(u).children) {
        if (path.StepMatches(step, fine.node(c).label) && !seen[c]) {
          seen[c] = 1;
          next.push_back(c);
        }
      }
    }
    result.stats.index_nodes_visited += next.size();
    prefix_frontier = std::move(next);
  }

  // Bottom-up half: verified suffix starts at step `meet` (suffix length
  // j - meet), computed like QueryBottomUp but stopping at the meet.
  const size_t j = path.length();
  size_t current_ci = 0;
  std::vector<IndexNodeId> suffix_starts;
  {
    const IndexGraph& c0 = components_[0].graph;
    for (IndexNodeId v = 0; v < c0.capacity(); ++v) {
      if (c0.alive(v) && path.StepMatches(j, c0.node(v).label)) {
        suffix_starts.push_back(v);
      }
    }
    result.stats.index_nodes_visited += suffix_starts.size();
  }
  for (size_t s = 1; s <= j - meet && !suffix_starts.empty(); ++s) {
    const size_t ci = std::min(s, finest);
    const size_t position = j - s;
    std::vector<IndexNodeId> descended =
        DescendNodes(current_ci, ci, suffix_starts, &result.stats);
    current_ci = ci;
    const IndexGraph& comp = components_[ci].graph;
    std::vector<IndexNodeId> candidates;
    std::vector<char> seen(comp.capacity(), 0);
    for (IndexNodeId v : descended) {
      for (IndexNodeId p : comp.node(v).parents) {
        if (path.StepMatches(position, comp.node(p).label) && !seen[p]) {
          seen[p] = 1;
          candidates.push_back(p);
        }
      }
    }
    result.stats.index_nodes_visited += candidates.size();
    suffix_starts.clear();
    for (IndexNodeId p : candidates) {
      if (HasOutgoingSuffix(ci, p, path, position, &result.stats)) {
        suffix_starts.push_back(p);
      }
    }
  }

  // Join at the meet step in the fine component.
  std::vector<IndexNodeId> meet_nodes =
      DescendNodes(current_ci, cq, suffix_starts, &result.stats);
  std::vector<char> in_prefix(fine.capacity(), 0);
  for (IndexNodeId v : prefix_frontier) in_prefix[v] = 1;
  std::erase_if(meet_nodes,
                [&](IndexNodeId v) { return !in_prefix[v]; });

  // Finish forward from the joined frontier to the end of the path.
  std::vector<IndexNodeId> frontier = std::move(meet_nodes);
  for (size_t step = meet + 1; step < path.num_steps() && !frontier.empty();
       ++step) {
    std::vector<IndexNodeId> next;
    std::vector<char> seen(fine.capacity(), 0);
    for (IndexNodeId u : frontier) {
      for (IndexNodeId c : fine.node(u).children) {
        if (path.StepMatches(step, fine.node(c).label) && !seen[c]) {
          seen[c] = 1;
          next.push_back(c);
        }
      }
    }
    result.stats.index_nodes_visited += next.size();
    frontier = std::move(next);
  }
  CollectAnswer(path, cq, std::move(frontier), validator, &result);
  return result;
}

}  // namespace mrx
