#include "index/evaluator.h"

#include <algorithm>
#include <utility>

#include "obs/query_cost.h"

namespace mrx {
namespace {

/// A set of index-node ids as one stamp per id: starting a new set bumps
/// the stamp instead of zeroing an array sized to the component, so a
/// search step pays for the ids it marks. One per thread (the query
/// methods are const and run concurrently); a set lives until the next
/// Reset on the same thread, so callers never hold one across a call
/// that starts another.
class NodeMarks {
 public:
  static NodeMarks& ForThread() {
    static thread_local NodeMarks marks;
    return marks;
  }

  /// Starts an empty set over ids below `capacity`.
  void Reset(size_t capacity) {
    if (stamps_.size() < capacity) stamps_.resize(capacity, 0);
    if (++stamp_ == 0) {  // Wrapped: old stamps could collide with new ones.
      std::fill(stamps_.begin(), stamps_.end(), 0);
      stamp_ = 1;
    }
  }

  /// Adds `v`; true iff it was not in the set yet.
  bool Insert(IndexNodeId v) {
    if (stamps_[v] == stamp_) return false;
    stamps_[v] = stamp_;
    return true;
  }

  bool Contains(IndexNodeId v) const { return stamps_[v] == stamp_; }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t stamp_ = 0;
};

/// Sorts `v`, which holds disjoint ascending runs [bounds[i], bounds[i+1])
/// (bounds[0] = 0, bounds.back() = v->size()). Neighbouring runs already in
/// order join first, for one comparison each; what is left merges pairwise,
/// bottom-up, ping-ponging between `v` and one buffer.
void MergeRuns(std::vector<NodeId>* v, std::vector<size_t>* bounds) {
  std::vector<size_t>& b = *bounds;
  size_t runs = 1;
  for (size_t i = 1; i + 1 < b.size(); ++i) {
    if ((*v)[b[i] - 1] > (*v)[b[i]]) b[runs++] = b[i];
  }
  b[runs] = b.back();
  b.resize(runs + 1);
  if (runs == 1) return;

  std::vector<NodeId> buffer(v->size());
  NodeId* src = v->data();
  NodeId* dst = buffer.data();
  while (b.size() > 2) {
    // Run j of the next pass is runs 2j and 2j+1 of this one, so its
    // bounds overwrite entries this pass has already read.
    size_t out = 1;
    size_t i = 0;
    for (; i + 2 < b.size(); i += 2) {
      std::merge(src + b[i], src + b[i + 1], src + b[i + 1], src + b[i + 2],
                 dst + b[i]);
      b[out++] = b[i + 2];
    }
    if (i + 1 < b.size()) {  // An odd run out: carry it over.
      std::copy(src + b[i], src + b[i + 1], dst + b[i]);
      b[out++] = b[i + 1];
    }
    b.resize(out);
    std::swap(src, dst);
  }
  if (src != v->data()) v->swap(buffer);
}

/// ChildStep and ParentStep: the `side` neighbours of `frontier` matching
/// step `step`, each once.
std::vector<IndexNodeId> NeighbourStep(
    const IndexGraph& ig, const std::vector<IndexNodeId>& frontier,
    const PathExpression& path, size_t step,
    std::vector<IndexNodeId> IndexGraph::Node::*side) {
  NodeMarks& seen = NodeMarks::ForThread();
  seen.Reset(ig.capacity());
  std::vector<IndexNodeId> next;
  for (IndexNodeId u : frontier) {
    for (IndexNodeId v : ig.node(u).*side) {
      if (path.StepMatches(step, ig.node(v).label) && seen.Insert(v)) {
        next.push_back(v);
      }
    }
  }
  return next;
}

/// The alive nodes matching step 0 of `path` (the data root's node if
/// anchored), found through the label's node list.
std::vector<IndexNodeId> StartNodes(const IndexGraph& ig,
                                    const PathExpression& path) {
  if (path.anchored()) {
    const IndexNodeId root_node = ig.index_of(ig.data().root());
    if (path.StepMatches(0, ig.node(root_node).label)) return {root_node};
    return {};
  }
  if (path.label(0) == kWildcardLabel) return ig.AliveNodes();
  return ig.NodesWithLabel(path.label(0));
}

}  // namespace

std::vector<IndexNodeId> ChildStep(const IndexGraph& ig,
                                   const std::vector<IndexNodeId>& frontier,
                                   const PathExpression& path, size_t step) {
  return NeighbourStep(ig, frontier, path, step, &IndexGraph::Node::children);
}

std::vector<IndexNodeId> ParentStep(const IndexGraph& ig,
                                    const std::vector<IndexNodeId>& frontier,
                                    const PathExpression& path, size_t step) {
  return NeighbourStep(ig, frontier, path, step, &IndexGraph::Node::parents);
}

void KeepCommon(const IndexGraph& ig, const std::vector<IndexNodeId>& keep,
                std::vector<IndexNodeId>* nodes) {
  NodeMarks& in_keep = NodeMarks::ForThread();
  in_keep.Reset(ig.capacity());
  for (IndexNodeId v : keep) in_keep.Insert(v);
  std::erase_if(*nodes, [&](IndexNodeId v) { return !in_keep.Contains(v); });
}

std::vector<IndexNodeId> IndexTargetSet(const IndexGraph& ig,
                                        const PathExpression& path,
                                        QueryStats* stats) {
  return IndexTargetSet(ig, path, StartNodes(ig, path), stats);
}

std::vector<IndexNodeId> RefinementTargetSet(IndexGraph* ig,
                                             const PathExpression& path,
                                             SplitScratch* scratch) {
  // A wildcard or descendant step can read any node's children.
  bool every_label = path.HasDescendantAxis();
  for (LabelId label : path.labels()) every_label |= label == kWildcardLabel;
  if (every_label) {
    ig->RebuildAdjacency(scratch);
    return IndexTargetSet(*ig, path, nullptr);
  }
  std::vector<IndexNodeId> frontier = StartNodes(*ig, path);
  for (size_t step = 1; step < path.num_steps() && !frontier.empty();
       ++step) {
    const LabelId label = path.label(step);
    NodeMarks& seen = NodeMarks::ForThread();
    seen.Reset(ig->capacity());
    std::vector<IndexNodeId> next;
    for (IndexNodeId u : frontier) {
      for (IndexNodeId v : ig->ChildrenForWalk(u, label, scratch)) {
        if (ig->node(v).label == label && seen.Insert(v)) next.push_back(v);
      }
    }
    frontier.swap(next);
  }
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

std::vector<IndexNodeId> IndexTargetSet(const IndexGraph& ig,
                                        const PathExpression& path,
                                        std::vector<IndexNodeId> start,
                                        QueryStats* stats) {
  std::vector<IndexNodeId> frontier = std::move(start);
  if (stats != nullptr) stats->index_nodes_visited += frontier.size();

  for (size_t step = 1; step < path.num_steps() && !frontier.empty();
       ++step) {
    std::vector<IndexNodeId> next;
    if (path.DescendantStep(step)) {
      // Descendant axis: the closure of one-or-more index edges, filtered
      // by the step's label. Safe: index reachability over-approximates
      // data reachability (Property 2), and answers are validated.
      NodeMarks& reached = NodeMarks::ForThread();
      reached.Reset(ig.capacity());
      std::vector<IndexNodeId> work = frontier;
      for (size_t i = 0; i < work.size(); ++i) {
        for (IndexNodeId v : ig.node(work[i]).children) {
          if (reached.Insert(v)) {
            work.push_back(v);
            if (path.StepMatches(step, ig.node(v).label)) {
              next.push_back(v);
            }
          }
        }
      }
    } else {
      next = ChildStep(ig, frontier, path, step);
    }
    if (stats != nullptr) stats->index_nodes_visited += next.size();
    frontier.swap(next);
  }
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

void AssembleAnswer(const IndexGraph& ig, const PathExpression& path,
                    DataEvaluator* validator, QueryResult* result) {
  // Anchored expressions pin the instance's start to the root, and
  // descendant-axis expressions have unbounded instances; in both cases
  // k-bisimilarity cannot certify a whole extent, so every target node
  // validates (answers stay exact either way).
  const int32_t needed = static_cast<int32_t>(path.length());
  const bool certifiable = !path.anchored() && !path.HasDescendantAxis();
  std::vector<NodeId>& answer = result->answer;
  size_t total = answer.size();
  for (IndexNodeId v : result->target) total += ig.node(v).extent.size();
  answer.reserve(total);

  std::vector<size_t> bounds = {0};
  for (IndexNodeId v : result->target) {
    const IndexGraph::Node& node = ig.node(v);
    obs::CountExtentScan(node.extent.size());
    if (node.k >= needed && certifiable) {
      // Precise: the whole extent is part of the answer (§3.1 step 2).
      // Bulk decode — blockwise for delta, chunkwise for hybrid — instead
      // of the per-element iterator round-trip.
      node.extent.AppendTo(&answer);
    } else {
      result->precise = false;
      validator->Validate(node.extent.ids(), path, &answer,
                          &result->stats.data_nodes_validated);
    }
    if (answer.size() > bounds.back()) bounds.push_back(answer.size());
  }
  if (bounds.size() > 2) MergeRuns(&answer, &bounds);
  if (fault::inject_extent_drop.load(std::memory_order_relaxed) &&
      !answer.empty()) {
    answer.pop_back();
  }
}

QueryResult AnswerOnIndex(const IndexGraph& ig, const PathExpression& path,
                          DataEvaluator* validator) {
  QueryResult result;
  result.target = IndexTargetSet(ig, path, &result.stats);
  AssembleAnswer(ig, path, validator, &result);
  return result;
}

}  // namespace mrx
