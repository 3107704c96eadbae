#include "query/data_evaluator.h"

#include <algorithm>
#include <chrono>

#include "obs/query_cost.h"

namespace mrx {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

DataEvaluator::DataEvaluator(const DataGraph& graph)
    : graph_(graph), mark_(graph.num_nodes(), 0) {}

void DataEvaluator::StartFrontier(const PathExpression& path,
                                  std::vector<NodeId>* out) {
  out->clear();
  if (path.anchored()) {
    if (path.StepMatches(0, graph_.label(graph_.root()))) {
      out->push_back(graph_.root());
    }
  } else if (path.label(0) == kWildcardLabel) {
    out->resize(graph_.num_nodes());
    for (NodeId n = 0; n < graph_.num_nodes(); ++n) (*out)[n] = n;
  } else if (path.label(0) != kUnknownLabel) {
    const auto nodes = graph_.nodes_with_label(path.label(0));
    out->assign(nodes.begin(), nodes.end());
  }
}

template <bool kDown, typename Fn>
void DataEvaluator::Closure(const std::vector<NodeId>& frontier,
                            Fn&& reached) {
  work_.clear();
  const auto expand = [&](NodeId v) {
    for (NodeId u : kDown ? graph_.children(v) : graph_.parents(v)) {
      if (Mark(u)) {
        work_.push_back(u);
        reached(u);
      }
    }
  };
  for (NodeId v : frontier) expand(v);
  for (size_t i = 0; i < work_.size(); ++i) expand(work_[i]);
}

void DataEvaluator::NextFrontier(const std::vector<NodeId>& frontier,
                                 const PathExpression& path, size_t step,
                                 std::vector<NodeId>* out) {
  out->clear();
  NextEpoch();
  if (path.DescendantStep(step)) {
    // Descendant axis: everything reachable through one or more edges;
    // collect the label matches. The frontier nodes themselves are *not*
    // marked: a node may match through a cycle back to itself.
    Closure<true>(frontier, [&](NodeId c) {
      if (path.StepMatches(step, graph_.label(c))) out->push_back(c);
    });
  } else {
    for (NodeId u : frontier) {
      for (NodeId v : graph_.children(u)) {
        if (path.StepMatches(step, graph_.label(v)) && Mark(v)) {
          out->push_back(v);
        }
      }
    }
  }
}

std::vector<NodeId> DataEvaluator::Evaluate(const PathExpression& path) {
  // Forward, level by level: frontier_ holds the distinct nodes reachable
  // as instances of the prefix ending at the current step.
  StartFrontier(path, &frontier_);
  for (size_t step = 1; step < path.num_steps() && !frontier_.empty();
       ++step) {
    NextFrontier(frontier_, path, step, &next_);
    frontier_.swap(next_);
  }
  std::vector<NodeId> result = frontier_;
  std::sort(result.begin(), result.end());
  return result;
}

namespace {

/// Number of leading steps `a` and `b` share: equal labels and axes, and
/// for step 0 equal anchoring.
size_t SharedSteps(const PathExpression& a, const PathExpression& b) {
  if (a.anchored() != b.anchored()) return 0;
  const size_t n = std::min(a.num_steps(), b.num_steps());
  size_t s = 0;
  while (s < n && a.label(s) == b.label(s) &&
         a.DescendantStep(s) == b.DescendantStep(s)) {
    ++s;
  }
  return s;
}

}  // namespace

std::vector<uint32_t> DataEvaluator::PrefixOrder(
    std::span<const PathExpression* const> paths) {
  std::vector<uint32_t> order(paths.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    const PathExpression& a = *paths[x];
    const PathExpression& b = *paths[y];
    if (a.anchored() != b.anchored()) return a.anchored() < b.anchored();
    const size_t s = SharedSteps(a, b);
    if (s == a.num_steps() || s == b.num_steps()) {
      return a.num_steps() < b.num_steps();
    }
    if (a.label(s) != b.label(s)) return a.label(s) < b.label(s);
    return a.DescendantStep(s) < b.DescendantStep(s);
  });
  return order;
}

std::vector<std::vector<NodeId>> DataEvaluator::EvaluateAll(
    std::span<const PathExpression* const> paths) {
  std::vector<std::vector<NodeId>> targets(paths.size());
  // levels[s]: the instances of step s of the last path evaluated.
  std::vector<std::vector<NodeId>> levels;
  const PathExpression* last = nullptr;
  for (uint32_t i : PrefixOrder(paths)) {
    const PathExpression& path = *paths[i];
    levels.resize(last == nullptr ? 0 : SharedSteps(*last, path));
    if (levels.empty()) {
      levels.emplace_back();
      StartFrontier(path, &levels.back());
    }
    while (levels.size() < path.num_steps()) {
      std::vector<NodeId> next;
      NextFrontier(levels.back(), path, levels.size(), &next);
      levels.push_back(std::move(next));
    }
    targets[i] = levels.back();
    std::sort(targets[i].begin(), targets[i].end());
    last = &path;
  }
  return targets;
}

void DataEvaluator::Validate(std::span<const NodeId> candidates,
                             const PathExpression& path,
                             std::vector<NodeId>* survivors,
                             uint64_t* visited) {
  const uint64_t start_ns = timing_enabled_ ? NowNs() : 0;
  obs::CountValidationCheck();
  uint64_t visit_count = 0;
  for (NodeId node : candidates) {
    if (Survives(node, path, &visit_count)) survivors->push_back(node);
  }
  if (visited != nullptr) *visited += visit_count;
  if (timing_enabled_) validation_ns_ += NowNs() - start_ns;
}

bool DataEvaluator::HasIncomingPath(NodeId node, const PathExpression& path,
                                    uint64_t* visited) {
  std::vector<NodeId> survivor;
  Validate(std::span<const NodeId>(&node, 1), path, &survivor, visited);
  return !survivor.empty();
}

bool DataEvaluator::Survives(NodeId node, const PathExpression& path,
                             uint64_t* visited) {
  size_t step = path.num_steps() - 1;
  if (!path.StepMatches(step, graph_.label(node))) return false;
  ++*visited;  // `node` itself is visited.

  // Backward, toward the first step. On a single-parent chain the level
  // search's frontier is that one parent, so it is walked directly.
  NodeId at = node;
  for (; step > 0 && !path.DescendantStep(step); --step) {
    const std::span<const NodeId> parents = graph_.parents(at);
    if (parents.size() != 1) break;
    if (!path.StepMatches(step - 1, graph_.label(parents[0]))) return false;
    at = parents[0];
    ++*visited;
  }
  if (step == 0) return !path.anchored() || at == graph_.root();

  // Level by level from `at`: frontier_ holds the distinct instances of
  // step `step`.
  frontier_.assign(1, at);
  for (; step > 0 && !frontier_.empty(); --step) {
    next_.clear();
    NextEpoch();
    if (path.DescendantStep(step)) {
      // Ancestors through one or more edges, filtered to the previous
      // step's label.
      Closure<false>(frontier_, [&](NodeId u) {
        ++*visited;
        if (path.StepMatches(step - 1, graph_.label(u))) next_.push_back(u);
      });
    } else {
      for (NodeId v : frontier_) {
        for (NodeId u : graph_.parents(v)) {
          if (path.StepMatches(step - 1, graph_.label(u)) && Mark(u)) {
            next_.push_back(u);
            ++*visited;
          }
        }
      }
    }
    frontier_.swap(next_);
  }
  if (path.anchored()) {
    return std::find(frontier_.begin(), frontier_.end(), graph_.root()) !=
           frontier_.end();
  }
  return !frontier_.empty();
}

}  // namespace mrx
