#ifndef MRX_QUERY_DATA_EVALUATOR_H_
#define MRX_QUERY_DATA_EVALUATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/data_graph.h"
#include "query/path_expression.h"

namespace mrx {

/// \brief Evaluates path expressions directly on the data graph.
///
/// This is the reproduction's ground truth (the paper's "target set of l in
/// the data graph", input T of REFINE) and also the validation oracle used
/// to strip false positives from imprecise index answers.
///
/// The evaluator is reusable across queries; it keeps scratch buffers sized
/// to the graph so repeated evaluation does not reallocate.
class DataEvaluator {
 public:
  explicit DataEvaluator(const DataGraph& graph);

  DataEvaluator(const DataEvaluator&) = delete;
  DataEvaluator& operator=(const DataEvaluator&) = delete;
  // Movable (not assignable — holds a reference) so owners like
  // MStarIndex can be returned from factory functions.
  DataEvaluator(DataEvaluator&&) = default;

  /// The target set of `path` in the data graph, sorted ascending.
  std::vector<NodeId> Evaluate(const PathExpression& path);

  /// The target sets of `paths`, in input order: Evaluate of each, but a
  /// prefix shared by several paths is evaluated once. The paths are
  /// visited in PrefixOrder, keeping the frontier of every step of the
  /// current path, so the next path resumes after the steps it shares.
  std::vector<std::vector<NodeId>> EvaluateAll(
      std::span<const PathExpression* const> paths);

  /// Positions of `paths` sorted so that paths sharing a prefix are
  /// adjacent: by anchoring, then step by step (label, axis), a prefix
  /// before its extensions; ties keep input order.
  static std::vector<uint32_t> PrefixOrder(
      std::span<const PathExpression* const> paths);

  /// Validates a candidate set — in AssembleAnswer, the extent of one
  /// under-refined index node: appends to `survivors`, in input order,
  /// each candidate that has `path` as an incoming label path (ending at
  /// it; for anchored paths the instance must start at the root). If
  /// `visited` is non-null, the data nodes each candidate's backward
  /// search visits (including the candidate itself) are added to it — the
  /// validation cost of the paper's metric. The call counts as one
  /// validation check and, with timing enabled, is timed as one bracket.
  void Validate(std::span<const NodeId> candidates,
                const PathExpression& path, std::vector<NodeId>* survivors,
                uint64_t* visited = nullptr);

  /// Validate of the one candidate `node`: true iff it survives.
  bool HasIncomingPath(NodeId node, const PathExpression& path,
                       uint64_t* visited = nullptr);

  /// Opt-in validation-phase timing for the observability layer: while
  /// enabled, wall time spent inside Validate and HasIncomingPath (the
  /// index strategies' validation oracle) accumulates into a nanosecond
  /// counter, one clock pair per call. Off by default — the clock reads are
  /// only paid on traced queries (the server enables timing on the sampled
  /// ones; see docs/OBSERVABILITY.md).
  void EnableValidationTiming(bool enabled) { timing_enabled_ = enabled; }

  /// Returns the accumulated validation nanoseconds and resets the counter.
  uint64_t ConsumeValidationNs() {
    const uint64_t ns = validation_ns_;
    validation_ns_ = 0;
    return ns;
  }

  const DataGraph& graph() const { return graph_; }

 private:
  /// The backward search for one candidate; adds its visits to `*visited`.
  /// A child step from a node with exactly one parent is one label check
  /// and one move up; from the first node with zero or several parents, or
  /// at a descendant step, the search goes on level by level.
  bool Survives(NodeId node, const PathExpression& path, uint64_t* visited);

  /// Marks, in the current epoch, each node reachable from `frontier`
  /// through one or more edges (children if kDown, else parents) and calls
  /// `reached` on it once, breadth first. The frontier is read in place;
  /// `work_` queues the nodes reached so far.
  template <bool kDown, typename Fn>
  void Closure(const std::vector<NodeId>& frontier, Fn&& reached);

  /// The instances of step 0 of `path` (the root if anchored), into `out`.
  void StartFrontier(const PathExpression& path, std::vector<NodeId>* out);

  /// The instances of step `step` of `path` reached from `frontier`, the
  /// instances of step `step` - 1, each once, into `out`.
  void NextFrontier(const std::vector<NodeId>& frontier,
                    const PathExpression& path, size_t step,
                    std::vector<NodeId>* out);

  /// Marks `n` in the current epoch; returns true if newly marked.
  bool Mark(NodeId n) {
    if (mark_[n] == epoch_) return false;
    mark_[n] = epoch_;
    return true;
  }
  void NextEpoch() { ++epoch_; }

  const DataGraph& graph_;
  std::vector<uint64_t> mark_;
  uint64_t epoch_ = 0;
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_;
  std::vector<NodeId> work_;
  bool timing_enabled_ = false;
  uint64_t validation_ns_ = 0;
};

}  // namespace mrx

#endif  // MRX_QUERY_DATA_EVALUATOR_H_
