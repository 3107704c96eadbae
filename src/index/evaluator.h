#ifndef MRX_INDEX_EVALUATOR_H_
#define MRX_INDEX_EVALUATOR_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "index/index_graph.h"
#include "query/data_evaluator.h"
#include "query/path_expression.h"
#include "query/stats.h"

namespace mrx {

namespace fault {

/// Test-only fault injection for the differential checker (src/check/):
/// while true, AssembleAnswer silently drops the highest data node from
/// every non-empty answer — a deliberate extent bug in the production
/// answer path. The checker's acceptance test flips this flag to prove
/// the oracle catches wrong answers and the shrinker minimizes them.
/// Never set outside tests.
inline std::atomic<bool> inject_extent_drop{false};

}  // namespace fault

/// \brief The answer to a path expression evaluated through an index.
struct QueryResult {
  /// Data nodes satisfying the expression, sorted ascending. When some
  /// target index node is under-refined (k < query length) the answer has
  /// been validated against the data graph, so it is always exact.
  std::vector<NodeId> answer;

  /// The target set of the expression in the index graph.
  std::vector<IndexNodeId> target;

  /// Cost incurred, per the paper's metric.
  QueryStats stats;

  /// True if every target index node had sufficient local similarity, i.e.
  /// no validation was needed (the index was *precise* for this query).
  bool precise = true;
};

/// \brief Computes the target set of `path` in `ig`: all alive index nodes
/// with `path` as an incoming label path (instances starting at the index
/// node of the data root for anchored paths).
///
/// Adds every index node placed on a search frontier to
/// `stats->index_nodes_visited` (the paper's index-side cost) if `stats` is
/// non-null.
std::vector<IndexNodeId> IndexTargetSet(const IndexGraph& ig,
                                        const PathExpression& path,
                                        QueryStats* stats);

/// \brief IndexTargetSet on a graph that refinement is splitting, for its
/// false-instance checks: walks through IndexGraph::ChildrenForWalk, which
/// derives only the lists the walk reads and the nodes that must list
/// themselves there. A wildcard or descendant step can read any node, so
/// such a path rebuilds all adjacency first. The refinement call still
/// ends with a full RebuildAdjacency.
std::vector<IndexNodeId> RefinementTargetSet(IndexGraph* ig,
                                             const PathExpression& path,
                                             SplitScratch* scratch);

/// \brief IndexTargetSet from a given start frontier: the nodes of `ig`
/// matching step 0 of `path` (the data root's node if anchored), which an
/// M*(k) component finds through its hierarchy instead of a scan. Counts
/// the start frontier like the scan would.
std::vector<IndexNodeId> IndexTargetSet(const IndexGraph& ig,
                                        const PathExpression& path,
                                        std::vector<IndexNodeId> start,
                                        QueryStats* stats);

/// \brief One child step of an index-graph search: the children of
/// `frontier` whose label matches step `step` of `path`, each once, in the
/// order they are reached. Dedupes with the calling thread's stamped marks,
/// so a step costs the adjacency it reads, not the component's capacity.
std::vector<IndexNodeId> ChildStep(const IndexGraph& ig,
                                   const std::vector<IndexNodeId>& frontier,
                                   const PathExpression& path, size_t step);

/// \brief The backward counterpart of ChildStep (bottom-up evaluation): the
/// parents of `frontier` whose label matches step `step`, each once.
std::vector<IndexNodeId> ParentStep(const IndexGraph& ig,
                                    const std::vector<IndexNodeId>& frontier,
                                    const PathExpression& path, size_t step);

/// \brief Keeps, in order, the members of `nodes` that are also in `keep`
/// (both duplicate-free sets of ids of `ig`).
void KeepCommon(const IndexGraph& ig, const std::vector<IndexNodeId>& keep,
                std::vector<IndexNodeId>* nodes);

/// \brief The answer collector every index query ends in (§3.1 step 2,
/// QUERYTOPDOWN lines 5-12). `result->target` must be sorted. Appends the
/// extent of each target node with k ≥ the query length, and the
/// validated survivors of each other target node (one `validator->Validate`
/// call per node, charging `data_nodes_validated`), each as one
/// ascending run into one allocation sized to the targets' extents; the
/// runs are disjoint, so a bottom-up merge of them sorts the answer in
/// O(n log runs), and one run, or runs already in order, cost no merge.
void AssembleAnswer(const IndexGraph& ig, const PathExpression& path,
                    DataEvaluator* validator, QueryResult* result);

/// \brief The M(k)/A(k)/D(k) query algorithm (§3.1): computes the target
/// set on the index and assembles the answer from it (AssembleAnswer).
QueryResult AnswerOnIndex(const IndexGraph& ig, const PathExpression& path,
                          DataEvaluator* validator);

}  // namespace mrx

#endif  // MRX_INDEX_EVALUATOR_H_
